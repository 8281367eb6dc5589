"""ASCII drawer tests."""

from repro.circuits import Circuit, draw, gates as g, summary


class TestDraw:
    def test_simple_circuit(self):
        circ = Circuit(2)
        circ.h(0)
        circ.ecr(0, 1, new_moment=True)
        art = draw(circ)
        lines = art.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("q0:")
        assert "h" in lines[0]
        assert "C" in lines[0]
        assert "T" in lines[1]

    def test_measure_and_delay_symbols(self):
        circ = Circuit(2, num_clbits=1)
        circ.delay(500.0, 0)
        circ.measure(1, 0)
        art = draw(circ)
        assert "~500" in art
        assert "M" in art

    def test_dd_pulse_count_shown(self):
        circ = Circuit(1)
        circ.append(g.dd_sequence((0.25, 0.5, 0.75, 1.0)), [0], tag="dd")
        art = draw(circ)
        assert "DD(4)*" in art

    def test_tagged_insertions_starred(self):
        circ = Circuit(1)
        circ.append(g.rz(0.3), [0], tag="compensation")
        assert "*" in draw(circ)

    def test_max_width_truncates(self):
        circ = Circuit(1)
        for _ in range(30):
            circ.h(0, new_moment=True)
        art = draw(circ, max_width=40)
        for line in art.splitlines():
            assert len(line) <= 40
            assert line.endswith("...")

    def test_compiled_circuit_renders(self, chain3):
        from repro.runtime import pipeline_for

        circ = Circuit(3)
        circ.h(0)
        circ.ecr(1, 2, new_moment=True)
        circ.append_moment([])
        compiled = pipeline_for("ca_ec+dd").compile(circ, chain3, seed=0)
        art = draw(compiled)
        assert "DD(" in art  # dressing visible

    def test_rows_cover_all_qubits(self):
        circ = Circuit(5)
        circ.h(2)
        lines = draw(circ).splitlines()
        assert [line[:2] for line in lines] == ["q0", "q1", "q2", "q3", "q4"]


class TestSummary:
    def test_counts_and_depth(self):
        circ = Circuit(2)
        circ.h(0)
        circ.ecr(0, 1, new_moment=True)
        text = summary(circ)
        assert "2q" in text
        assert "depth 2" in text
        assert "h:1" in text
        assert "ecr:1" in text

    def test_inserted_counter(self):
        circ = Circuit(1)
        circ.append(g.rz(0.1), [0], tag="compensation")
        assert "inserted:1" in summary(circ)
