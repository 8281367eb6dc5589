"""Sweep layer tests: grids, keyed lookup, curves, and JSON export."""

import json
import re

import pytest

from repro import Circuit, SimOptions, Sweep, Task
from repro.runtime.sweep import _json_value


def plus_circuit(depth: int) -> Circuit:
    circ = Circuit(2)
    circ.h(0)
    for _ in range(depth):
        circ.delay(500.0, 0, new_moment=True)
        circ.delay(500.0, 1)
        circ.append_moment([])
    circ.h(0, new_moment=True)
    return circ


def make_sweep(strategies=("none", "ca_ec"), depths=(0, 2)):
    return Sweep(
        {"strategy": strategies, "depth": list(depths)},
        lambda strategy, depth: Task(
            plus_circuit(depth),
            bit_targets={"f": {0: 0}},
            pipeline=strategy,
            realizations=2,
            seed=100 + depth,
            name=f"{strategy}/d{depth}",
        ),
        name="test-sweep",
    )


class TestSweepConstruction:
    def test_points_row_major(self):
        sweep = make_sweep()
        assert sweep.points() == [
            ("none", 0), ("none", 2), ("ca_ec", 0), ("ca_ec", 2)
        ]

    def test_builder_skips_none(self, chain2):
        sweep = Sweep(
            {"strategy": ("none", "ca_ec"), "depth": (0, 2)},
            lambda strategy, depth: None
            if strategy == "ca_ec" and depth == 0
            else Task(
                plus_circuit(depth), bit_targets={"f": {0: 0}}, seed=1
            ),
        )
        coords, tasks = sweep.tasks()
        assert ("ca_ec", 0) not in coords
        assert len(tasks) == 3

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="at least one axis"):
            Sweep({}, lambda: None)
        with pytest.raises(ValueError, match="no values"):
            Sweep({"depth": []}, lambda depth: None)

    def test_rejects_all_skipped(self, chain2):
        sweep = Sweep({"x": [1, 2]}, lambda x: None)
        with pytest.raises(ValueError, match="no tasks"):
            sweep.tasks()


class TestSweepRun:
    def test_matches_equivalent_flat_run(self, chain2):
        from repro import run

        opts = SimOptions(shots=4)
        swept = make_sweep().run(chain2, options=opts)
        tasks = [
            Task(
                plus_circuit(depth),
                bit_targets={"f": {0: 0}},
                pipeline=strategy,
                realizations=2,
                seed=100 + depth,
            )
            for strategy in ("none", "ca_ec")
            for depth in (0, 2)
        ]
        flat = run(tasks, chain2, options=opts)
        assert [r.values for _c, r in swept] == [r.values for r in flat]

    def test_lookup_and_curves(self, chain2):
        swept = make_sweep().run(chain2, options=SimOptions(shots=4))
        point = swept[("ca_ec", 2)]
        assert point.name == "ca_ec/d2"
        assert swept.get(strategy="ca_ec", depth=2) is point
        assert swept.value("f", strategy="ca_ec", depth=2) == point.values["f"]
        curve = swept.curve("f", strategy="ca_ec")
        assert curve == [swept[("ca_ec", 0)].values["f"], point.values["f"]]
        assert len(swept) == 4
        assert ("none", 0) in swept
        assert ("nope", 0) not in swept
        assert "test-sweep" in repr(swept)

    def test_single_axis_scalar_lookup(self, chain2):
        swept = Sweep(
            {"depth": (0, 2)},
            lambda depth: Task(
                plus_circuit(depth), bit_targets={"f": {0: 0}}, seed=3
            ),
        ).run(chain2, options=SimOptions(shots=4))
        assert swept[0].values["f"] == swept[(0,)].values["f"]
        assert swept.curve("f") == [swept[0].values["f"], swept[2].values["f"]]

    def test_lookup_errors(self, chain2):
        swept = make_sweep().run(chain2, options=SimOptions(shots=2))
        with pytest.raises(KeyError):
            swept[("none", 99)]
        with pytest.raises(KeyError, match="exactly the axes"):
            swept.get(strategy="none")
        with pytest.raises(ValueError, match="one free axis"):
            swept.curve("f")
        with pytest.raises(KeyError, match="unknown axes"):
            swept.curve("f", flavor="none", depth=0)

    def test_metadata_delegation(self, chain2):
        swept = make_sweep().run(
            chain2, options=SimOptions(shots=2), backend="trajectory", workers=2
        )
        assert swept.batch.backend == "trajectory"
        assert swept.batch.workers == 2
        assert swept.batch.wall_time >= swept.batch.exec_time >= 0.0
        assert swept.batch.compile_time > 0.0


class TestSweepSerialization:
    def test_to_json_round_trips(self, chain2):
        swept = make_sweep().run(chain2, options=SimOptions(shots=4))
        payload = swept.to_json()
        text = json.dumps(payload)  # must be JSON-safe
        loaded = json.loads(text)
        assert loaded["sweep"] == "test-sweep"
        assert loaded["axes"] == {"strategy": ["none", "ca_ec"], "depth": [0, 2]}
        assert len(loaded["points"]) == 4
        first = loaded["points"][0]
        assert first["coords"] == {"strategy": "none", "depth": 0}
        assert first["values"]["f"] == swept[("none", 0)].values["f"]
        assert first["realizations"] == 2

    def test_save_json(self, chain2, tmp_path):
        swept = make_sweep().run(chain2, options=SimOptions(shots=2))
        path = tmp_path / "sweep.json"
        swept.save_json(str(path))
        assert json.loads(path.read_text())["sweep"] == "test-sweep"

    def test_json_value_coercion(self):
        import numpy as np

        assert _json_value(np.int64(3)) == 3
        assert _json_value(np.float64(0.5)) == 0.5
        assert _json_value("x") == "x"
        assert _json_value(None) is None
        assert _json_value((1, 2)) == "(1, 2)"


class TestCLIIntegration:
    def test_json_flag_writes_sweep_payload(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "out.json"
        assert main(["fig9", "--quick", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"fig9"}
        sweep = payload["fig9"]["sweep"]
        assert sweep["axes"]["variant"][0] == "bare"
        assert len(sweep["points"]) == len(sweep["axes"]["variant"])
        # Stdout is only the report; the timing and ``wrote`` lines go to stderr.
        captured = capsys.readouterr()
        assert "bare fidelity" in captured.out
        assert " s)" not in captured.out
        assert "wrote" not in captured.out
        assert re.search(r"^\(\d+\.\d s\)$", captured.err, re.MULTILINE)
        assert f"wrote {path}" in captured.err

    def test_chunk_shots_flag_configures_default(self, chain2, capsys):
        from repro.circuits.schedule import schedule
        from repro.experiments.__main__ import main
        from repro.runtime import VectorizedBackend, configure, default_chunk_shots

        def engine_chunk(backend):
            scheduled = schedule(plus_circuit(0), chain2.durations)
            return backend._make_engine(scheduled, chain2, SimOptions()).chunk_shots

        previous = default_chunk_shots()
        backend = VectorizedBackend()  # constructed before configure():
        try:
            assert main(["fig9", "--quick", "--chunk-shots", "32"]) == 0
            assert default_chunk_shots() == 32
            # ... yet tracks the reconfigured default at engine build time.
            assert engine_chunk(backend) == 32
            assert VectorizedBackend(chunk_shots=8).chunk_shots == 8
            # 0 restores auto-sizing.
            assert main(["fig9", "--quick", "--chunk-shots", "0"]) == 0
            assert default_chunk_shots() is None
        finally:
            configure(chunk_shots=previous)

    def test_negative_chunk_shots_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig9", "--quick", "--chunk-shots", "-4"])

    def test_configure_validates_chunk_shots(self):
        from repro.runtime import configure, default_chunk_shots

        previous = default_chunk_shots()
        with pytest.raises(ValueError, match="chunk_shots"):
            configure(chunk_shots=0)
        assert default_chunk_shots() == previous
