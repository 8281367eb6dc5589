"""CLI runner tests."""

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig9", "table1"):
            assert name in out

    def test_registry_covers_all_figures(self):
        assert set(EXPERIMENTS) == {
            "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "table1"
        }

    def test_quick_fig9(self, capsys):
        assert main(["fig9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "bare fidelity" in out
        assert "peak" in out

    def test_quick_table1(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Slow Z" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_backend_flag_selects_vectorized(self, capsys):
        from repro.runtime.run import configure, default_backend, default_workers

        prev_backend, prev_workers = default_backend(), default_workers()
        try:
            configure(backend="trajectory")
            assert main(["fig3", "--quick", "--backend", "vectorized"]) == 0
            assert default_backend() == "vectorized"
            assert "case1_idle_pair" in capsys.readouterr().out
        finally:
            configure(workers=prev_workers, backend=prev_backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--quick", "--backend", "warp-drive"])

    @pytest.mark.parametrize(
        "bad",
        [
            ["--workers", "0"],
            ["--dist-workers", "0"],
            ["--backend", "warp-drive"],
            ["--chunk-shots", "-4"],
            ["--dist-shard-size", "0"],
        ],
    )
    def test_rejected_flag_changes_no_default(self, bad):
        """Valid flags given alongside a bad one must not be applied."""
        import repro.runtime as rt

        getters = [getattr(rt, name) for name in rt.__all__ if name.startswith("default_")]
        before = [get() for get in getters]
        good = "--workers 3 --backend trajectory --dist-workers 2".split()
        with pytest.raises(SystemExit):
            main(["list", *good, *bad])
        assert [get() for get in getters] == before


@pytest.fixture
def restore_defaults():
    """Put every runtime default back after a test that passes CLI flags."""
    import repro.runtime as rt

    settings = ("workers", "backend", "dist_workers")
    before = {name: getattr(rt, f"default_{name}")() for name in settings}
    yield
    rt.configure(**before)


class TestResultsAreValues:
    """The --json file is a function of the seeds and inputs alone."""

    def _fig9_json(self, tmp_path, *flags):
        path = tmp_path / ("fig9" + "".join(flags).replace("-", "_") + ".json")
        assert main(["fig9", "--quick", "--json", str(path), *flags]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--workers", "1"], ["--workers", "2"]),
            (["--backend", "trajectory"], ["--backend", "vectorized"]),
        ],
        ids=["workers", "backend"],
    )
    def test_fig9_json_byte_identical(
        self, tmp_path, restore_defaults, first, second
    ):
        assert self._fig9_json(tmp_path, *first) == self._fig9_json(
            tmp_path, *second
        )
