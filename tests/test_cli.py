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
            ["--dist-serve", "nonsense"],
            ["--dist-connect", "broken"],
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
        good = (
            "--workers 3 --backend trajectory --chunk-shots 16 "
            "--dist-workers 2 --dist-shard-size 5"
        ).split()
        with pytest.raises(SystemExit):
            main(["list", *good, *bad])
        assert [get() for get in getters] == before
