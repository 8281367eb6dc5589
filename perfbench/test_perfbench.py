"""Tests for the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.runtime import default_backend, default_dist_inner  # noqa: E402
from repro.runtime.backends import VectorizedBackend  # noqa: E402
from repro.runtime.sweep import Sweep  # noqa: E402

_TINY_FIG3 = {"depths": (0, 2), "shots": 4, "realizations": 2}
TINY = {
    "ramsey": replace(workloads.WORKLOADS["ramsey"], params=_TINY_FIG3),
    "heisenberg": replace(
        workloads.WORKLOADS["heisenberg"],
        params={"num_qubits": 6, "steps": (0, 1), "shots": 2, "realizations": 2},
    ),
    "ramsey-sharded": replace(workloads.WORKLOADS["ramsey-sharded"], params=_TINY_FIG3),
}


def _span(span_id, parent, start, end):
    return spans.Span(span_id, parent, "layer", start, end, pass_id=1)


def test_self_time_is_the_span_minus_the_children_it_covers():
    # Children [1, 3] and [2, 5] overlap; [9, 12] sticks out of its parent.
    own = spans.self_times(
        [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 2.0, 5.0),
            _span(3, 0, 9.0, 12.0),
            _span(4, 1, 1.5, 2.5),
        ]
    )
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def _pass(workload, slot=0):
    with workloads.pinned(workload):
        return workload.run_pass(slot)


def _digests(result):
    return [workloads.point_digest(p) for p in workloads.points(result)]


def test_a_digest_mismatch_counts_as_a_failed_point():
    workload = TINY["ramsey"]
    result = _pass(workload)
    good = _digests(result)
    clean = workloads.check(workload, 0, result, {"ramsey": {"0": good}})
    assert (clean.attempted, clean.failed, clean.problems) == (len(good), 0, [])
    flipped = ["0" * 16] + good[1:]
    outcome = workloads.check(workload, 0, result, {"ramsey": {"0": flipped}})
    assert (outcome.attempted, outcome.failed) == (len(good), 1)
    assert outcome.problems
    raised = workloads.check(workload, 0, None, {"ramsey": {"0": good}})
    assert raised.failed == raised.attempted == len(good)


def _attribute(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_removing_the_wrappers_restores_every_patched_attribute():
    targets = layers.targets()
    found = [(owner, attr, _attribute(owner, attr)) for owner, attr, _name, _hook in targets]
    patches = spans.install(spans.Recorder(), targets)
    try:
        assert all(_attribute(o, a) is not original for o, a, original in found)
    finally:
        spans.remove(patches)
    assert all(_attribute(o, a) is original for o, a, original in found)
    assert "execute_plans" not in vars(VectorizedBackend)


def test_a_failed_install_leaves_nothing_patched():
    original = vars(Sweep)["run"]
    inherited = (VectorizedBackend, "execute_plans", "backend.exec", None)
    with pytest.raises(AttributeError):
        spans.install(spans.Recorder(), [(Sweep, "run", "sweep", None), inherited])
    assert vars(Sweep)["run"] is original


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_never_changes_a_value(name):
    workload = TINY[name]
    untraced = _digests(_pass(workload))
    recorder = spans.Recorder()
    patches = spans.install(recorder, layers.targets())
    try:
        with recorder.span("driver"):
            traced = _digests(_pass(workload))
    finally:
        spans.remove(patches)
    assert traced == untraced
    stats = spans.layer_stats(recorder.spans)
    assert stats["dist.pool" if workload.dist_inner else "sim.sample"].calls > 0
    # The untraced pass left plans in the cache; a cold pass must not hit them.
    assert recorder.counters[0]["plan.cache_hits"] == 0
    # Layer self times add up to the root span, so the table accounts for the wall.
    assert sum(s.self_s for s in stats.values()) == pytest.approx(stats["driver"].total_s)


def test_a_count_that_does_not_repeat_is_reported():
    first = {name: 1.0 for name in layers.METRICS}
    second = dict(first, **{"sim.shots_sampled": 2.0})
    _metrics, problems = layers.summarize([first, second], untraced_wall=1.0)
    assert len(problems) == 1 and "sim.shots_sampled" in problems[0]


def test_each_input_set_counts_its_median_pass_once():
    # Passes over sets 2 and 0 in turn: set 2 took 3.0, 2.5, 4.0; set 0 took 2.0, 5.0, 1.5.
    walls = [3.0, 2.0, 2.5, 5.0, 4.0, 1.5]
    assert run.median_per_set(walls, [2, 0]) == pytest.approx((3.0 + 2.0) / 2)


def test_a_time_is_scaled_by_the_mean_speed_the_probes_show():
    with speed.sampled() as samples:
        time.sleep(0.2)
    assert len(samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Half the block at the reference speed, half at half of it: 3/4 of the speed on average.
    probes = [speed.REFERENCE_PROBE_S * f for f in (1.0, 2.0)]
    assert speed.scale(4.0, probes) == pytest.approx(3.0)


def test_pinning_a_workload_restores_the_runtime_defaults():
    before = workloads.runtime_defaults()
    with pytest.raises(RuntimeError):
        with workloads.pinned(workloads.WORKLOADS["ramsey-sharded"]):
            assert (default_backend(), default_dist_inner()) == ("distributed", "vectorized")
            raise RuntimeError("the workload failed")
    assert workloads.runtime_defaults() == before


def test_the_benchmark_refuses_a_tree_without_library_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "ramsey", "--seed", "0", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    recorded = json.loads(run.DIGESTS.read_text())
    for name in ("ramsey", "heisenberg"):
        assert sorted(map(int, recorded[name])) == list(range(workloads.SLOTS))
