"""Constrained graph-coloring tests (Algorithm 1, ColorGraph)."""

from repro.compiler.coloring import (
    CONTROL_COLOR,
    TARGET_COLOR,
    color_idle_group,
    colors_used,
)
from repro.device import Topology, linear_chain


class TestBasicColoring:
    def test_isolated_qubit_gets_lowest_color(self):
        g = Topology(1, [])
        result = color_idle_group([0], g)
        assert result.colors[0] == 1

    def test_adjacent_idles_differ(self):
        result = color_idle_group([0, 1, 2], linear_chain(3))
        assert result.colors[0] != result.colors[1]
        assert result.colors[1] != result.colors[2]
        assert result.conflicts == []

    def test_chain_uses_two_colors(self):
        result = color_idle_group(range(6), linear_chain(6))
        assert colors_used(result) == 2

    def test_triangle_needs_three_colors(self):
        g = Topology(3, [(0, 1), (1, 2), (0, 2)])
        result = color_idle_group([0, 1, 2], g)
        assert colors_used(result) == 3
        assert result.conflicts == []


class TestPinnedConstraints:
    def test_control_spectator_avoids_control_color(self):
        """Paper Sec. IV A: the control's spectator must not share color 1."""
        g = linear_chain(2)
        result = color_idle_group([0], g, pinned={1: CONTROL_COLOR})
        assert result.colors[0] != CONTROL_COLOR

    def test_target_spectator_avoids_target_color(self):
        g = linear_chain(2)
        result = color_idle_group([0], g, pinned={1: TARGET_COLOR})
        assert result.colors[0] != TARGET_COLOR

    def test_spectator_between_control_and_target(self):
        # idle qubit 1 between a control (0) and a target (2).
        g = linear_chain(3)
        result = color_idle_group(
            [1], g, pinned={0: CONTROL_COLOR, 2: TARGET_COLOR}
        )
        assert result.colors[1] not in (CONTROL_COLOR, TARGET_COLOR)
        assert result.colors[1] == 3  # lowest legal color

    def test_adjacent_pinned_controls_reported_as_conflict(self):
        """Case IV: two adjacent controls share color 1 -> conflict."""
        g = linear_chain(2)
        result = color_idle_group(
            [], g, pinned={0: CONTROL_COLOR, 1: CONTROL_COLOR}
        )
        assert (0, 1) in result.conflicts

    def test_constrained_qubits_colored_first(self):
        """Greedy order starts at qubits constrained by pinned neighbors."""
        g = linear_chain(4)
        result = color_idle_group([1, 2, 3], g, pinned={0: CONTROL_COLOR})
        # Qubit 1 (next to the pin) should receive the lowest non-1 color.
        assert result.colors[1] == 2

    def test_assigned_excludes_pinned(self):
        g = linear_chain(2)
        result = color_idle_group([0], g, pinned={1: CONTROL_COLOR})
        assert result.assigned == [0]


class TestExhaustion:
    def test_color_exhaustion_falls_back_with_conflict(self):
        """With bins=2 only color 1 exists; a pair must conflict."""
        g = linear_chain(2)
        result = color_idle_group([0, 1], g, bins=2)
        assert result.conflicts  # unavoidable
