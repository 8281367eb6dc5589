"""Coherent accumulation tests (paper eqs. 1-3)."""

from dataclasses import replace

import pytest

from repro.circuits import Circuit
from repro.device import linear_chain, synthetic_device
from repro.sim.coherent import accumulate_coherent
from repro.sim.timeline import build_timeline
from repro.utils.units import TWO_PI


@pytest.fixture
def device():
    return synthetic_device(linear_chain(3), seed=77)


def timeline_for(circ, num_qubits, duration):
    return build_timeline(circ.moments[0], num_qubits, duration)


def without_gate_stark(device):
    """A copy of ``device`` whose gate drives induce no Stark shift."""
    pairs = {
        edge: replace(params, stark_on_first=0.0, stark_on_second=0.0)
        for edge, params in device.pairs.items()
    }
    return replace(device, pairs=pairs)


class TestIdlePair:
    def test_u11_structure(self, device):
        """Idle pair: zz = +theta, z = -theta each (paper eq. 2)."""
        circ = Circuit(2)
        circ.delay(500.0, 0)
        circ.delay(500.0, 1)
        dev = device.subdevice([0, 1])
        tl = timeline_for(circ, 2, 500.0)
        acc = accumulate_coherent(tl, dev)
        theta = TWO_PI * dev.zz_rate(0, 1) * 500.0
        assert acc.zz[(0, 1)] == pytest.approx(theta)
        assert acc.z[0] == pytest.approx(-theta)
        assert acc.z[1] == pytest.approx(-theta)

    def test_zero_duration_no_error(self, device):
        circ = Circuit(2)
        circ.rz(0.1, 0)
        tl = timeline_for(circ, 2, 0.0)
        acc = accumulate_coherent(tl, device.subdevice([0, 1]))
        assert acc.is_negligible()


class TestGateContexts:
    def test_gate_pair_zz_skipped(self, device):
        circ = Circuit(2)
        circ.ecr(0, 1)
        tl = timeline_for(circ, 2, 500.0)
        acc = accumulate_coherent(tl, device.subdevice([0, 1]))
        assert (0, 1) not in acc.zz

    def test_control_spectator_zz_refocused(self, device):
        """Case II: echo flips the control -> spectator ZZ integrates to 0."""
        circ = Circuit(3)
        circ.ecr(1, 2)
        tl = timeline_for(circ, 3, 500.0)
        acc = accumulate_coherent(tl, without_gate_stark(device))
        assert acc.zz.get((0, 1), 0.0) == pytest.approx(0.0, abs=1e-12)
        # ...but the spectator's local Z from the coupling survives.
        assert abs(acc.z[0]) > 0.0

    def test_stark_shift_added_for_spectator(self, device):
        circ = Circuit(3)
        circ.ecr(1, 2)
        tl = timeline_for(circ, 3, 500.0)
        with_stark = accumulate_coherent(tl, device)
        without = accumulate_coherent(tl, without_gate_stark(device))
        shift = TWO_PI * device.stark_shift(1, 0) * 500.0
        assert with_stark.z[0] - without.z[0] == pytest.approx(shift)

    def test_measured_qubit_starks_neighbors(self, device):
        circ = Circuit(2, num_clbits=1)
        circ.measure(0, 0)
        tl = timeline_for(circ, 2, 4000.0)
        acc = accumulate_coherent(tl, device.subdevice([0, 1]))
        dev = device.subdevice([0, 1])
        expected = TWO_PI * dev.qubit(0).measure_stark * 4000.0
        # Neighbor 1's Z includes the coupling part and the readout Stark.
        coupling = -TWO_PI * dev.zz_rate(0, 1) * 4000.0
        assert acc.z[1] == pytest.approx(coupling + expected)


class TestToggles:
    def test_accumulation_helpers(self):
        from repro.sim.coherent import CoherentAccumulation

        acc = CoherentAccumulation()
        acc.add_z(0, 0.1)
        acc.add_z(0, 0.2)
        acc.add_zz(1, 0, 0.3)
        assert acc.z[0] == pytest.approx(0.3)
        assert acc.zz[(0, 1)] == pytest.approx(0.3)
        assert not acc.is_negligible()
