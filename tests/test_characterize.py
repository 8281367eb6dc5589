"""Characterization (simulated calibration) tests."""


import pytest

from conftest import keep_only
from repro.benchmarking import characterize_device, measure_zz_rate
from repro.circuits import Circuit
from repro.compiler import apply_ca_ec
from repro.device import linear_chain, synthetic_device
from repro.runtime import Task, run
from repro.sim import SimOptions


@pytest.fixture
def device():
    return synthetic_device(linear_chain(3), seed=71)


@pytest.fixture
def quiet(device):
    """``device`` without slow detunings: one shot measures exactly."""
    return keep_only(device, "coherent")


class TestZZMeasurement:
    def test_recovers_true_rate(self, quiet, one_shot):
        measurement = measure_zz_rate(quiet, 0, 1, options=one_shot)
        assert measurement.rate == pytest.approx(
            quiet.zz_rate(0, 1), rel=0.02
        )
        assert measurement.phase_residual < 0.01

    def test_second_edge(self, quiet, one_shot):
        measurement = measure_zz_rate(quiet, 1, 2, options=one_shot)
        assert measurement.rate == pytest.approx(
            quiet.zz_rate(1, 2), rel=0.02
        )

    def test_with_stochastic_noise_still_close(self, device):
        # The protocol itself drops idle decay and gate errors; the slow
        # detunings of ``device`` remain.
        options = SimOptions(shots=256, seed=33)
        measurement = measure_zz_rate(device, 0, 1, options=options)
        assert measurement.rate == pytest.approx(
            device.zz_rate(0, 1), rel=0.15
        )

    def test_measures_without_decay_or_gate_errors(self, device):
        """The protocol runs on its quiet copy of the device: adding decay
        and gate errors to the input leaves the estimate unchanged."""
        noisier = device.with_params(t1=1e3, t2=1e3, p1=0.1, p2=0.2)
        options = SimOptions(shots=16, seed=5)
        assert measure_zz_rate(noisier, 0, 1, options=options) == measure_zz_rate(
            device, 0, 1, options=options
        )


class TestCharacterizedCompilation:
    def test_characterize_device_installs_measured_rates(self, device, quiet, one_shot):
        estimated = characterize_device(quiet, options=one_shot)
        for a, b in device.pairs:
            assert estimated.zz_rate(a, b) == pytest.approx(
                device.zz_rate(a, b), rel=0.02
            )

    def test_keeps_the_callers_noise(self, device):
        """The estimate is the caller's device with measured ZZ rates, not
        the protocol's quiet copy."""
        estimated = characterize_device(device, edges=[(0, 1)], times=(200.0, 400.0))
        assert estimated.qubits == device.qubits
        assert estimated.pair(1, 2) == device.pair(1, 2)
        assert estimated.pair(0, 1).p2 == device.pair(0, 1).p2
        assert estimated.zz_rate(0, 1) != device.zz_rate(0, 1)

    def test_ca_ec_with_measured_calibration(self, device, quiet, one_shot):
        """Compensation from *measured* rates performs like the oracle."""
        estimated = characterize_device(quiet, options=one_shot)
        circ = Circuit(3)
        circ.h(0)
        circ.h(1)
        circ.delay(700.0, 0, new_moment=True)
        circ.delay(700.0, 1)
        circ.append_moment([])
        oracle, _ = apply_ca_ec(circ, device)
        measured, _ = apply_ca_ec(circ, estimated)
        obs = {"x0": "IIX", "x1": "IXI"}
        ideal, got_oracle, got_measured = run(
            [
                Task(circ, observables=obs, device=device.ideal()),
                Task(oracle, observables=obs),
                Task(measured, observables=obs),
            ],
            quiet,
            options=one_shot,
        )
        for key in obs:
            assert got_oracle[key] == pytest.approx(ideal[key], abs=1e-7)
            assert got_measured[key] == pytest.approx(ideal[key], abs=5e-3)
