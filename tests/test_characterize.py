"""Characterization (simulated calibration) tests."""


import pytest

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
def quiet_options():
    return SimOptions(
        shots=1, stochastic=False, dephasing=False, amplitude_damping=False,
        gate_errors=False, seed=0,
    )


class TestZZMeasurement:
    def test_recovers_true_rate(self, device, quiet_options):
        measurement = measure_zz_rate(device, 0, 1, options=quiet_options)
        assert measurement.rate == pytest.approx(
            device.zz_rate(0, 1), rel=0.02
        )
        assert measurement.phase_residual < 0.01

    def test_second_edge(self, device, quiet_options):
        measurement = measure_zz_rate(device, 1, 2, options=quiet_options)
        assert measurement.rate == pytest.approx(
            device.zz_rate(1, 2), rel=0.02
        )

    def test_with_stochastic_noise_still_close(self, device):
        options = SimOptions(
            shots=256, seed=33, dephasing=False, amplitude_damping=False,
            gate_errors=False,
        )
        measurement = measure_zz_rate(device, 0, 1, options=options)
        assert measurement.rate == pytest.approx(
            device.zz_rate(0, 1), rel=0.15
        )


class TestCharacterizedCompilation:
    def test_characterize_device_installs_measured_rates(self, device, quiet_options):
        estimated = characterize_device(device, options=quiet_options)
        for a, b in device.pairs:
            assert estimated.zz_rate(a, b) == pytest.approx(
                device.zz_rate(a, b), rel=0.02
            )

    def test_ca_ec_with_measured_calibration(self, device, quiet_options):
        """Compensation from *measured* rates performs like the oracle."""
        estimated = characterize_device(device, options=quiet_options)
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
            device,
            options=quiet_options,
        )
        for key in obs:
            assert got_oracle[key] == pytest.approx(ideal[key], abs=1e-7)
            assert got_measured[key] == pytest.approx(ideal[key], abs=5e-3)
