"""Batched sounding (``sound_many``) vs per-beam ``sound`` parity.

The probing controller stacks its per-beam loops into one noiseless
response evaluation.  Noise, CFO, and fault-injection draws must stay in
the exact per-beam order of sequential sounding so every RNG stream is
preserved; the responses themselves match to the documented last-ulp
tolerance of the batched contractions (rtol 1e-12 here, far below any
physical noise floor).
"""

import numpy as np
import pytest

from repro.arrays.geometry import UniformLinearArray
from repro.arrays.steering import single_beam_weights
from repro.channel.geometric import GeometricChannel
from repro.channel.impairments import CfoSfoModel
from repro.channel.paths import Path
from repro.core.probing import ProbeController
from repro.faults import FaultInjector, FaultKind, FaultSpec, use_injector
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.reference_signals import ProbeBudget

ARRAY = UniformLinearArray(num_elements=16, spacing_wavelengths=0.5)
ANGLES = [0.2, -0.4, 0.05]


def make_channel():
    paths = (
        Path(aod_rad=0.2, aoa_rad=0.1, delay_s=10e-9, gain=0.9 + 0.1j),
        Path(aod_rad=-0.4, aoa_rad=0.3, delay_s=35e-9, gain=0.3 - 0.2j),
        Path(aod_rad=0.05, aoa_rad=-0.2, delay_s=60e-9, gain=0.1 + 0.2j),
    )
    return GeometricChannel(tx_array=ARRAY, paths=paths)


def make_sounder(seed=42, cfo=False):
    cfo_model = (
        CfoSfoModel(rng=np.random.default_rng(seed + 1)) if cfo else None
    )
    return ChannelSounder(
        config=OfdmConfig(),
        cfo_model=cfo_model,
        rng=np.random.default_rng(seed),
    )


def fresh_campaign(faults):
    """Scope a fresh injector (or none): each side draws its own streams."""
    injector = None
    if faults:
        injector = FaultInjector(
            specs=(
                FaultSpec(kind=FaultKind.PROBE_CORRUPTION, rate=0.5),
                FaultSpec(kind=FaultKind.STUCK_ELEMENTS, rate=0.3),
            ),
            seed=7,
        )
    return use_injector(injector)


def assert_estimates_match(batched, sequential):
    assert len(batched) == len(sequential)
    for ours, theirs in zip(batched, sequential):
        np.testing.assert_allclose(ours.csi, theirs.csi, rtol=1e-12)
        np.testing.assert_array_equal(
            ours.frequencies_hz, theirs.frequencies_hz
        )
        assert ours.time_s == theirs.time_s


class TestSoundMany:
    @pytest.mark.parametrize("cfo", [False, True])
    @pytest.mark.parametrize("faults", [False, True])
    def test_matches_sequential_sound(self, cfo, faults):
        weights = [single_beam_weights(ARRAY, a) for a in ANGLES]
        # Sequential reference: one sounder, probes in order.
        reference_sounder = make_sounder(cfo=cfo)
        channel = make_channel()
        with fresh_campaign(faults):
            sequential = [
                reference_sounder.sound(channel, w, time_s=0.001)
                for w in weights
            ]
        with fresh_campaign(faults):
            batched = make_sounder(cfo=cfo).sound_many(
                make_channel(), weights, time_s=0.001
            )
        assert_estimates_match(batched, sequential)

    def test_empty_list(self):
        assert make_sounder().sound_many(make_channel(), []) == []

    def test_rng_stream_consumed_identically(self):
        # After sounding the same probes, both sounders' RNGs must be in
        # the same state: the next draw from each is identical.
        weights = [single_beam_weights(ARRAY, a) for a in ANGLES]
        seq_sounder = make_sounder(cfo=True)
        channel = make_channel()
        for w in weights:
            seq_sounder.sound(channel, w)
        batch_sounder = make_sounder(cfo=True)
        batch_sounder.sound_many(make_channel(), weights)
        assert (
            seq_sounder.rng.standard_normal()
            == batch_sounder.rng.standard_normal()
        )
        assert (
            seq_sounder.cfo_model.rng.standard_normal()
            == batch_sounder.cfo_model.rng.standard_normal()
        )


class TestProbeControllerBatched:
    def _sequential_reference_powers(self, controller, channel, time_s=0.0):
        """The pre-batching implementation: one sound() call per beam."""
        powers = []
        for angle in ANGLES:
            weights = single_beam_weights(controller.array, float(angle))
            estimate = controller.sounder.sound(
                channel, weights, time_s=time_s
            )
            powers.append(np.abs(estimate.csi) ** 2)
        return powers

    def test_measure_reference_powers_matches_sequential(self):
        batched = ProbeController(
            array=ARRAY, sounder=make_sounder(cfo=True)
        ).measure_reference_powers(make_channel(), ANGLES)
        reference = self._sequential_reference_powers(
            ProbeController(array=ARRAY, sounder=make_sounder(cfo=True)),
            make_channel(),
        )
        for ours, theirs in zip(batched, reference):
            np.testing.assert_allclose(ours, theirs, rtol=1e-12)

    def test_budget_charged_once_per_beam(self):
        budget = ProbeBudget()
        ProbeController(
            array=ARRAY, sounder=make_sounder()
        ).measure_reference_powers(make_channel(), ANGLES, budget=budget)
        assert budget.total_probes() == len(ANGLES)

    def test_probe_relative_gains_deterministic_across_paths(self):
        # End-to-end: the full two-probe round through the batched
        # sounder is reproducible and estimates every beam.
        outcomes = [
            ProbeController(
                array=ARRAY, sounder=make_sounder(cfo=True)
            ).probe_relative_gains(make_channel(), ANGLES)
            for _ in range(2)
        ]
        assert outcomes[0].estimate == outcomes[1].estimate
        assert all(outcomes[0].valid)
        assert outcomes[0].estimate.num_probes == len(ANGLES) + 2 * (
            len(ANGLES) - 1
        )
