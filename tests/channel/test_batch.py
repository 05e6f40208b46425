"""Tests for batched channel evaluation (``repro.channel.batch``).

The batch protocol's contract: each row of a :class:`ChannelBatch` must
reproduce the corresponding per-sample :class:`GeometricChannel` — path
parameters bitwise, beamformed responses to the documented 1e-9
contraction tolerance.
"""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray
from repro.arrays.steering import single_beam_weights, steering_vector
from repro.channel.batch import ChannelBatch, batch_from_channels
from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.channel.geometric import GeometricChannel
from repro.channel.paths import Path
from repro.sim.scenarios import indoor_two_path_scenario

ARRAY = UniformLinearArray(num_elements=8)
FREQS = np.linspace(-200e6, 200e6, 64)


@pytest.fixture
def scenario():
    schedule = BlockageSchedule(
        events=(
            BlockageEvent(
                start_s=0.03,
                duration_s=0.04,
                depth_db=25.0,
                ramp_s=0.01,
                path_index=0,
            ),
        )
    )
    return indoor_two_path_scenario(
        ARRAY, translation_speed_mps=2.0, blockage=schedule
    )


class TestChannelBatchConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            ChannelBatch(
                tx_array=ARRAY,
                times_s=np.zeros((2, 2)),
                aods_rad=np.zeros((2, 2)),
                gains=np.zeros((2, 2)),
                delays_s=np.zeros((2, 2)),
            )
        with pytest.raises(ValueError, match="shape"):
            ChannelBatch(
                tx_array=ARRAY,
                times_s=np.zeros(3),
                aods_rad=np.zeros((3, 2)),
                gains=np.zeros((3, 3)),
                delays_s=np.zeros((3, 2)),
            )

    def test_len_and_num_paths(self, scenario):
        batch = scenario.channel_batch(np.arange(0.0, 0.01, 1e-3))
        assert len(batch) == 10
        assert batch.num_paths == 2


class TestBatchMatchesPerSample:
    def test_parameters_bitwise_identical(self, scenario):
        times = np.arange(0.0, 0.1, 1e-3)
        batch = scenario.channel_batch(times)
        for i, t in enumerate(times):
            channel = scenario.channel_at(float(t))
            np.testing.assert_array_equal(batch.aods_rad[i], channel.aods())
            np.testing.assert_array_equal(batch.gains[i], channel.gains())
            np.testing.assert_array_equal(
                batch.delays_s[i], channel.delays()
            )

    def test_frequency_response_tolerance(self, scenario):
        times = np.arange(0.0, 0.1, 1e-3)
        weights = single_beam_weights(ARRAY, 0.1)
        batch = scenario.channel_batch(times)
        responses = batch.frequency_response(weights, FREQS)
        for i, t in enumerate(times):
            expected = scenario.channel_at(float(t)).frequency_response(
                weights, FREQS
            )
            np.testing.assert_allclose(responses[i], expected, rtol=1e-9)

    def test_phase_drift_applied(self):
        base = indoor_two_path_scenario(ARRAY)
        drifting = type(base)(
            base_channel=base.base_channel,
            angular_rates_rad_s=base.angular_rates_rad_s,
            phase_drift_rad_s=(40.0, -15.0),
            blockage=base.blockage,
        )
        times = np.arange(0.0, 0.05, 1e-3)
        batch = drifting.channel_batch(times)
        for i, t in enumerate(times):
            # The drift rotation itself is bitwise-identical, but the
            # complex gain*rotation multiply runs through numpy's array
            # loop (which may fuse multiply-adds) instead of the scalar
            # multiply — a documented last-ulp difference.
            np.testing.assert_allclose(
                batch.gains[i],
                drifting.channel_at(float(t)).gains(),
                rtol=1e-13,
            )

    def test_channel_at_index_round_trip(self, scenario):
        times = np.arange(0.0, 0.01, 1e-3)
        batch = scenario.channel_batch(times)
        weights = single_beam_weights(ARRAY, 0.0)
        materialized = batch.channel_at_index(4)
        np.testing.assert_allclose(
            materialized.frequency_response(weights, FREQS),
            batch.frequency_response(weights, FREQS)[4],
            rtol=1e-9,
        )


class TestSlicingAndPrecompute:
    def test_sliced_is_view(self, scenario):
        batch = scenario.channel_batch(np.arange(0.0, 0.02, 1e-3))
        view = batch.sliced(5, 12)
        assert len(view) == 7
        np.testing.assert_array_equal(view.times_s, batch.times_s[5:12])
        assert view.aods_rad.base is not None

    def test_precompute_preserves_response(self, scenario):
        times = np.arange(0.0, 0.02, 1e-3)
        weights = single_beam_weights(ARRAY, 0.2)
        plain = scenario.channel_batch(times)
        primed = scenario.channel_batch(times).precompute(FREQS)
        np.testing.assert_array_equal(
            primed.frequency_response(weights, FREQS),
            plain.frequency_response(weights, FREQS),
        )

    def test_sliced_propagates_precompute(self, scenario):
        times = np.arange(0.0, 0.02, 1e-3)
        weights = single_beam_weights(ARRAY, 0.2)
        primed = scenario.channel_batch(times).precompute(FREQS)
        view = primed.sliced(3, 9)
        assert getattr(view, "_freqs", None) is not None
        np.testing.assert_array_equal(
            view.frequency_response(weights, FREQS),
            primed.frequency_response(weights, FREQS)[3:9],
        )

    @staticmethod
    def full_tensor_response(batch, weights):
        """The response through a per-sample ``(T, F, L)`` rotation."""
        rotation = np.exp(
            -2j * np.pi * FREQS[None, :, None] * batch.delays_s[:, None, :]
        )
        a = steering_vector(ARRAY, batch.aods_rad)
        alphas = batch.gains * (a @ weights)
        return (rotation @ alphas[:, :, None])[:, :, 0]

    def test_constant_delays_broadcast_one_rotation_row(self, scenario):
        times = np.arange(0.0, 0.05, 1e-3)
        weights = single_beam_weights(ARRAY, 0.2)
        batch = scenario.channel_batch(times)
        assert np.all(batch.delays_s == batch.delays_s[:1])
        primed = batch.precompute(FREQS)
        assert primed._rotation.shape == (len(times), FREQS.size, 2)
        assert primed._rotation.strides[0] == 0
        expected = self.full_tensor_response(batch, weights)
        np.testing.assert_array_equal(
            primed.frequency_response(weights, FREQS), expected
        )
        view = primed.sliced(7, 31)
        assert view._rotation.strides[0] == 0
        np.testing.assert_array_equal(
            view.frequency_response(weights, FREQS), expected[7:31]
        )

    def test_time_varying_delays_build_the_full_tensor(self):
        channels = [
            GeometricChannel(
                tx_array=ARRAY,
                paths=(
                    Path(aod_rad=0.1, gain=1.0 + 0j, delay_s=20e-9 + i * 1e-10),
                    Path(aod_rad=0.5, gain=0.3j, delay_s=22e-9),
                ),
            )
            for i in range(6)
        ]
        weights = single_beam_weights(ARRAY, 0.2)
        primed = batch_from_channels(channels).precompute(FREQS)
        assert primed._rotation.strides[0] != 0
        np.testing.assert_array_equal(
            primed.frequency_response(weights, FREQS),
            self.full_tensor_response(primed, weights),
        )

    def test_precompute_is_idempotent_per_grid(self, scenario):
        batch = scenario.channel_batch(np.arange(0.0, 0.01, 1e-3))
        steering = batch.precompute(FREQS)._steering
        # The same grid, by identity or by value, keeps the tensors.
        assert batch.precompute(FREQS)._steering is steering
        assert batch.precompute(FREQS.copy())._steering is steering
        other = np.linspace(-50e6, 50e6, 16)
        assert batch.precompute(other)._steering is not steering
        assert batch._rotation.shape == (10, 16, 2)

    def test_other_grid_bypasses_precompute(self, scenario):
        times = np.arange(0.0, 0.01, 1e-3)
        weights = single_beam_weights(ARRAY, 0.2)
        primed = scenario.channel_batch(times).precompute(FREQS)
        other = np.linspace(-50e6, 50e6, 16)
        fresh = scenario.channel_batch(times)
        np.testing.assert_array_equal(
            primed.frequency_response(weights, other),
            fresh.frequency_response(weights, other),
        )


class TestBatchFromChannels:
    def channels(self, count=4):
        return [
            GeometricChannel(
                tx_array=ARRAY,
                paths=(
                    Path(aod_rad=0.1 * i, gain=1.0 + 0j, delay_s=20e-9),
                    Path(aod_rad=0.5, gain=0.3j, delay_s=22e-9),
                ),
            )
            for i in range(count)
        ]

    def test_stacks_uniform_channels(self):
        channels = self.channels()
        batch = batch_from_channels(channels)
        assert batch is not None and len(batch) == 4
        weights = single_beam_weights(ARRAY, 0.0)
        for i, channel in enumerate(channels):
            np.testing.assert_allclose(
                batch.frequency_response(weights, FREQS)[i],
                channel.frequency_response(weights, FREQS),
                rtol=1e-9,
            )

    def test_rejects_empty(self):
        assert batch_from_channels([]) is None

    def test_rejects_differing_path_counts(self):
        channels = self.channels(2)
        channels.append(
            GeometricChannel(
                tx_array=ARRAY,
                paths=(Path(aod_rad=0.0, gain=1.0 + 0j),),
            )
        )
        assert batch_from_channels(channels) is None

    def test_rejects_directional_ue(self):
        directional = GeometricChannel(
            tx_array=ARRAY,
            paths=self.channels(1)[0].paths,
            rx_array=UniformLinearArray(num_elements=4),
        )
        assert batch_from_channels([directional]) is None


class TestBlockageBatch:
    def test_event_batch_matches_scalar(self):
        event = BlockageEvent(
            start_s=0.2, duration_s=0.4, depth_db=30.0, ramp_s=0.1, path_index=0
        )
        times = np.linspace(0.0, 0.8, 161)
        batched = event.attenuation_db_batch(times)
        scalar = np.array([event.attenuation_db(float(t)) for t in times])
        np.testing.assert_array_equal(batched, scalar)

    def test_hard_event_batch_matches_scalar(self):
        event = BlockageEvent(
            start_s=0.2, duration_s=0.4, depth_db=30.0, ramp_s=0.0, path_index=1
        )
        times = np.linspace(0.0, 0.8, 161)
        np.testing.assert_array_equal(
            event.attenuation_db_batch(times),
            np.array([event.attenuation_db(float(t)) for t in times]),
        )

    def test_schedule_batch_matches_scalar(self):
        schedule = BlockageSchedule(
            events=(
                BlockageEvent(
                    start_s=0.1, duration_s=0.2, depth_db=20.0, ramp_s=0.05,
                    path_index=0,
                ),
                BlockageEvent(
                    start_s=0.2, duration_s=0.3, depth_db=10.0, ramp_s=0.0,
                    path_index=1,
                ),
                BlockageEvent(
                    start_s=0.0, duration_s=1.0, depth_db=5.0, ramp_s=0.0,
                    path_index=7,  # beyond num_paths: must be skipped
                ),
            )
        )
        times = np.linspace(0.0, 0.6, 121)
        batched = schedule.amplitude_factors_batch(times, num_paths=2)
        for i, t in enumerate(times):
            np.testing.assert_array_equal(
                batched[i], schedule.amplitude_factors(float(t), 2)
            )
