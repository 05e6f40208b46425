"""Tests for multi-gNB handover (Fig. 9's last resort)."""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.beamtraining import ExhaustiveTrainer
from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.core.handover import MultiGnbManager
from repro.core.maintenance import MultiBeamManager
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.scenarios import SyntheticScenario, two_path_channel


ARRAY = UniformLinearArray(num_elements=8)


def make_single_manager(seed):
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64), rng=seed
    )
    trainer = ExhaustiveTrainer(
        codebook=uniform_codebook(ARRAY, 33), sounder=sounder
    )
    return MultiBeamManager(
        array=ARRAY, sounder=sounder, trainer=trainer, num_beams=2
    )


def make_multi_gnb(seed=0, **overrides):
    return MultiGnbManager(
        managers=[make_single_manager(seed), make_single_manager(seed + 50)],
        **overrides,
    )


def dual_scenarios(block_serving=True):
    """Two gNBs: the first (stronger, 7 m) and a backup (10 m).

    Optionally both paths of the serving gNB get blocked at 0.1 s for
    0.3 s — the unrecoverable case handover exists for.
    """
    serving_events = ()
    if block_serving:
        serving_events = tuple(
            BlockageEvent(path_index=k, start_s=0.1, duration_s=0.3,
                          depth_db=40.0)
            for k in range(2)
        )
    serving = SyntheticScenario(
        base_channel=two_path_channel(ARRAY, distance_m=7.0),
        blockage=BlockageSchedule(events=serving_events),
    )
    backup = SyntheticScenario(
        base_channel=two_path_channel(ARRAY, distance_m=10.0, sigma_rad=0.3),
    )
    return serving, backup


class TestEstablish:
    def test_serves_on_strongest(self):
        manager = make_multi_gnb()
        serving, backup = dual_scenarios(block_serving=False)
        channels = [serving.channel_at(0.0), backup.channel_at(0.0)]
        manager.establish(channels)
        assert manager.serving_index == 0  # the 7 m gNB is stronger

    def test_validation(self):
        with pytest.raises(ValueError, match="two gNBs"):
            MultiGnbManager(managers=[make_single_manager(0)])
        manager = make_multi_gnb()
        with pytest.raises(ValueError):
            manager.establish([dual_scenarios()[0].channel_at(0.0)])


class TestHandover:
    def run(self, manager, duration=0.6):
        serving, backup = dual_scenarios()
        manager.establish(
            [serving.channel_at(0.0), backup.channel_at(0.0)]
        )
        history = []
        for t in np.arange(0.005, duration, 0.005):
            channels = [
                serving.channel_at(float(t)), backup.channel_at(float(t))
            ]
            action = manager.step(channels, float(t))
            history.append((float(t), action, manager.link_snr_db(channels)))
        return history

    def test_hands_over_on_total_blockage(self):
        manager = make_multi_gnb()
        history = self.run(manager)
        assert manager.handover_count >= 1
        handover_times = [
            t for t, action, _ in history if action == "handover"
        ]
        # Blockage starts at 0.1; handover follows within ~50 ms.
        assert handover_times[0] == pytest.approx(0.11, abs=0.05)

    def test_link_survives_on_backup(self):
        manager = make_multi_gnb()
        history = self.run(manager)
        # Once on the backup gNB the link is healthy for the rest of the
        # serving outage.
        post = [snr for t, r, snr in history if 0.2 <= t <= 0.35]
        assert np.all(np.asarray(post) > OUTAGE_SNR_DB)

    def test_handover_windows_recorded(self):
        manager = make_multi_gnb(handover_latency_s=30e-3)
        self.run(manager)
        assert len(manager.handover_windows) == manager.handover_count
        start, duration = manager.handover_windows[0]
        assert duration == pytest.approx(30e-3)
        # Handover interruptions surface in the combined windows.
        assert (start, duration) in manager.training_windows

    def test_no_ping_pong_on_healthy_link(self):
        manager = make_multi_gnb()
        serving, backup = dual_scenarios(block_serving=False)
        manager.establish(
            [serving.channel_at(0.0), backup.channel_at(0.0)]
        )
        for t in np.arange(0.005, 0.5, 0.005):
            channels = [
                serving.channel_at(float(t)), backup.channel_at(float(t))
            ]
            manager.step(channels, float(t))
        assert manager.handover_count == 0

    def test_hysteresis_blocks_marginal_switch(self):
        # The backup being merely comparable (not better by the margin)
        # must not trigger a handover.
        manager = make_multi_gnb(hysteresis_db=20.0)
        serving, backup = dual_scenarios(block_serving=False)
        manager.establish(
            [serving.channel_at(0.0), backup.channel_at(0.0)]
        )
        for t in np.arange(0.005, 0.3, 0.005):
            channels = [
                serving.channel_at(float(t)), backup.channel_at(float(t))
            ]
            manager.step(channels, float(t))
        assert manager.serving_index == 0
        assert manager.handover_count == 0
