"""Tests for scenarios, the link simulator, and ensemble execution."""

from functools import partial

import numpy as np
import pytest

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.baselines import OracleBeam
from repro.beamtraining import ExhaustiveTrainer
from repro.channel.blockage import (
    BlockageEvent,
    BlockageSchedule,
    random_blockage_schedule,
)
from repro.channel.mobility import LinearTrajectory
from repro.core.maintenance import MultiBeamManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.link import LinkSimulator, build_link_simulator
from repro.sim.executor import EnsembleSpec, EnsembleSummary, execute_ensemble
from repro.sim.scenarios import (
    GeometricScenario,
    SyntheticScenario,
    indoor_mobile_scenario,
    indoor_two_path_scenario,
    three_path_channel,
    two_path_channel,
)


@pytest.fixture
def array():
    return UniformLinearArray(num_elements=8)


class TestChannelBuilders:
    def test_two_path_relative_gain(self, array):
        channel = two_path_channel(array, delta_db=-5.0, sigma_rad=1.0)
        gains = channel.gains()
        assert abs(gains[1] / gains[0]) == pytest.approx(10 ** (-5 / 20))
        assert np.angle(gains[1] / gains[0]) == pytest.approx(1.0)

    def test_two_path_snr_in_paper_regime(self, array):
        channel = two_path_channel(array)
        sounder = ChannelSounder(config=OfdmConfig(bandwidth_hz=400e6), rng=0)
        from repro.arrays.steering import single_beam_weights

        snr = sounder.link_snr_db(channel, single_beam_weights(array, 0.0))
        # Paper reports ~27 dB at 7 m; land within a few dB.
        assert 20.0 < snr < 32.0

    def test_three_path_structure(self, array):
        channel = three_path_channel(array)
        assert channel.num_paths == 3
        assert channel.paths[0].label == "los"

    def test_three_path_validation(self, array):
        with pytest.raises(ValueError):
            three_path_channel(array, angles_rad=(0.0, 0.1))


class TestSyntheticScenario:
    def test_static_channel_time_invariant(self, array):
        scenario = SyntheticScenario(base_channel=two_path_channel(array))
        a = scenario.channel_at(0.0)
        b = scenario.channel_at(0.7)
        assert a.gains() == pytest.approx(b.gains())
        assert a.aods() == pytest.approx(b.aods())

    def test_angular_drift(self, array):
        scenario = SyntheticScenario(
            base_channel=two_path_channel(array),
            angular_rates_rad_s=(0.1, 0.05),
        )
        channel = scenario.channel_at(2.0)
        assert channel.aods()[0] == pytest.approx(0.2)
        assert channel.aods()[1] == pytest.approx(np.deg2rad(30.0) + 0.1)

    def test_blockage_applies(self, array):
        schedule = BlockageSchedule(
            events=(
                BlockageEvent(path_index=0, start_s=0.0, duration_s=1.0,
                              depth_db=20.0, ramp_s=0.0),
            )
        )
        scenario = SyntheticScenario(
            base_channel=two_path_channel(array), blockage=schedule
        )
        unblocked = scenario.channel_at(2.0)
        blocked = scenario.channel_at(0.5)
        ratio = abs(blocked.gains()[0] / unblocked.gains()[0])
        assert ratio == pytest.approx(0.1)

    def test_rate_count_validation(self, array):
        with pytest.raises(ValueError):
            SyntheticScenario(
                base_channel=two_path_channel(array),
                angular_rates_rad_s=(0.1,),
            )

    def test_factory(self, array):
        scenario = indoor_two_path_scenario(array, translation_speed_mps=1.5)
        assert scenario.angular_rates_rad_s[0] == pytest.approx(1.5 / 7.0)


class TestGeometricScenario:
    def test_channel_follows_trajectory(self, array):
        scenario = indoor_mobile_scenario(
            array,
            trajectory=LinearTrajectory(
                start_position=(2.0, 6.0), velocity_mps=(1.0, 0.0),
                orientation_rad=-np.pi / 2,
            ),
            rng=0,
        )
        start = scenario.channel_at(0.0)
        later = scenario.channel_at(1.0)
        # The LOS AoD must move as the user translates.
        assert start.paths[0].aod_rad != pytest.approx(
            later.paths[0].aod_rad, abs=1e-3
        )


class TestLinkSimulator:
    def make_sim(self, array, seed=0, duration=0.1):
        sounder = ChannelSounder(
            config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
            rng=seed,
        )
        trainer = ExhaustiveTrainer(
            codebook=uniform_codebook(array, 17), sounder=sounder
        )
        manager = MultiBeamManager(
            array=array, sounder=sounder, trainer=trainer, num_beams=2
        )
        scenario = indoor_two_path_scenario(array)
        return LinkSimulator(
            scenario=scenario, manager=manager, duration_s=duration
        )

    def test_trace_shapes(self, array):
        trace = self.make_sim(array).run()
        assert trace.times_s.shape == trace.snr_db.shape
        assert trace.times_s.shape == (100,)
        assert trace.training_rounds == 1

    def test_metrics_from_trace(self, array):
        trace = self.make_sim(array).run()
        metrics = trace.metrics()
        assert 0.0 <= metrics.reliability <= 1.0
        assert metrics.mean_throughput_bps > 0
        assert metrics.probe_airtime_s > 0

    def test_validation(self, array):
        sim = self.make_sim(array)
        with pytest.raises(ValueError):
            LinkSimulator(
                scenario=sim.scenario, manager=sim.manager, duration_s=0.0
            )
        with pytest.raises(ValueError):
            LinkSimulator(
                scenario=sim.scenario, manager=sim.manager,
                sample_period_s=1e-2, maintenance_period_s=1e-3,
            )


class TestEnsembleRunner:
    def test_summary_statistics(self, array):
        def scenario_factory(seed):
            return indoor_two_path_scenario(
                array,
                blockage=random_blockage_schedule(num_paths=2, rng=seed),
            )

        def manager_factory(seed):
            sounder = ChannelSounder(
                config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
                rng=seed,
            )
            return OracleBeam(array=array, sounder=sounder)

        summary = execute_ensemble(
            EnsembleSpec(
                label="oracle",
                simulator_factory=partial(
                    build_link_simulator, scenario_factory,
                    manager_factory, 0.1,
                ),
                seeds=[0, 1, 2],
            )
        )
        assert summary.label == "oracle"
        assert len(summary.metrics) == 3
        assert 0.0 <= summary.median_reliability() <= 1.0
        assert summary.mean_throughput_bps() > 0
        assert "oracle" in summary.describe()

    def test_empty_seeds_rejected(self, array):
        with pytest.raises(ValueError):
            execute_ensemble(
                EnsembleSpec(
                    label="x",
                    simulator_factory=lambda s: None,
                    seeds=[],
                )
            )

    def test_build_link_simulator_builds_scenario_then_manager(self, array):
        calls = []

        def scenario_factory(seed):
            calls.append(("scenario", seed))
            return indoor_two_path_scenario(array)

        def manager_factory(seed):
            calls.append(("manager", seed))
            return OracleBeam(
                array=array,
                sounder=ChannelSounder(
                    config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
                    rng=seed,
                ),
            )

        simulator = build_link_simulator(
            scenario_factory, manager_factory, 0.1, 7
        )
        assert calls == [("scenario", 7), ("manager", 7)]
        assert isinstance(simulator, LinkSimulator)
        assert simulator.duration_s == 0.1

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSummary(label="x", metrics=())
