"""The beam-manager contract ``LinkSimulator`` drives, and the training ledger.

Every manager's ``step`` returns the action it took as a ``str``, and
every manager defines ``sounder``, ``budget``, ``training_rounds`` and
``training_windows``, which the simulator reads with no defaults.  Every
training manager charges each beam-training episode through one ledger,
so each round has exactly one ``beam_retrain`` event and one window.
"""

import sys
from pathlib import Path

import pytest

from repro.channel.blockage import BlockageEvent, BlockageSchedule
from repro.experiments.common import TESTBED_ULA, make_manager
from repro.experiments.fig18_end2end import _mobile_scenario
from repro.phy.reference_signals import ProbeBudget, ssb_duration_s
from repro.sim.link import LinkSimulator
from repro.sim.scenarios import SyntheticScenario, two_path_channel
from repro.telemetry import TelemetryRecorder, use_recorder

# The directional-UE and multi-gNB managers and channels of their suites.
_TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_TESTS / "integration"), str(_TESTS / "core")]
import test_directional_ue_sim as directional_ue  # noqa: E402
import test_handover as handover  # noqa: E402

KINDS = (
    "mmreliable", "mmreliable-static", "mmreliable-nocc",
    "mmreliable-notrack-nocc", "reactive", "beamspy", "widebeam", "oracle",
)
TRAINING_KINDS = ("mmreliable", "reactive", "beamspy", "widebeam")


class GnbPairScenario:
    """Serving and backup gNB scenarios as one multi-gNB scenario."""

    def __init__(self, scenarios):
        self.scenarios = scenarios

    def channel_at(self, time_s):
        return [scenario.channel_at(time_s) for scenario in self.scenarios]


def build(name):
    """``(manager, scenario)`` for one manager kind on its test channel."""
    if name == "directional-ue":
        return directional_ue.make_manager(0), SyntheticScenario(
            base_channel=directional_ue.directional_channel(),
            angular_rates_rad_s=(0.1, 0.1),
            aoa_rates_rad_s=(-0.1, -0.1),
        )
    if name == "multi-gnb":
        return handover.make_multi_gnb(), GnbPairScenario(
            handover.dual_scenarios()
        )
    return make_manager(name, 0), _mobile_scenario(
        0, speed_mps=1.5, blockage_depth_db=30.0, distance_m=25.0
    )


ALL = KINDS + ("directional-ue", "multi-gnb")


class TestContract:
    @pytest.mark.parametrize("name", ALL)
    def test_step_returns_the_action_as_str(self, name):
        manager, scenario = build(name)
        manager.establish(scenario.channel_at(0.0), time_s=0.0)
        for tick in range(1, 41):
            t = tick * 5e-3
            assert type(manager.step(scenario.channel_at(t), time_s=t)) is str

    @pytest.mark.parametrize("name", ALL)
    def test_simulator_reads_the_contract(self, name):
        manager, scenario = build(name)
        trace = LinkSimulator(
            scenario=scenario, manager=manager, duration_s=0.2
        ).run()
        assert all(type(action) is str for _, action in trace.actions)
        assert trace.training_rounds == manager.training_rounds
        assert trace.training_windows == tuple(manager.training_windows)
        assert trace.probe_airtime_s == manager.budget.airtime_s()

    def test_a_manager_without_a_budget_is_rejected(self):
        manager, scenario = build("oracle")

        class NoBudget:
            sounder = manager.sounder
            training_rounds = 0
            training_windows = ()
            establish = manager.establish
            step = manager.step
            current_weights = manager.current_weights

        with pytest.raises(AttributeError, match="budget"):
            LinkSimulator(
                scenario=scenario, manager=NoBudget(), duration_s=0.02
            ).run()

    def test_directional_ue_never_trains(self):
        manager, scenario = build("directional-ue")
        LinkSimulator(scenario=scenario, manager=manager, duration_s=0.1).run()
        assert manager.training_rounds == 0
        assert manager.training_windows == []
        assert isinstance(manager.budget, ProbeBudget)


class TestTrainingLedger:
    @pytest.mark.parametrize("kind", TRAINING_KINDS)
    def test_one_retrain_event_per_round(self, kind):
        # Both paths dark for 0.3 s: every training manager retrains.
        blockers = tuple(
            BlockageEvent(path_index=k, start_s=0.05, duration_s=0.3,
                          depth_db=40.0)
            for k in range(2)
        )
        scenario = SyntheticScenario(
            base_channel=two_path_channel(TESTBED_ULA, delta_db=-5.0),
            blockage=BlockageSchedule(events=blockers),
        )
        manager = make_manager(kind, 0)
        with use_recorder(TelemetryRecorder()) as recorder:
            LinkSimulator(
                scenario=scenario, manager=manager, duration_s=0.5
            ).run()
        retrains = [e for e in recorder.events if e.kind == "beam_retrain"]
        assert manager.training_rounds >= 3
        assert len(manager.training_windows) == manager.training_rounds
        assert [e.fields["round"] for e in retrains] == list(
            range(1, manager.training_rounds + 1)
        )
        assert {e.fields["manager"] for e in retrains} == {
            type(manager).__name__
        }
        assert [
            (e.time_s, e.fields["num_probes"] * ssb_duration_s())
            for e in retrains
        ] == manager.training_windows
