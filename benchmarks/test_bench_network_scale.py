"""Bench: the network engine at scale — 4 cells x 64 users.

Runs one full ``NetworkSimulator.run`` at the largest configuration the
test matrix exercises (4 cells, 64 users, short horizon so the bench
stays wall-time bounded) and checks that every user is simulated,
interference is evaluated and round-robin scheduling stays fair.
"""

from repro.network import NetworkScenario, NetworkSimulator, row_of_cells

CELLS = 4
USERS = 64
DURATION_S = 0.05


def make_scenario() -> NetworkScenario:
    return NetworkScenario(
        cells=row_of_cells(CELLS),
        num_users=USERS,
        duration_s=DURATION_S,
    )


def test_network_scale_4x64():
    trace = NetworkSimulator(scenario=make_scenario(), seed=0).run()
    metrics = trace.metrics()

    # Structural sanity: everyone simulated, interference evaluated.
    assert metrics.num_users == USERS
    assert len(trace.plans) == CELLS
    assert trace.penalties_db.shape[0] == USERS
    assert 0.0 < metrics.reliability <= 1.0
    assert metrics.cell_throughput_bps > 0.0
    # Round-robin scheduling keeps the cell fair even at 64 users.
    assert metrics.fairness > 0.9
