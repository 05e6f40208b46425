"""Bench: Fig. 18 — end-to-end comparison against baselines."""

import pytest

from repro.experiments import fig18_end2end


def test_fig18a_static_with_blockers(capsys):
    static = fig18_end2end.run_static_blockers((0, 1, 2), range(3))
    # Paper shape: mmReliable's throughput barely drops with blockers
    # near the beams; the single-beam baselines drop much more.
    mmr = static["mmreliable-static"]
    for baseline in ("beamspy", "reactive"):
        row = static[baseline]
        mmr_drop = 1 - mmr[2] / mmr[0]
        baseline_drop = 1 - row[2] / row[0]
        assert mmr_drop < baseline_drop
    assert mmr[2] > 0.7 * mmr[0]


def test_fig18bc_mobile_reliability_and_product(capsys):
    summaries = fig18_end2end.run_mobile_ensembles(range(12))
    mmr = summaries["mmreliable"]
    # Paper: mmReliable reliability close to 1 (median 1.0).
    assert mmr.median_reliability() > 0.93
    # Ordering: mmReliable beats every real baseline on reliability and
    # on the throughput x reliability product; the oracle bounds all.
    for baseline in ("reactive", "beamspy", "widebeam"):
        assert mmr.median_reliability() >= summaries[
            baseline
        ].median_reliability() - 1e-9
        assert mmr.mean_product() > summaries[baseline].mean_product()
    assert summaries["oracle"].mean_product() >= mmr.mean_product()
    # Widebeam pays for its robustness in throughput (paper Fig. 18c).
    assert summaries["widebeam"].mean_throughput_bps() == min(
        s.mean_throughput_bps() for s in summaries.values()
    )
    # T x R product gain over the reactive baseline (paper: 2.3x; the
    # reproduction's reactive recovers more gracefully -> smaller but
    # clear gain).
    gain = fig18_end2end.product_improvement(summaries, "reactive")
    assert gain > 1.25
    with capsys.disabled():
        print()
        for summary in summaries.values():
            print("  " + summary.describe())
        print(f"  T x R gain over reactive: {gain:.2f}x (paper: 2.3x)")


def test_fig18d_probing_overhead(capsys):
    overhead = fig18_end2end.run_probing_overhead()
    # Paper numbers: 3 ms at N=8 rising to 6 ms at N=64 for 5G NR
    # scanning; flat 0.4 / 0.6 ms for mmReliable 2- and 3-beam.
    nr = overhead["5G NR (log scan)"]
    assert nr[8] == pytest.approx(3.0, abs=0.01)
    assert nr[64] == pytest.approx(6.0, abs=0.01)
    two = overhead["mmReliable 2-beam"]
    three = overhead["mmReliable 3-beam"]
    assert two[8] == two[64] == pytest.approx(0.375, abs=0.01)
    assert three[8] == three[64] == pytest.approx(0.625, abs=0.01)
    for n in (8, 16, 32, 64):
        assert three[n] < nr[n]
    with capsys.disabled():
        print()
        print("Fig. 18(d) overhead (ms):", {k: v for k, v in overhead.items()})
