"""Bench: the end-to-end comparison on random clustered channels.

The paper's conclusions must not hinge on the hand-built two-path
geometry: this sweep redraws the channel from the 3GPP-flavoured cluster
generator per seed and re-checks the ordering.
"""

from repro.experiments import robustness


def test_clustered_channel_robustness(capsys):
    summaries = robustness.run_clustered_ensembles(range(8))
    mmr = summaries["mmreliable"]
    oracle = summaries["oracle"]
    # Ordering holds on random channels too.
    assert mmr.median_reliability() > 0.93
    for baseline in ("reactive", "beamspy"):
        assert mmr.mean_product() > summaries[baseline].mean_product()
    # The genie refreshes a *frequency-flat* narrowband MRT beam; link
    # SNR averages |H(f)|^2 over the whole OFDM band.  On the clustered
    # channels' large delay spreads, mmReliable's delay-compensated
    # multi-beam combines paths coherently across the band and can beat
    # the flat MRT beam on some draws (seeds 3-6 here, by up to ~1.4 dB
    # mean SNR) — that is the paper's wideband point, not a regression,
    # so the genie is NOT asserted to dominate the TxR product per seed.
    # What the genie does guarantee: zero probing airtime, so its
    # reliability dominates, and the product stays in a tight band.
    assert oracle.median_reliability() >= mmr.median_reliability()
    assert oracle.mean_product() > 0.9 * mmr.mean_product()
    assert mmr.mean_product() > 0.9 * oracle.mean_product()
    # The constructive multi-beam tracks the oracle closely even on
    # channels it never saw at design time.
    assert mmr.mean_throughput_bps() > 0.9 * oracle.mean_throughput_bps()
    with capsys.disabled():
        print()
        print(robustness.render({"clustered": summaries}))
