"""Bench: extension features (paper Sections 4.4 and 8).

Not paper figures, but the future-work systems DESIGN.md commits to:
the directional multi-beam UE, IRS-engineered reflections, hybrid
multi-user beamforming, compressive training, and a waveform-level
consistency check of the whole phy substrate.
"""

import numpy as np
import pytest

from repro.arrays import UniformLinearArray
from repro.arrays.hybrid import multiuser_multibeam, multiuser_single_beam
from repro.beamtraining import CompressiveTrainer, top_k_directions
from repro.channel.environment import Environment, trace_paths
from repro.channel.geometric import GeometricChannel
from repro.channel.irs import IntelligentSurface, add_irs_path
from repro.core.blockage import reallocate_gains
from repro.core.multibeam import multibeam_from_channel
from repro.phy.mcs import OUTAGE_SNR_DB
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.phy.waveform import run_ofdm_link
from repro.sim.scenarios import two_path_channel


ARRAY = UniformLinearArray(num_elements=8)


def test_directional_ue_recovery(capsys):
    import sys

    sys.path.insert(0, "tests/core")
    from test_ue_link import directional_channel, make_manager

    def run():
        manager = make_manager(0)
        channel = directional_channel()
        manager.establish(channel)
        aligned = manager.link_snr_db(channel)
        offset = np.deg2rad(4.0)
        moved = channel.rotated([offset, offset], [-offset, -offset])
        degraded = manager.link_snr_db(moved)
        manager.step(moved, 0.1)
        return aligned, degraded, manager.link_snr_db(moved)

    aligned, degraded, recovered = run()
    assert degraded < aligned - 1.0
    assert recovered > degraded + 1.0
    with capsys.disabled():
        print()
        print(
            f"directional UE: aligned {aligned:.1f} dB, misaligned "
            f"{degraded:.1f} dB, recovered {recovered:.1f} dB"
        )


def test_irs_turns_outage_into_survival(capsys):
    def run():
        carrier = 28e9
        scale = 10 ** (-16.0 / 20.0)
        empty = Environment(reflectors=(), carrier_frequency_hz=carrier)
        tx, rx = (0.0, 0.0), (12.0, 0.0)
        bare_paths = tuple(
            p.attenuated(scale) for p in trace_paths(empty, tx, rx)
        )
        sounder = ChannelSounder(
            config=OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64),
            rng=0,
        )
        surface = IntelligentSurface(
            position=(6.0, 5.0), num_elements=2048, max_gain_db=70.0
        )
        irs_paths = add_irs_path(bare_paths, surface, tx, rx, carrier)
        irs_paths = irs_paths[:-1] + (irs_paths[-1].attenuated(scale),)
        with_irs = GeometricChannel(tx_array=ARRAY, paths=irs_paths)
        multibeam = multibeam_from_channel(with_irs, 2)
        block = [10 ** (-26 / 20), 1.0]
        # Without the IRS: single beam on the lone LOS, blocked -> dead.
        bare = GeometricChannel(tx_array=ARRAY, paths=bare_paths)
        from repro.arrays.steering import single_beam_weights

        w = single_beam_weights(ARRAY, bare_paths[0].aod_rad)
        without = sounder.link_snr_db(
            bare.with_path_scaling([block[0]]), w
        )
        survived = sounder.link_snr_db(
            with_irs.with_path_scaling(block),
            reallocate_gains(multibeam, [True, False]).weights().vector,
        )
        return without, survived

    without, survived = run()
    assert without < OUTAGE_SNR_DB
    assert survived > OUTAGE_SNR_DB
    with capsys.disabled():
        print()
        print(
            f"IRS: blocked-LOS SNR without panel {without:.1f} dB (outage), "
            f"with panel {survived:.1f} dB (alive)"
        )


def test_hybrid_multiuser_sum_rate(capsys):
    def run():
        user_a = two_path_channel(
            ARRAY, los_angle_rad=np.deg2rad(-30.0),
            nlos_angle_rad=np.deg2rad(-55.0), delta_db=-4.0,
        )
        user_b = two_path_channel(
            ARRAY, los_angle_rad=np.deg2rad(30.0),
            nlos_angle_rad=np.deg2rad(55.0), delta_db=-4.0,
        )
        channels = [user_a, user_b]
        noise = 1e-9  # noise-limited (cell edge)
        multibeam = multiuser_multibeam(ARRAY, channels, num_beams=2)
        single = multiuser_single_beam(ARRAY, channels)
        return (
            multibeam.sum_spectral_efficiency(channels, 1.0, noise),
            single.sum_spectral_efficiency(channels, 1.0, noise),
        )

    multi_rate, single_rate = run()
    assert multi_rate > single_rate
    with capsys.disabled():
        print()
        print(
            f"hybrid 2-user sum rate: multi-beam {multi_rate:.2f} vs "
            f"single-beam {single_rate:.2f} b/s/Hz"
        )


def test_compressive_training_probe_efficiency(capsys):
    def run():
        channel = two_path_channel(ARRAY, delta_db=-4.0)
        sounder = ChannelSounder(
            config=OfdmConfig(bandwidth_hz=100e6, num_subcarriers=64),
            rng=0,
        )
        trainer = CompressiveTrainer(
            array=ARRAY, sounder=sounder, num_probes=14, rng=1
        )
        result = trainer.train(channel)
        angles, _ = top_k_directions(
            result, 2, min_separation_rad=np.deg2rad(10.0)
        )
        return result.num_probes, trainer.grid_size, sorted(
            np.rad2deg(angles)
        )

    probes, grid, found = run()
    assert probes < grid  # fewer probes than directions
    assert found[0] == pytest.approx(0.0, abs=7.5)
    assert found[1] == pytest.approx(30.0, abs=7.5)
    with capsys.disabled():
        print()
        print(
            f"compressive training: {probes} probes over a {grid}-direction "
            f"grid found paths at {found} deg"
        )


def test_waveform_snr_consistency(capsys):
    """The sounder's SNR matches what an actual OFDM receiver measures."""

    def run():
        config = OfdmConfig(bandwidth_hz=400e6, num_subcarriers=64)
        # A 2.5 ns excess delay is exactly one CIR tap at 400 MHz: the
        # beamformed channel is then an exact 2-tap CIR (no band-limited
        # pulse truncation to muddy the comparison).
        channel = two_path_channel(
            ARRAY, delta_db=-5.0, excess_delay_s=2.5e-9
        )
        multibeam = multibeam_from_channel(channel, 2)
        weights = multibeam.weights().vector
        taps = channel.beamformed_path_gains(weights)
        noise_power = config.noise_power_watt / config.transmit_power_watt
        # Analytic link SNR of the 2-tap channel (Parseval: mean |H|^2
        # over subcarriers equals the tap energy).
        link_snr = 10 * np.log10(
            float(np.sum(np.abs(taps) ** 2)) / noise_power
        )
        result = run_ofdm_link(
            taps, modulation="16qam", num_data_symbols=24,
            noise_power=noise_power, rng=1,
        )
        # The receiver's expected penalty relative to the mean-power link
        # SNR: 3 dB from the single-pilot LS estimate (its noise enters
        # the equalizer output too) plus zero-forcing noise enhancement
        # on the faded subcarriers, 10 log10(E[|H|^2] * E[1/|H|^2]).
        h = np.fft.fft(np.concatenate([taps, np.zeros(62, complex)]))
        zf_penalty_db = 10 * np.log10(
            float(np.mean(np.abs(h) ** 2))
            * float(np.mean(1.0 / np.abs(h) ** 2))
        )
        expected_gap_db = 3.01 + zf_penalty_db
        return (
            link_snr, result.snr_estimate_db, result.bit_error_rate,
            expected_gap_db,
        )

    link_snr, evm_snr, ber, expected_gap_db = run()
    assert link_snr - evm_snr == pytest.approx(expected_gap_db, abs=1.0)
    assert ber < 1e-2
    with capsys.disabled():
        print()
        print(
            f"waveform consistency: link {link_snr:.1f} dB, OFDM EVM "
            f"{evm_snr:.1f} dB (expected LS+ZF penalty "
            f"{expected_gap_db:.1f} dB), BER {ber:.1e}"
        )


def test_handover_rescues_total_blockage(capsys):
    import sys

    sys.path.insert(0, "tests/core")
    from test_handover import dual_scenarios, make_multi_gnb

    def run():
        manager = make_multi_gnb()
        serving, backup = dual_scenarios()
        manager.establish(
            [serving.channel_at(0.0), backup.channel_at(0.0)]
        )
        snrs = []
        for t in np.arange(0.005, 0.5, 0.005):
            channels = [
                serving.channel_at(float(t)), backup.channel_at(float(t))
            ]
            manager.step(channels, float(t))
            snrs.append(manager.link_snr_db(channels))
        return manager.handover_count, np.asarray(snrs)

    handovers, snrs = run()
    assert handovers >= 1
    # After the handover (serving blocked 0.1-0.4 s) the link is healthy.
    post = snrs[40:70]  # 0.2-0.35 s
    assert np.all(post > OUTAGE_SNR_DB)
    with capsys.disabled():
        print()
        print(
            f"handover: {handovers} switch(es); min SNR during serving "
            f"outage {post.min():.1f} dB (alive on the backup gNB)"
        )


def test_olla_absorbs_cqi_bias(capsys):
    from repro.phy.link_adaptation import simulate_olla

    def run():
        biased = simulate_olla(
            true_snr_db=18.0, cqi_bias_db=3.0, num_blocks=3000, rng=1
        )
        clean = simulate_olla(true_snr_db=18.0, num_blocks=3000, rng=0)
        return biased, clean

    biased, clean = run()
    for loop in (biased, clean):
        assert loop.measured_bler == pytest.approx(0.1, abs=0.05)
    assert biased.margin_db > clean.margin_db + 1.0
    with capsys.disabled():
        print()
        print(
            f"OLLA: clean CQI margin {clean.margin_db:+.2f} dB, +3 dB "
            f"biased CQI margin {biased.margin_db:+.2f} dB, both at "
            f"~10% BLER"
        )
