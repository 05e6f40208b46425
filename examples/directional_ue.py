"""Directional multi-beam UE on a long outdoor link (paper Section 4.4).

Long links need aperture at both ends.  This example stands up a
bidirectional multi-beam link (8-element gNB, 4-element UE), shows the
UE-side gains come out real and non-negative (the constructive gNB
transmission pre-aligns the per-path phases), then walks the UE sideways
and lets the manager re-align both ends from the SNR drop alone.

Run:  python examples/directional_ue.py
"""

import numpy as np

from repro.arrays import UniformLinearArray
from repro.channel.geometric import GeometricChannel
from repro.channel.paths import Path
from repro.core.ue_link import DirectionalUeLinkManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.scenarios import DEFAULT_IMPLEMENTATION_LOSS_DB, _los_gain


def build_channel(gnb, ue, distance_m=60.0):
    """A 60 m outdoor link: LOS plus a building reflection."""
    gain = _los_gain(
        distance_m, gnb.carrier_frequency_hz, DEFAULT_IMPLEMENTATION_LOSS_DB
    )
    relative = 10 ** (-5.0 / 20.0) * np.exp(1j * 0.8)
    los_delay = distance_m / 3e8
    paths = (
        Path(aod_rad=0.0, gain=gain, delay_s=los_delay, aoa_rad=0.0,
             label="los"),
        Path(aod_rad=np.deg2rad(25.0), gain=gain * relative,
             delay_s=los_delay + 8e-9, aoa_rad=np.deg2rad(-30.0),
             label="reflection:building"),
    )
    return GeometricChannel(tx_array=gnb, paths=paths, rx_array=ue)


def main() -> None:
    gnb = UniformLinearArray(num_elements=8)
    ue = UniformLinearArray(num_elements=4)
    sounder = ChannelSounder(
        config=OfdmConfig(bandwidth_hz=100e6, num_subcarriers=64), rng=0
    )
    manager = DirectionalUeLinkManager(
        gnb_array=gnb, ue_array=ue, sounder=sounder, num_beams=2
    )
    channel = build_channel(gnb, ue)
    gnb_mb, ue_mb = manager.establish(channel)

    print("established bidirectional multi-beam link (60 m outdoor):")
    print(f"  gNB beams at {np.round(np.rad2deg(gnb_mb.angles_rad), 1)} deg")
    print(f"  UE  beams at {np.round(np.rad2deg(ue_mb.angles_rad), 1)} deg")
    print(
        "  UE relative gains (real, phase pre-aligned by the gNB): "
        f"{np.round(np.real(ue_mb.relative_gains), 3)}"
    )
    directional = manager.link_snr_db(channel)
    tx, _ = manager.current_weights()
    omni = sounder.link_snr_db(channel, tx, rx_weights=None)
    print(f"  SNR with directional UE: {directional:6.2f} dB")
    print(f"  SNR with omni UE:        {omni:6.2f} dB "
          f"(+{directional - omni:.1f} dB from the UE aperture)")
    print()

    # The user steps sideways: every bearing rotates ~4 degrees.
    offset = np.deg2rad(4.0)
    moved = channel.rotated([offset, offset], [-offset, -offset])
    degraded = manager.link_snr_db(moved)
    print(f"user translates; both ends misalign by 4 deg:")
    print(f"  SNR drops to {degraded:6.2f} dB")
    gnb_before = np.asarray(manager.gnb_multibeam.angles_rad)
    ue_before = np.asarray(manager.ue_multibeam.angles_rad)
    probes_before = manager.budget.total_probes()
    action = manager.step(moved, time_s=0.1)
    gnb_turn = np.rad2deg(np.asarray(manager.gnb_multibeam.angles_rad) - gnb_before)
    ue_turn = np.rad2deg(np.asarray(manager.ue_multibeam.angles_rad) - ue_before)
    print(
        f"  manager inverts the drop and turns the gNB beams by "
        f"{np.round(gnb_turn, 1)} deg, the UE beams by {np.round(ue_turn, 1)} deg"
    )
    print(
        f"  ({action}, {manager.budget.total_probes() - probes_before} "
        f"probes) -> SNR {manager.link_snr_db(moved):6.2f} dB"
    )


if __name__ == "__main__":
    main()
