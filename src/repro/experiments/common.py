"""Shared experiment plumbing: standard array, configs, manager builders,
and the seed-paired system comparison."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Sequence

import numpy as np

from repro.arrays import UniformLinearArray, uniform_codebook
from repro.baselines import (
    BeamSpySingleBeam,
    OracleBeam,
    ReactiveSingleBeam,
    WideBeam,
)
from repro.beamtraining import ExhaustiveTrainer, HierarchicalTrainer
from repro.core.maintenance import MultiBeamManager
from repro.phy.ofdm import ChannelSounder, OfdmConfig
from repro.sim.executor import EnsembleSpec, EnsembleSummary, execute_ensemble
from repro.sim.link import build_link_comparison
from repro.telemetry import TelemetrySummary, get_recorder
from repro.utils.rng import RngLike

#: The testbed's azimuth array: 8 elements at 28 GHz, lambda/2 spacing.
TESTBED_ULA = UniformLinearArray(num_elements=8)

#: Main evaluation bandwidth (indoor testbed).
FULL_BAND = 400e6
#: Outdoor / micro-benchmark bandwidth (USRP X300 setup).
NARROW_BAND = 100e6

#: CSI grid size used throughout the experiments.
NUM_SUBCARRIERS = 64

#: Codebook size for exhaustive SSB sweeps.
CODEBOOK_SIZE = 33


def make_config(bandwidth_hz: float = FULL_BAND) -> OfdmConfig:
    """The standard OFDM configuration for experiments."""
    return OfdmConfig(
        bandwidth_hz=bandwidth_hz, num_subcarriers=NUM_SUBCARRIERS
    )


def make_sounder(
    seed: RngLike, bandwidth_hz: float = FULL_BAND, cfo_model=None
) -> ChannelSounder:
    return ChannelSounder(
        config=make_config(bandwidth_hz), cfo_model=cfo_model, rng=seed
    )


def make_manager(
    kind: str,
    seed: RngLike,
    array: UniformLinearArray = TESTBED_ULA,
    bandwidth_hz: float = FULL_BAND,
    num_beams: int = 2,
    codebook_size: int = CODEBOOK_SIZE,
    **overrides,
):
    """Build any of the evaluated beam managers by name.

    ``kind`` is one of ``mmreliable``, ``mmreliable-static`` (no tracking,
    for the Fig. 18a static comparison), ``mmreliable-nocc`` (tracking
    without constructive combining), ``mmreliable-notrack-nocc``,
    ``reactive``, ``beamspy``, ``widebeam``, ``oracle``.  ``seed`` seeds
    the sounder's noise; a ``Generator`` is used as is.
    """
    sounder = make_sounder(seed, bandwidth_hz)
    exhaustive = ExhaustiveTrainer(
        codebook=uniform_codebook(array, codebook_size), sounder=sounder
    )
    hierarchical = HierarchicalTrainer(
        array=array, sounder=sounder, num_levels=5
    )
    if kind == "mmreliable":
        return MultiBeamManager(
            array=array, sounder=sounder, trainer=exhaustive,
            num_beams=num_beams, **overrides,
        )
    if kind == "mmreliable-static":
        return MultiBeamManager(
            array=array, sounder=sounder, trainer=exhaustive,
            num_beams=num_beams, enable_tracking=False, **overrides,
        )
    if kind == "mmreliable-nocc":
        return MultiBeamManager(
            array=array, sounder=sounder, trainer=exhaustive,
            num_beams=num_beams, constructive=False, **overrides,
        )
    if kind == "mmreliable-notrack-nocc":
        return MultiBeamManager(
            array=array, sounder=sounder, trainer=exhaustive,
            num_beams=num_beams, enable_tracking=False, constructive=True,
            enable_blockage_response=False, **overrides,
        )
    if kind == "reactive":
        return ReactiveSingleBeam(
            array=array, sounder=sounder, trainer=hierarchical, **overrides
        )
    if kind == "beamspy":
        return BeamSpySingleBeam(
            array=array, sounder=sounder, trainer=exhaustive, **overrides
        )
    if kind == "widebeam":
        return WideBeam(
            array=array, sounder=sounder, trainer=exhaustive,
            active_elements=3, **overrides,
        )
    if kind == "oracle":
        return OracleBeam(array=array, sounder=sounder, **overrides)
    raise ValueError(f"unknown manager kind {kind!r}")


def compare_systems(
    systems: Sequence[str],
    scenario_factory: Callable[[int], object],
    duration_s: float,
    seeds: Sequence[int],
    workers: int = 1,
    faults: tuple = (),
    max_failure_fraction: float = 0.5,
    label_suffix: str = "",
    **manager_options,
) -> Dict[str, EnsembleSummary]:
    """Run each system over the same scenario per seed; one summary each.

    System ``kind`` runs ``make_manager(kind, seed, **manager_options)``
    under the label ``kind + label_suffix``.  Every seed is one
    :class:`~repro.sim.link.LinkComparison` seed-run that builds the
    seed's scenario once and runs the systems over it in turn, and the
    seed-runs form one ensemble labelled ``"+".join(systems) +
    label_suffix``.  So a seed whose run raises fails for every system,
    and each system's summary carries the comparison's failures and
    stats.  Under an enabled recorder, each summary's ``telemetry``
    digests only that system's events (its run labels start with its
    label).  Returns the summaries keyed by kind, in ``systems`` order.
    """
    labels = [f"{kind}{label_suffix}" for kind in systems]
    comparison = EnsembleSpec(
        label="+".join(systems) + label_suffix,
        simulator_factory=partial(
            build_link_comparison,
            scenario_factory,
            tuple(
                (label, partial(make_manager, kind, **manager_options))
                for kind, label in zip(systems, labels)
            ),
            duration_s,
        ),
        seeds=tuple(seeds),
        workers=workers,
        max_failure_fraction=max_failure_fraction,
        faults=tuple(faults),
    )
    recorder = get_recorder()
    since = recorder.mark() if recorder.enabled else None
    summary = execute_ensemble(comparison)
    absorbed = () if since is None else recorder.events[since:]
    summaries = {}
    for index, (kind, label) in enumerate(zip(systems, labels)):
        summaries[kind] = EnsembleSummary(
            label=label,
            metrics=tuple(per_seed[index] for per_seed in summary.metrics),
            failures=summary.failures,
            stats=summary.stats,
            telemetry=None if since is None else TelemetrySummary.from_events(
                event for event in absorbed if event.run.startswith(f"{label}/")
            ),
        )
    return summaries


def format_series(label: str, xs, ys, unit_x: str = "", unit_y: str = "",
                  max_rows: int = 12) -> str:
    """Render a series as aligned rows, decimating long series."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    stride = max(1, len(xs) // max_rows)
    lines = [f"-- {label} --"]
    for x, y in zip(xs[::stride], ys[::stride]):
        lines.append(f"  {x:>12.4g} {unit_x:<6s} {y:>12.4g} {unit_y}")
    return "\n".join(lines)
