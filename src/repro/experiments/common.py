"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from ..config import MachineConfig, nehalem_config
from ..core import measure_curve_dynamic
from ..core.curves import PerformanceCurve
from ..rng import stable_seed
from ..workloads import benchmark_target
from .scale import Scale


def dynamic_curve(
    name: str,
    scale: Scale,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
    sizes_mb: tuple[float, ...] | None = None,
) -> PerformanceCurve:
    """One dynamic-pirating execution of ``name`` over the scale's grid."""
    result = measure_curve_dynamic(
        benchmark_target(name, seed=stable_seed(seed, name)),
        list(sizes_mb or scale.sizes_mb),
        total_instructions=scale.dynamic_total_instructions,
        interval_instructions=scale.interval_instructions,
        benchmark=name,
        config=config or nehalem_config(),
        compute_baseline=False,
        seed=stable_seed(seed, name, "machine"),
    )
    return result.curve

