"""Conformance experiment: the validation oracle as a runall citizen.

Where :mod:`~repro.experiments.fig6_reference` *renders* the pirate and
reference curves side by side, this experiment *judges* the same
measurement: every comparison of the Fig. 6 suite (the reference
benchmarks plus Cigar, §III-A) goes through
:func:`~repro.validation.judge_suite`, and the suite passes only if each
trusted point stays within the paper's 3% fetch-ratio bound.  ``runall``
hands it the Fig. 6 result it already has, so a paper replay ends with an
explicit verdict on its own validity without measuring the suite twice.
"""

from __future__ import annotations

from ..core.parallel import resolve_engine
from ..errors import ConfigError
from ..validation import grade_suite, judge_suite
from ..validation.differential import tier_from_scale
from .fig6_reference import Fig6Result
from .fig6_reference import run as run_fig6
from .scale import QUICK, Scale


def run(
    scale: Scale = QUICK,
    seed: int = 0,
    *,
    workers: int | None = None,
    telemetry=None,
    engine: str = "measure",
    fig6: Fig6Result | None = None,
):
    """Judge the Fig. 6 suite at this scale's fidelity.

    ``fig6`` (from the same scale and seed) is judged as it stands; without
    one the suite is measured here.  ``engine="surrogate"`` grades the
    analytic predictor (:func:`~repro.validation.surrogate.grade_suite`)
    instead of the pirated cache and ignores ``fig6``; ``auto`` has nothing
    to grade and is rejected.
    """
    engine = resolve_engine(engine)
    if engine == "auto":
        raise ConfigError("conformance grades the measure or surrogate engine")
    if workers is None:
        workers = scale.max_workers
    tier = tier_from_scale(scale)
    if engine == "surrogate":
        return grade_suite(
            list(scale.validation_benchmarks),
            tier,
            seed=seed,
            workers=workers,
            telemetry=telemetry,
        )
    if fig6 is None:
        fig6 = run_fig6(scale, seed, workers=workers, telemetry=telemetry)
    return judge_suite(fig6.comparisons, tier, seed=seed, telemetry=telemetry)
