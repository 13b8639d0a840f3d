"""Conformance experiment: the validation oracle as a runall citizen.

Where :mod:`~repro.experiments.fig6_reference` *renders* the pirate and
reference curves side by side, this experiment *judges* them: every
reference benchmark (plus Cigar, §III-A) goes through the differential
harness and the suite passes only if each trusted point stays within the
paper's 3% fetch-ratio bound.  ``runall`` prints the suite report next to
the figures, so a paper replay ends with an explicit verdict on its own
validity instead of a plot the reader has to eyeball.
"""

from __future__ import annotations

from ..core.parallel import resolve_engine
from ..errors import ConfigError
from ..validation import grade_suite, validate_suite
from ..validation.differential import tier_from_scale
from .scale import QUICK, Scale


def run(
    scale: Scale = QUICK,
    seed: int = 0,
    *,
    workers: int = 0,
    telemetry=None,
    include_cigar: bool = True,
    engine: str = "measure",
):
    """Judge every reference benchmark at this scale's fidelity.

    ``engine="surrogate"`` judges the analytic predictor
    (:func:`~repro.validation.surrogate.grade_suite`) instead of the
    pirated cache; ``auto`` has nothing to grade and is rejected.
    """
    engine = resolve_engine(engine)
    if engine == "auto":
        raise ConfigError("conformance grades the measure or surrogate engine")
    names = list(scale.reference_benchmarks)
    if include_cigar and "cigar" not in names:
        names.append("cigar")
    if engine == "surrogate":
        return grade_suite(
            names,
            tier_from_scale(scale),
            seed=seed,
            workers=workers,
            telemetry=telemetry,
        )
    return validate_suite(
        names,
        tier_from_scale(scale),
        seed=seed,
        workers=workers,
        telemetry=telemetry,
    )
