"""Analytic surrogate engine: O(trace) fetch-ratio curves (DESIGN.md §9).

An engine tier beside the measured simulation (C walk or scalar loops): one
reuse-distance profiling pass (:func:`~repro.analysis.reuse.reuse_profile`)
predicts the Target's whole fetch-ratio curve, with a Che
characteristic-time cross-check, a Poisson set-conflict associativity
correction, and a self-reported confidence per point.
:func:`~repro.core.parallel.run_sweep` runs it as ``engine="surrogate"``,
and as ``engine="auto"``, which escalates low-confidence points to the
bit-exact measured engine; ``repro validate --engine surrogate`` grades
predictions against the reference simulator
(:mod:`repro.validation.surrogate`).
"""

from .che import characteristic_time, che_miss_fraction
from .engine import (
    SurrogatePolicy,
    build_surrogate_model,
    run_surrogate_sweep,
    surrogate_point_key,
    synthesize_point,
)
from .model import DEFAULT_SURROGATE_BOUND, SurrogateModel, SurrogatePrediction

__all__ = [
    "DEFAULT_SURROGATE_BOUND",
    "SurrogateModel",
    "SurrogatePolicy",
    "SurrogatePrediction",
    "build_surrogate_model",
    "characteristic_time",
    "che_miss_fraction",
    "run_surrogate_sweep",
    "surrogate_point_key",
    "synthesize_point",
]
