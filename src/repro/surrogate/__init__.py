"""Analytic surrogate engine: O(trace) fetch-ratio curves (DESIGN.md §9).

An engine tier beside the measured simulation (C walk or scalar loops): one
reuse-distance profiling pass predicts the Target's whole fetch-ratio
curve, with a Che characteristic-time cross-check, a Poisson set-conflict
associativity correction, and a self-reported confidence per point.  The
``auto`` tier escalates low-confidence points to the bit-exact measured
engine; ``repro validate --engine surrogate`` grades predictions against
the reference simulator (:mod:`repro.validation.surrogate`).
"""

from .che import characteristic_time, che_miss_fraction
from .engine import (
    SurrogatePolicy,
    build_surrogate_model,
    run_auto_sweep,
    run_surrogate_sweep,
    surrogate_point_key,
    synthesize_point,
)
from .model import DEFAULT_SURROGATE_BOUND, SurrogateModel, SurrogatePrediction
from .profile import SurrogateProfile, profile_trace

__all__ = [
    "DEFAULT_SURROGATE_BOUND",
    "SurrogateModel",
    "SurrogatePolicy",
    "SurrogatePrediction",
    "SurrogateProfile",
    "build_surrogate_model",
    "characteristic_time",
    "che_miss_fraction",
    "profile_trace",
    "run_auto_sweep",
    "run_surrogate_sweep",
    "surrogate_point_key",
    "synthesize_point",
]
