"""Differential validation: conformance oracle for the pirated cache.

The paper's credibility rests on §III-B / Figs. 4, 6, 7: the cache a Target
sees while the Pirate steals ``S`` bytes of the ``C``-byte L3 must behave
like a *real* cache of size ``C - S``.  Both halves of that claim live in
this library — the measurement harnesses in :mod:`repro.core` and the
trace-driven reference simulator in :mod:`repro.reference` — and this
package is the machinery that systematically proves they agree:

* :mod:`~repro.validation.tiers` — named parameter sets
  (:data:`VALIDATE_QUICK` / :data:`VALIDATE_FULL`) controlling grid,
  window and budget of a validation run,
* :mod:`~repro.validation.differential` — replay one workload's marked
  window through both models: the Pirate shrinks the cache by way
  competition at runtime, the reference simulator by configuration
  (``(A - k)``-way geometry), same markers, same trace,
* :mod:`~repro.validation.conformance` — per-point divergence (fetch
  ratio, miss ratio, CPI delta) against the paper's 3% fetch-ratio error
  bound, rolled up into structured pass/fail reports
  (``conformance_report.json``),
* :mod:`~repro.validation.properties` — metamorphic invariants both
  models must satisfy regardless of workload (miss-ratio monotonicity in
  cache size, LRU-stack inclusion under way stealing, vanishing fetch
  ratio as the stolen size goes to zero, serial == parallel report
  equivalence), driven by hypothesis in ``tests/test_validation_props.py``,
* :mod:`~repro.validation.surrogate` — the same oracle pointed at the
  analytic engine (:mod:`repro.surrogate`): per-size PASS/GRAY/FAIL
  grades of the predicted curve against the reference simulator
  (``repro validate --engine surrogate``).

Entry points: ``python -m repro validate`` (CLI), the ``conformance``
experiment in :mod:`repro.experiments.runall`, and the ``conformance``
golden scenario.
"""

from .conformance import (
    ConformanceReport,
    PointVerdict,
    SuiteReport,
    conformance_report,
    judge_suite,
    validate_suite,
)
from .differential import DifferentialResult, differential_compare, tier_from_scale
from .properties import (
    lru_stack_mismatches,
    monotone_violations,
    pirate_idle_fetch_ratio,
    reports_equivalent,
)
from .surrogate import (
    SizeGrade,
    SurrogateGrade,
    SurrogateSuiteReport,
    grade_suite,
    grade_surrogate,
)
from .tiers import VALIDATE_FULL, VALIDATE_QUICK, ValidationTier, resolve_tier

__all__ = [
    "ValidationTier",
    "VALIDATE_QUICK",
    "VALIDATE_FULL",
    "resolve_tier",
    "DifferentialResult",
    "differential_compare",
    "tier_from_scale",
    "PointVerdict",
    "ConformanceReport",
    "SuiteReport",
    "conformance_report",
    "judge_suite",
    "validate_suite",
    "monotone_violations",
    "lru_stack_mismatches",
    "pirate_idle_fetch_ratio",
    "reports_equivalent",
    "SizeGrade",
    "SurrogateGrade",
    "SurrogateSuiteReport",
    "grade_surrogate",
    "grade_suite",
]
