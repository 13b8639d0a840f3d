"""Capacity → miss-ratio prediction with a self-reported confidence.

The :class:`SurrogateModel` turns one
:class:`~repro.analysis.reuse.ReuseProfile` into curve predictions at
arbitrary effective capacities ``C - S``:

* **stack** — the exact fully-associative LRU tail of the histogram
  (Mattson bound; bit-identical to
  :func:`~repro.analysis.reuse.miss_ratio_from_histogram`).  This *is*
  the prediction: the suite's dense address ranges index sets uniformly,
  so the set-indexed cache tracks the stack curve closely,
* **associativity cross-check** — a warm access at reuse distance ``d``
  conflicts in a ``num_sets``-set cache when its set receives ``>= w``
  of the ``d`` intervening distinct lines; modelled as
  ``P[Poisson(d / num_sets) >= w]``.  Pirate occupancy enters through the
  effective way count ``w = capacity_lines / num_sets`` — fractional
  ``w`` (the Pirate rarely steals whole ways) interpolates the two
  integer tails, which keeps the estimate monotone in capacity.  A
  fully-associative cache (``num_sets == 1``) degenerates to the exact
  stack tail.  The Poisson placement assumption is *pessimistic* for
  dense footprints (sequential lines spread evenly over sets, so a
  footprint that fits the cache really does fit, while Poisson predicts
  residual overflow), so the gap feeds the error estimate instead of the
  prediction: where random and balanced placement disagree, the model is
  unsure,
* **Che cross-check** — the characteristic-time estimate of the same
  quantity under the independent-reference model
  (:mod:`repro.surrogate.che`).

The model's *error estimate* is a weighted disagreement budget: the
assoc-vs-stack gap (how much set placement could matter here), the
Che-vs-stack gap (how far the workload is from the analytic regime), and
a knee term (the local slope of the stack curve — predictions near the
working-set knee are intrinsically less certain).  Points whose estimate
exceeds the policy bound are *grey*: reported, but flagged for escalation
by the ``auto`` engine and excluded from surrogate-grading pass/fail
exactly like the paper's untrusted sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.reuse import ReuseProfile
from ..config import MachineConfig
from ..units import LINE_SIZE
from .che import che_miss_fraction

#: Default confidence bound on the model's own error estimate — the same 3%
#: the conformance oracle uses for fetch-ratio divergence
#: (:data:`repro.validation.tiers.DEFAULT_CONFORMANCE_BOUND`), so "confident"
#: means "expected to grade PASS".
DEFAULT_SURROGATE_BOUND = 0.03

#: Above this many effective ways the Poisson conflict tail is numerically
#: the sharp fully-associative tail; skip the O(ways) series.
_SHARP_WAYS = 512


def _poisson_sf(lam: np.ndarray, w: int) -> np.ndarray:
    """P[Poisson(lam) >= w] elementwise, by summing the first ``w`` pmf terms."""
    if w <= 0:
        return np.ones_like(lam)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    for k in range(1, w):
        pmf = pmf * lam / k
        cdf += pmf
    return np.clip(1.0 - cdf, 0.0, 1.0)


@dataclass
class SurrogatePrediction:
    """One capacity's prediction plus the model's own account of it."""

    capacity_lines: int
    #: predicted miss ratio per architectural access, cold misses included
    miss_ratio: float
    #: predicted fetch ratio — equal to ``miss_ratio``: the surrogate
    #: predicts demand traffic only (prefetch fills are not modelled, so
    #: grade it against prefetch-disabled references)
    fetch_ratio: float
    #: exact fully-associative stack prediction (same units; this is what
    #: ``miss_ratio`` reports)
    stack_miss_ratio: float
    #: Poisson set-conflict cross-check (same units)
    assoc_miss_ratio: float
    #: Che characteristic-time cross-check (same units)
    che_miss_ratio: float
    #: the model's self-reported uncertainty (miss-ratio units)
    error_estimate: float
    #: error estimate within the policy bound
    confident: bool


class SurrogateModel:
    """Predicts the fetch-ratio curve of one profiled workload."""

    #: knee detector spans this capacity factor to either side
    KNEE_SPAN = 1.25
    #: weights of the disagreement terms (tuned so the quick conformance
    #: grid grades with zero FAILs — see tests/test_surrogate_engine.py)
    W_ASSOC = 0.5
    W_CHE = 0.25
    W_KNEE = 0.5

    def __init__(
        self,
        profile: ReuseProfile,
        config: MachineConfig,
        *,
        bound: float = DEFAULT_SURROGATE_BOUND,
    ):
        self.profile = profile
        self.config = config
        self.bound = bound
        # grouped histogram for the vectorized Poisson tails
        self._uvals, self._ucounts = np.unique(profile.distances, return_counts=True)
        self._ucounts = self._ucounts.astype(np.float64)

    # -- component estimates (all per architectural access, cold included) ---------

    def _overall(self, warm_fraction: float) -> float:
        """Overall miss ratio from an estimated warm-access miss fraction."""
        prof = self.profile
        misses = warm_fraction * prof.distances.size + prof.cold_accesses
        return misses / prof.total_accesses / prof.accesses_per_line

    def _assoc_miss_ratio(self, capacity_lines: int, stack: float) -> float:
        """Poisson set-conflict estimate (exactly ``stack`` when it must be)."""
        prof = self.profile
        num_sets = self.config.l3.num_sets
        if prof.distances.size == 0:
            return stack
        w = capacity_lines / num_sets
        if num_sets == 1 or w > _SHARP_WAYS:
            # fully associative (or effectively so): the sharp tail *is* the
            # stack prediction — reuse it bit-for-bit
            return stack
        if capacity_lines <= 0:
            return self._overall(1.0)
        lam = self._uvals / num_sets
        w0 = int(w)
        sf = _poisson_sf(lam, w0)
        frac = w - w0
        if frac > 0.0:
            sf = (1.0 - frac) * sf + frac * _poisson_sf(lam, w0 + 1)
        warm_fraction = float(np.sum(self._ucounts * sf) / prof.distances.size)
        return self._overall(warm_fraction)

    def _che_miss_ratio(self, capacity_lines: int) -> float:
        frac = che_miss_fraction(
            self.profile.line_counts, self.profile.total_accesses, capacity_lines
        )
        return self._overall(frac)

    # -- the prediction ------------------------------------------------------------

    def predict_lines(self, capacity_lines: int) -> SurrogatePrediction:
        """Predict the miss/fetch ratio at a capacity in lines."""
        prof = self.profile
        stack = prof.miss_ratio_at_lines(capacity_lines)
        assoc = self._assoc_miss_ratio(capacity_lines, stack)
        che = self._che_miss_ratio(capacity_lines)

        knee = max(
            prof.miss_ratio_at_lines(int(capacity_lines / self.KNEE_SPAN))
            - prof.miss_ratio_at_lines(int(capacity_lines * self.KNEE_SPAN)),
            0.0,
        )
        error = (
            self.W_ASSOC * abs(assoc - stack)
            + self.W_CHE * abs(che - stack)
            + self.W_KNEE * knee
        )

        return SurrogatePrediction(
            capacity_lines=capacity_lines,
            miss_ratio=stack,
            fetch_ratio=stack,
            stack_miss_ratio=stack,
            assoc_miss_ratio=assoc,
            che_miss_ratio=che,
            error_estimate=float(error),
            confident=bool(error <= self.bound),
        )

    def predict_bytes(self, capacity_bytes: int) -> SurrogatePrediction:
        """Predict at a capacity in bytes (the harness's unit)."""
        return self.predict_lines(int(capacity_bytes // LINE_SIZE))

    def line_miss_fraction(self, capacity_lines: int) -> float:
        """Fully-associative miss fraction at *line* grain (for the synthetic
        counter estimates of the private levels)."""
        return (
            self.profile.miss_ratio_at_lines(capacity_lines)
            * self.profile.accesses_per_line
        )
