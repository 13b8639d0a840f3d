"""Differential tests: the vectorised stream generators against their oracle.

Every golden fixture and cached result depends on the exact address
streams the workloads emit, and on how much randomness each chunk draws
(DESIGN §3, "Stream generation").  The oracle here is the previous
implementation of each rewritten generator, kept verbatim: the
loop-per-segment ``SequentialPattern.lines``, the modular ``StridedPattern``
and ``PointerChasePattern`` walks, ``MixtureWorkload._lines`` built on
``Generator.choice(p=...)`` with one boolean-mask pass per component, and
the modular ``PirateThreadWorkload.chunk``.

A workload under test is built twice from the same factory; the second
copy has every rewritten object switched to its oracle class.  Hypothesis
draws chunk-size sequences (single lines, sizes below one segment, sizes
spanning many segments, sizes that wrap small regions) and both copies
must emit equal lines and write masks and end in equal generator states.
``test_sized_integers_equal_scalar_draws`` pins the numpy invariant the
segmented sequence relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pirate import PIRATE_BASE, PirateThreadWorkload
from repro.workloads import (
    BENCHMARK_NAMES,
    MixtureComponent,
    MixtureWorkload,
    PhasedWorkload,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    TraceReplayWorkload,
    make_benchmark,
    make_cigar,
    make_replay,
    make_sharing,
    make_zipf,
    random_micro,
    sequential_micro,
)

# ----------------------------------------------------------------- the oracle


class OracleSequential(SequentialPattern):
    def lines(self, n: int) -> np.ndarray:
        base = self.base_line
        region = self.region_lines
        if self.segment_lines is None:
            out = (self._pos + np.arange(n, dtype=np.int64)) % region + base
            self._pos = (self._pos + n) % region
            return out
        # segmented: emit runs, jumping to a random aligned segment when a
        # run is exhausted
        seg = self.segment_lines
        nseg = max(region // seg, 1)
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            if self._seg_left <= 0:
                self._pos = int(self._rng.integers(0, nseg)) * seg
                self._seg_left = seg
            take = min(n - filled, self._seg_left)
            out[filled : filled + take] = (
                self._pos + np.arange(take, dtype=np.int64)
            ) % region + base
            self._pos = (self._pos + take) % region
            self._seg_left -= take
            filled += take
        return out


class OracleStrided(StridedPattern):
    def lines(self, n: int) -> np.ndarray:
        region = self.region_lines
        idx = (self._pos + np.arange(n, dtype=np.int64) * self.stride_lines) % region
        self._pos = int((self._pos + n * self.stride_lines) % region)
        return idx + self.base_line


class OracleChase(PointerChasePattern):
    def lines(self, n: int) -> np.ndarray:
        region = self.region_lines
        idx = (self._pos + np.arange(n, dtype=np.int64)) % region
        self._pos = int((self._pos + n) % region)
        return self._order[idx] + self.base_line


class OracleMixture(MixtureWorkload):
    @property
    def _probs(self) -> np.ndarray:
        # computed as the previous constructor did
        w = np.array([c.weight for c in self.components], dtype=np.float64)
        return w / w.sum()

    def _lines(self, n_lines: int) -> np.ndarray:
        k = len(self.components)
        if k == 1:
            return self.components[0].pattern.lines(n_lines)
        choice = self._rng.choice(k, size=n_lines, p=self._probs)
        out = np.empty(n_lines, dtype=np.int64)
        for c in range(k):
            mask = choice == c
            cnt = int(mask.sum())
            if cnt:
                out[mask] = self.components[c].pattern.lines(cnt)
        return out


class OraclePirate(PirateThreadWorkload):
    def chunk(self, n_lines: int) -> tuple[np.ndarray, None]:
        if self._count <= 0:
            # stealing nothing: spin on one line (negligible footprint)
            return np.full(n_lines, PIRATE_BASE + self.index, dtype=np.int64), None
        ks = (self._pos + np.arange(n_lines, dtype=np.int64)) % self._count
        self._pos = (self._pos + n_lines) % self._count
        return ks * self.stride + (PIRATE_BASE + self.index), None


_ORACLE = {
    SequentialPattern: OracleSequential,
    StridedPattern: OracleStrided,
    PointerChasePattern: OracleChase,
    MixtureWorkload: OracleMixture,
    PirateThreadWorkload: OraclePirate,
}


def oracle(obj):
    """Switch ``obj`` and everything it generates from to the oracle."""
    if type(obj) in _ORACLE:
        obj.__class__ = _ORACLE[type(obj)]
    if isinstance(obj, PhasedWorkload):
        for wl, _ in obj.phases:
            oracle(wl)
    if isinstance(obj, MixtureWorkload):
        for comp in obj.components:
            oracle(comp.pattern)
    return obj


def state(obj) -> list:
    """Generator states and positions of ``obj`` and its parts, in order."""
    out = []
    rng = getattr(obj, "_rng", None)
    if rng is not None:
        out.append(rng.bit_generator.state)
    for attr in ("_pos", "_seg_left", "_phase_idx", "_lines_left"):
        if hasattr(obj, attr):
            out.append((attr, getattr(obj, attr)))
    if isinstance(obj, PhasedWorkload):
        for wl, _ in obj.phases:
            out.append(state(wl))
    if isinstance(obj, MixtureWorkload):
        for comp in obj.components:
            out.append(state(comp.pattern))
    return out


def assert_same_streams(new, old, sizes) -> None:
    for i, n in enumerate(sizes):
        got_lines, got_writes = new.chunk(n)
        want_lines, want_writes = old.chunk(n)
        assert got_lines.dtype == np.int64
        assert np.array_equal(got_lines, want_lines), (i, n)
        if want_writes is None:
            assert got_writes is None, (i, n)
        else:
            assert np.array_equal(got_writes, want_writes), (i, n)
    assert state(new) == state(old)


# ------------------------------------------------------------------ workloads

#: every zoo family beyond the suite, as zero-argument factories
_FAMILIES = {
    "cigar": lambda: make_cigar(seed=3),
    "zipf": lambda: make_zipf(0.5, 1.2, seed=3),
    "sharing": lambda: make_sharing(0.4, 0.5, num_threads=2, thread_id=1, seed=3),
    "random_micro": lambda: random_micro(0.25, seed=3),
    "sequential_micro": lambda: sequential_micro(0.25, seed=3),
}
_WORKLOADS = {
    **{name: (lambda name=name: make_benchmark(name, seed=5)) for name in BENCHMARK_NAMES},
    **_FAMILIES,
}

#: chunk sizes: one line, below one segment (the suite's shortest is 16
#: lines), across many segments, and large enough to wrap small regions
chunk_size = st.one_of(
    st.just(1),
    st.integers(2, 15),
    st.integers(16, 2_500),
    st.integers(2_500, 20_000),
)
chunk_sizes = st.lists(chunk_size, min_size=1, max_size=8)


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(_WORKLOADS)), sizes=chunk_sizes)
def test_workload_streams_match_oracle(name, sizes):
    build = _WORKLOADS[name]
    assert_same_streams(build(), oracle(build()), sizes)


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_every_workload_matches_oracle(name):
    """A fixed mixed sequence for each workload, so none goes unchecked."""
    build = _WORKLOADS[name]
    sizes = [1, 7, 2_000, 1, 16, 333, 9_000, 2_000, 3]
    new, old = build(), oracle(build())
    assert_same_streams(new, old, sizes)
    new.reset()
    old.reset()
    assert_same_streams(new, old, sizes[::-1])


def _pattern(kind: str, base: int, region: int, arg: int, seed: int):
    if kind == "seq":
        return SequentialPattern(base, region, seed=seed)
    if kind == "segmented":
        return SequentialPattern(base, region, segment_lines=arg, seed=seed)
    if kind == "strided":
        return StridedPattern(base, region, stride_lines=arg, seed=seed)
    if kind == "chase":
        return PointerChasePattern(base, region, seed=seed)
    return RandomPattern(base, region, seed=seed)


@st.composite
def small_mixture(draw):
    """A mixture of tiny regions, so chunks wrap every cyclic pattern."""
    specs = []
    base = 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("seq", "segmented", "strided", "chase", "random")))
        region = draw(st.one_of(st.integers(1, 12), st.integers(1, 300)))
        # segment length in [1, region]; strides up to past the region
        arg = draw(st.integers(1, region if kind == "segmented" else 2 * region + 3))
        seed = draw(st.integers(0, 2**32))
        weight = draw(st.floats(0.01, 10.0))
        specs.append((kind, base, region, arg, seed, weight))
        base += region + 1000
    write_fraction = draw(st.sampled_from((0.0, 0.3)))
    seed = draw(st.integers(0, 2**32))

    def build():
        comps = [
            MixtureComponent(pattern=_pattern(*spec[:5]), weight=spec[5])
            for spec in specs
        ]
        return MixtureWorkload(
            "small",
            comps,
            mem_fraction=0.5,
            cpi_base=1.0,
            write_fraction=write_fraction,
            seed=seed,
        )

    return build


@settings(max_examples=150)
@given(
    build=small_mixture(),
    sizes=st.lists(st.integers(0, 1_500), min_size=1, max_size=10),
)
def test_small_region_streams_match_oracle(build, sizes):
    assert_same_streams(build(), oracle(build()), sizes)


@settings(max_examples=60)
@given(
    source=st.sampled_from(("", "lbm", "gcc", "omnetpp")),
    record=st.integers(1, 5_000),
    sizes=chunk_sizes,
)
def test_replay_records_the_oracle_stream(source, record, sizes):
    """A replay records its source through the generators under test."""
    new = make_replay(source, 0.25, record_lines=record, seed=2)
    src = oracle(make_benchmark(source, seed=2) if source else random_micro(0.25, seed=2))
    src.reset()
    lines, writes = src.chunk(record)
    old = TraceReplayWorkload(new.name, lines, writes=writes)
    assert_same_streams(new, old, sizes)


_pirate_op = st.one_of(
    st.tuples(st.just("chunk"), st.integers(0, 5_000)),
    # a chunk ending within two lines of the stripe's end
    st.tuples(st.just("to_end"), st.integers(-2, 2)),
    st.tuples(st.just("set_count"), st.integers(0, 4_000)),
    st.tuples(st.just("seek"), st.integers(0, 10_000)),
)


@settings(max_examples=150)
@given(
    index=st.integers(0, 3),
    stride=st.integers(1, 4),
    count=st.integers(0, 4_000),
    ops=st.lists(_pirate_op, min_size=1, max_size=12),
)
def test_pirate_stripes_match_oracle(index, stride, count, ops):
    new = PirateThreadWorkload(index, stride)
    old = oracle(PirateThreadWorkload(index, stride))
    for wl in (new, old):
        wl.set_count(count)
    for op, arg in ops:
        if op == "to_end":
            op, arg = "chunk", max(new._count - new._pos + arg, 0)
        if op == "chunk":
            got, _ = new.chunk(arg)
            want, _ = old.chunk(arg)
            assert np.array_equal(got, want), (op, arg)
        else:
            getattr(new, op)(arg)
            getattr(old, op)(arg)
        assert (new._pos, new._count) == (old._pos, old._count)


# ------------------------------------------------------------ numpy invariant


@pytest.mark.parametrize("prior", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "bound", [1, 2, 3, 7, 1_000, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62]
)
def test_sized_integers_equal_scalar_draws(bound, prior):
    """``integers(0, b, size=k)`` is ``k`` scalar ``integers(0, b)`` calls.

    Same values and the same bit-generator end state, including the
    buffered 32-bit half an odd number of prior bounded draws leaves
    behind.  The segmented ``SequentialPattern`` draws its segment starts
    with one sized call and relies on this to consume its generator
    exactly as one call per segment would; if a numpy upgrade breaks it,
    stream generation must change or every golden fixture drifts.
    """
    for k in (0, 1, 2, 3, 5, 64):
        a = np.random.default_rng(1234 + k)
        b = np.random.default_rng(1234 + k)
        for g in (a, b):
            for _ in range(prior):
                g.integers(0, 1_000)
        sized = a.integers(0, bound, size=k)
        scalar = [int(b.integers(0, bound)) for _ in range(k)]
        where = f"numpy {np.__version__}, bound {bound}, k {k}, prior {prior}"
        assert sized.dtype == np.int64, where
        assert sized.tolist() == scalar, f"values differ: {where}"
        assert a.bit_generator.state == b.bit_generator.state, (
            f"bit-generator state differs: {where}"
        )
