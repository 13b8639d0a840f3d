"""Machine and cache-hierarchy configuration.

:func:`nehalem_config` reproduces Table I of the paper (quad-core Intel
Nehalem E5520): private 32K/8-way L1 and 256K/8-way L2 with tree pseudo-LRU,
and a shared, inclusive 8MB/16-way L3 with the Nehalem accessed-bit
replacement policy.  All experiments run on this geometry; unit tests build
tiny variants through the same dataclasses.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError
from .units import GHZ, KB, LINE_SIZE, MB, bytes_per_cycle, is_pow2

#: Replacement policy identifiers accepted by :class:`CacheConfig`.
POLICIES = ("lru", "nru", "plru", "random")

#: Simulation-kernel modes accepted by :class:`MachineConfig`.
KERNEL_MODES = ("auto", "scalar")

#: Modes earlier releases accepted.  They are rejected with their own
#: message, so a stale ``REPRO_KERNEL``, ``--kernel`` or journaled machine
#: fails in one line that says what to use instead.
_RETIRED_KERNEL_MODES = ("vector", "batch")


def check_kernel(name: str) -> str:
    """Validate a kernel-mode name; returns it unchanged.

    Raises a one-line :class:`~repro.errors.ConfigError` for a retired or
    unknown mode.
    """
    if name in KERNEL_MODES:
        return name
    if name in _RETIRED_KERNEL_MODES:
        raise ConfigError(
            f"kernel mode {name!r} was retired: use 'auto' (the C hierarchy "
            f"walk) or 'scalar' (the interpreter loops), which give "
            f"bit-identical results"
        )
    raise ConfigError(f"unknown kernel mode {name!r}; choose one of {KERNEL_MODES}")


def _default_kernel() -> str:
    """Default kernel mode; ``REPRO_KERNEL`` overrides it process-wide.

    The env hook lets harness scripts (``regen_goldens.py --kernel``, the
    benchmarks) force a mode without threading a flag through every config
    construction site.
    """
    name = os.environ.get("REPRO_KERNEL", "auto")
    try:
        return check_kernel(name)
    except ConfigError as e:
        raise ConfigError(f"REPRO_KERNEL: {e}") from None


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level."""

    name: str
    size: int
    ways: int
    line_size: int = LINE_SIZE
    policy: str = "lru"
    #: Inclusive caches back-invalidate lower levels on eviction (Nehalem L3).
    inclusive: bool = False
    shared: bool = False
    write_allocate: bool = True
    write_back: bool = True

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown replacement policy {self.policy!r}")
        if self.ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if not is_pow2(self.line_size):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.size % (self.ways * self.line_size) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size} is not a multiple of "
                f"ways*line_size = {self.ways * self.line_size}"
            )
        if not is_pow2(self.num_sets):
            raise ConfigError(
                f"{self.name}: derived set count {self.num_sets} must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, associativity and line size."""
        return self.size // (self.ways * self.line_size)

    @property
    def num_lines(self) -> int:
        """Total line capacity of the cache."""
        return self.size // self.line_size

    def with_ways(self, ways: int) -> "CacheConfig":
        """Same sets/line size, different associativity (way-stealing sweeps)."""
        return replace(self, ways=ways, size=self.num_sets * ways * self.line_size)

    def with_size_same_assoc(self, size: int) -> "CacheConfig":
        """Same associativity, different size (set-reduction sweeps)."""
        return replace(self, size=size)


@dataclass(frozen=True)
class CoreConfig:
    """Timing parameters of one (in-order, superscalar-abstracted) core.

    The model is interval-style: a quantum of ``n`` instructions costs
    ``n * cpi_base`` cycles plus stall cycles for each miss class, with
    memory-level parallelism overlapping L3/DRAM latencies.
    """

    clock_hz: float = 2.26 * GHZ
    l2_hit_latency: float = 10.0
    l3_hit_latency: float = 38.0
    dram_latency: float = 190.0
    #: Peak L3 bandwidth one core can draw (bytes/cycle); two Pirate threads
    #: at this rate give the paper's 56 GB/s two-core figure.
    l3_port_bytes_per_cycle: float = 12.4


@dataclass(frozen=True)
class MachineConfig:
    """Full machine: cores, hierarchy, bandwidth caps, prefetcher switch."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1", 32 * KB, 8, policy="plru")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * KB, 8, policy="plru")
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "L3", 8 * MB, 16, policy="nru", inclusive=True, shared=True
        )
    )
    #: Off-chip (DRAM) bandwidth cap in GB/s; the paper's system sustains 10.4.
    dram_bandwidth_gbps: float = 10.4
    #: Aggregate shared-L3 bandwidth cap in GB/s (68 on the paper's system).
    l3_bandwidth_gbps: float = 68.0
    prefetch_enabled: bool = True
    #: When True (default) the hierarchy assumes threads do not share cache
    #: lines, so inclusive-L3 back-invalidation only needs to visit the core
    #: that fetched the line.  Every workload in this library uses disjoint
    #: per-thread address spaces; set False to force all-core invalidation.
    private_data: bool = True
    #: Stream prefetcher: launch after this many consecutive +1-line strides.
    prefetch_trigger: int = 2
    #: Prefetch depth (lines fetched ahead of a detected stream).
    prefetch_degree: int = 4
    #: Simulation-kernel selection: ``auto`` runs every chunk through the C
    #: hierarchy walk (:mod:`repro.kernels.cext`) wherever it covers the
    #: machine, and the interpreter loops otherwise (no C compiler,
    #: ``REPRO_CEXT=0``, random replacement, more than 63 ways or 127
    #: cores; ``CacheHierarchy.kernel_degraded`` says which).  ``scalar``
    #: always runs the interpreter loops, the oracle the walk is pinned
    #: to.  Both modes are bit-identical; ``REPRO_KERNEL`` overrides the
    #: default process-wide.
    kernel: str = field(default_factory=_default_kernel)

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("machine needs at least one core")
        line = self.l1.line_size
        if not (line == self.l2.line_size == self.l3.line_size):
            raise ConfigError("all cache levels must share one line size")
        if self.dram_bandwidth_gbps <= 0 or self.l3_bandwidth_gbps <= 0:
            raise ConfigError("bandwidth caps must be positive")
        check_kernel(self.kernel)

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Off-chip bandwidth cap expressed in bytes per core-clock cycle."""
        return bytes_per_cycle(self.dram_bandwidth_gbps, self.core.clock_hz)

    @property
    def l3_bytes_per_cycle(self) -> float:
        """Shared L3 bandwidth cap in bytes per cycle."""
        return bytes_per_cycle(self.l3_bandwidth_gbps, self.core.clock_hz)


def nehalem_config(
    *,
    prefetch_enabled: bool = True,
    num_cores: int = 4,
    kernel: str | None = None,
) -> MachineConfig:
    """The paper's evaluation machine (Table I + §III-A bandwidth figures)."""
    kwargs = {} if kernel is None else {"kernel": kernel}
    return MachineConfig(
        num_cores=num_cores, prefetch_enabled=prefetch_enabled, **kwargs
    )


def tiny_config(
    *,
    l3_size: int = 8 * KB,
    l3_ways: int = 4,
    policy: str = "lru",
    num_cores: int = 2,
    prefetch_enabled: bool = False,
    kernel: str | None = None,
) -> MachineConfig:
    """A miniature machine for unit tests (same code paths, tiny state)."""
    kwargs = {} if kernel is None else {"kernel": kernel}
    return MachineConfig(
        num_cores=num_cores,
        l1=CacheConfig("L1", 1 * KB, 2, policy="plru"),
        l2=CacheConfig("L2", 2 * KB, 4, policy="plru"),
        l3=CacheConfig("L3", l3_size, l3_ways, policy=policy, inclusive=True, shared=True),
        prefetch_enabled=prefetch_enabled,
        **kwargs,
    )


def machine_content_token(config: MachineConfig) -> dict:
    """Canonical machine description for content keys (caches, journals).

    The ``kernel`` field is execution strategy, not experiment content —
    the C walk and the scalar interpreter are bit-identical
    (``tests/test_hierwalk``, ``tests/test_kernels``) — so it is excluded:
    a sweep cached or journaled under ``auto`` is the same sweep under
    ``scalar``, and a journal written by one can be resumed by the other.
    Entries written under the retired ``vector``/``batch`` modes keep
    their keys for the same reason.
    """
    token = asdict(config)
    token.pop("kernel", None)
    # the retired L3 set-sampling factor, fixed at its exact value 1: keys
    # written before its removal (sweep cache, journals, grid cells,
    # service store) stay valid
    token["sample_sets"] = 1
    return token


def machine_to_dict(config: MachineConfig) -> dict:
    """The full machine as pure-JSON data (the service wire format).

    Unlike :func:`machine_content_token` this keeps every field — it
    describes a machine to *construct*, not to key — and round-trips
    exactly through :func:`machine_from_dict`.
    """
    return asdict(config)


def machine_from_dict(data: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :func:`machine_to_dict` output.

    Raises :class:`~repro.errors.ConfigError` on structural junk as well as
    on semantic junk (the dataclass validators run as usual), so a garbled
    wire payload is one clean error instead of a deep TypeError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"machine must be a mapping, got {type(data).__name__}")
    kwargs = dict(data)
    # wire payloads and journals from before set sampling's removal carry
    # its exact value 1; any other value names a model that no longer exists
    if kwargs.pop("sample_sets", 1) != 1:
        raise ConfigError(
            "machine: L3 set sampling was removed; sample_sets must be 1 (exact)"
        )
    known = {f.name for f in fields(MachineConfig)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ConfigError(f"machine: unknown field(s) {', '.join(map(repr, unknown))}")
    try:
        if "core" in kwargs:
            kwargs["core"] = CoreConfig(**kwargs["core"])
        for level in ("l1", "l2", "l3"):
            if level in kwargs:
                kwargs[level] = CacheConfig(**kwargs[level])
        return MachineConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"machine: {e}") from None
