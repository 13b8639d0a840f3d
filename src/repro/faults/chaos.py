"""Process-level chaos injection for supervised sweeps.

The simulated machine itself is never perturbed; this module perturbs the
*execution layer around it* — the pool workers and the on-disk result
cache — the way real multi-tenant hosts do: workers get OOM-killed
mid-point, points hang on a wedged NFS mount, cached entries rot on disk.
A :class:`ChaosPlan` is a seedable, pure-data schedule of those
process-level faults, so every failure it provokes is bit-reproducible and
the sweep executor under a :class:`~repro.core.parallel.SupervisorPolicy`
can be *proven* to uphold its headline invariant: under any chaos
schedule, a supervised sweep either returns curves bit-identical to a
clean serial run or explicitly quarantines the affected points — never
silently wrong data (``tests/test_chaos.py``).

Worker-side faults are keyed by ``(point index, attempt)`` and have one
transport: the :data:`CHAOS_ENV` environment variable, set by the plan's
context manager or by the caller's environment and inherited by forked
and spawned workers alike.  Every sweep reads it at point time, whether
the batch CLI, a library call or a curve-service job started it, so
enabling chaos never touches a :class:`~repro.core.parallel.SweepSpec`
and therefore never changes a cache key.  Cache corruption is applied
directly to a :class:`~repro.core.parallel.SweepCache` directory by
:func:`corrupt_cache_entries`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..rng import make_rng, stable_seed

#: Environment variable carrying a JSON-encoded plan into pool workers.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit code a chaos-killed worker dies with (distinctive in post-mortems).
CHAOS_KILL_EXIT = 87

#: Cache-corruption modes understood by :func:`corrupt_cache_entries`.
CORRUPTION_MODES = ("truncate", "tamper", "zero")


class ChaosError(RuntimeError):
    """The in-worker exception an ``error`` fault raises (a poisoned point)."""


def _attempt_map(raw: dict) -> dict[int, tuple[int, ...]]:
    """Normalize a JSON-decoded ``{index: [attempts]}`` map (string keys)."""
    return {int(k): tuple(int(a) for a in v) for k, v in raw.items()}


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic schedule of process-level faults for one sweep.

    ``kills`` / ``hangs`` / ``errors`` map a sweep point index to the
    1-based *attempt numbers* on which the fault fires: a worker measuring
    that point on that attempt dies with :data:`CHAOS_KILL_EXIT`, sleeps
    ``hang_seconds`` (tripping the supervisor's wall-clock watchdog), or
    raises :class:`ChaosError`.  Keying by attempt makes escalation
    scenarios expressible exactly: ``{1: (1, 2)}`` kills point 1's first
    two attempts and lets the third succeed; scheduling more attempts than
    the supervisor's failure budget forces a quarantine.
    """

    seed: int = 0
    kills: dict[int, tuple[int, ...]] = field(default_factory=dict)
    hangs: dict[int, tuple[int, ...]] = field(default_factory=dict)
    errors: dict[int, tuple[int, ...]] = field(default_factory=dict)
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ConfigError(f"hang_seconds must be positive, got {self.hang_seconds}")
        for name in ("kills", "hangs", "errors"):
            for index, attempts in getattr(self, name).items():
                if index < 0 or any(a < 1 for a in attempts):
                    raise ConfigError(
                        f"{name}: point indexes must be >= 0 and attempts >= 1, "
                        f"got {index}: {attempts}"
                    )

    @classmethod
    def random(
        cls,
        n_points: int,
        *,
        seed: int = 0,
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        error_rate: float = 0.0,
        repeats: int = 1,
        hang_seconds: float = 30.0,
    ) -> "ChaosPlan":
        """Compile a concrete schedule from per-point fault probabilities.

        Each point draws independently per fault kind from a child stream of
        ``seed``; a hit schedules the fault on attempts ``1..repeats``
        (``repeats`` at or above the supervisor's failure budget forces a
        quarantine).  Same seed, same schedule — always.
        """
        if n_points < 0:
            raise ConfigError(f"n_points must be >= 0, got {n_points}")
        if repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {repeats}")
        for name, rate in (("kill", kill_rate), ("hang", hang_rate), ("error", error_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name}_rate must be in [0, 1], got {rate}")
        window = tuple(range(1, repeats + 1))
        schedule: dict[str, dict[int, tuple[int, ...]]] = {}
        for kind, rate in (("kills", kill_rate), ("hangs", hang_rate), ("errors", error_rate)):
            rng = make_rng(stable_seed(seed, "chaos", kind))
            schedule[kind] = {
                i: window for i in range(n_points) if rng.random() < rate
            }
        return cls(seed=seed, hang_seconds=hang_seconds, **schedule)

    # -- env transport (into pool workers) -----------------------------------------

    def to_json(self) -> str:
        """The plan as canonical JSON (the :data:`CHAOS_ENV` payload)."""
        return json.dumps(
            {
                "seed": self.seed,
                "kills": {str(k): list(v) for k, v in sorted(self.kills.items())},
                "hangs": {str(k): list(v) for k, v in sorted(self.hangs.items())},
                "errors": {str(k): list(v) for k, v in sorted(self.errors.items())},
                "hang_seconds": self.hang_seconds,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        """Rebuild a plan from :meth:`to_json` output (raises on junk)."""
        try:
            raw = json.loads(text)
            return cls(
                seed=int(raw.get("seed", 0)),
                kills=_attempt_map(raw.get("kills", {})),
                hangs=_attempt_map(raw.get("hangs", {})),
                errors=_attempt_map(raw.get("errors", {})),
                hang_seconds=float(raw.get("hang_seconds", 30.0)),
            )
        except (ValueError, TypeError, AttributeError) as e:
            raise ConfigError(f"invalid chaos plan: {e}") from None

    def install_env(self) -> None:
        """Publish this plan to workers via :data:`CHAOS_ENV`."""
        os.environ[CHAOS_ENV] = self.to_json()

    @staticmethod
    def clear_env() -> None:
        """Remove any installed plan."""
        os.environ.pop(CHAOS_ENV, None)

    def __enter__(self) -> "ChaosPlan":
        self.install_env()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.clear_env()

    # -- introspection --------------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the plan schedules no worker-side fault at all."""
        return not (self.kills or self.hangs or self.errors)


def chaos_from_env() -> ChaosPlan | None:
    """The installed :class:`ChaosPlan`, or None when chaos is off.

    A malformed payload raises :class:`~repro.errors.ConfigError` rather
    than silently disabling chaos — a chaos test that quietly ran clean
    would prove nothing.
    """
    text = os.environ.get(CHAOS_ENV)
    if not text:
        return None
    return ChaosPlan.from_json(text)


def apply_chaos(
    plan: ChaosPlan | None, index: int, attempt: int, *, fatal_ok: bool = True
) -> None:
    """Fire whatever fault ``plan`` schedules for ``(index, attempt)``.

    Called by every sweep point attempt before measuring.  ``fatal_ok=False``
    (the in-process serial path) applies only the ``error`` fault — killing
    or hanging the caller's own process would take the supervisor down with
    it, which is exactly what the worker boundary exists to prevent.
    """
    if plan is None:
        return
    if attempt in plan.errors.get(index, ()):
        raise ChaosError(f"chaos error injected at point {index} attempt {attempt}")
    if not fatal_ok:
        return
    if attempt in plan.hangs.get(index, ()):
        time.sleep(plan.hang_seconds)
    if attempt in plan.kills.get(index, ()):
        os._exit(CHAOS_KILL_EXIT)


def corrupt_cache_entries(
    root: str | Path,
    *,
    seed: int = 0,
    count: int = 1,
    mode: str = "truncate",
) -> list[Path]:
    """Deterministically rot ``count`` entries of a sweep-cache directory.

    ``truncate`` chops an entry mid-JSON (a crash-torn write on a filesystem
    without atomic rename), ``tamper`` flips a payload value while leaving
    the JSON well-formed (silent bit rot — only the checksum can catch it),
    ``zero`` empties the file.  Victims are drawn reproducibly from the
    sorted entry list, so a chaos schedule's corruption is as replayable as
    its kills.  Returns the corrupted paths.
    """
    if mode not in CORRUPTION_MODES:
        raise ConfigError(f"unknown corruption mode {mode!r}; known: {CORRUPTION_MODES}")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    entries = sorted(Path(root).glob("*.json"))
    if not entries or count == 0:
        return []
    rng = make_rng(stable_seed(seed, "chaos-cache"))
    picks = rng.choice(len(entries), size=min(count, len(entries)), replace=False)
    victims = [entries[int(i)] for i in sorted(picks)]
    for path in victims:
        if mode == "zero":
            path.write_text("")
        elif mode == "truncate":
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)])
        else:  # tamper: keep valid JSON, break the content checksum
            envelope = json.loads(path.read_text())
            body = envelope.get("payload", envelope)
            body["seed"] = int(body.get("seed", 0)) + 1
            path.write_text(json.dumps(envelope))
    return victims
