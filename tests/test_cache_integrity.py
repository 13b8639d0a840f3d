"""Sweep-cache integrity: checksummed envelopes, corruption handling, CLI.

The cache's contract after PR 6: a damaged entry — torn write, bit rot,
hand-edit, foreign format — is *never served and never fatal*.  It reads
as a miss, is quarantined on the spot (renamed ``*.corrupt`` so the
evidence survives), logged, and counted; re-measurement then re-stores
the key.  ``verify``/``repair``/``gc`` (on ``SweepCache.disk``) expose the
same machinery for offline maintenance; ``tests/test_store.py`` runs every
damage mode against every store view.
"""

import json

import pytest

from repro.config import nehalem_config
from repro.core.parallel import (
    CACHE_FORMAT_VERSION,
    SweepCache,
    SweepSpec,
    point_cache_key,
    result_from_payload,
    result_to_payload,
    run_sweep,
    sweep_points,
)
from repro.faults.chaos import CORRUPTION_MODES, corrupt_cache_entries
from repro.observability import Telemetry
from repro.store import checksum
from repro.workloads import TargetSpec

SIZES = [8.0, 4.0]


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        target=TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7),
        benchmark="micro.random",
        config=nehalem_config(),
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


@pytest.fixture()
def populated(tmp_path):
    """A cache directory holding one full sweep, plus the spec and results."""
    spec = small_spec()
    cache_dir = tmp_path / "cache"
    results, stats = run_sweep(spec, SIZES, cache_dir=cache_dir)
    assert stats.measured == len(SIZES)
    return spec, cache_dir, results


# -- payload serialization ---------------------------------------------------------


def test_payload_round_trip_is_bit_exact(populated):
    _spec, _dir, results = populated
    for result in results:
        back = result_from_payload(result_to_payload(result))
        assert result_to_payload(back) == result_to_payload(result)
        assert back.samples == result.samples
        assert back.from_cache is False and back.from_journal is False


def test_payload_round_trip_marks_provenance(populated):
    _spec, _dir, results = populated
    payload = result_to_payload(results[0])
    assert result_from_payload(payload, from_cache=True).from_cache
    assert result_from_payload(payload, from_journal=True).from_journal


def test_result_from_payload_rejects_garbled(populated):
    _spec, _dir, results = populated
    payload = result_to_payload(results[0])
    del payload["samples"]
    with pytest.raises((KeyError, TypeError)):
        result_from_payload(payload)


# -- envelope format ---------------------------------------------------------------


def test_entries_are_checksummed_envelopes(populated):
    _spec, cache_dir, _results = populated
    for path in cache_dir.glob("*.json"):
        envelope = json.loads(path.read_text())
        assert envelope["cache_format"] == CACHE_FORMAT_VERSION
        assert envelope["sha256"] == checksum(envelope["payload"])


def test_load_round_trip(populated):
    spec, cache_dir, results = populated
    cache = SweepCache(cache_dir)
    for point, result in zip(sweep_points(spec, SIZES), sorted(results, key=lambda r: r.index)):
        hit = cache.load(point_cache_key(spec, point))
        assert hit is not None and hit.from_cache
        assert result_to_payload(hit) == result_to_payload(result)


def test_missing_key_is_a_plain_miss(tmp_path):
    cache = SweepCache(tmp_path)
    assert cache.load("0" * 64) is None
    assert cache.corruption_count == 0


# -- corruption: every mode reads as a quarantined miss ----------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_corruption_is_a_quarantined_miss(populated, mode):
    spec, cache_dir, _results = populated
    victims = corrupt_cache_entries(cache_dir, seed=3, count=1, mode=mode)
    assert len(victims) == 1
    key = victims[0].stem
    tel = Telemetry()
    cache = SweepCache(cache_dir, telemetry=tel)
    assert cache.load(key) is None
    assert cache.corruption_count == 1
    assert (cache_dir / f"{key}.json.corrupt").exists()
    assert not (cache_dir / f"{key}.json").exists()
    counters = tel.summary()["measurement"]["counters"]
    assert counters.get("cache_corrupt_total") == 1


def test_corruption_warning_is_logged(populated, caplog):
    _spec, cache_dir, _results = populated
    victims = corrupt_cache_entries(cache_dir, seed=3, count=1, mode="zero")
    cache = SweepCache(cache_dir)
    with caplog.at_level("WARNING", logger="repro.store"):
        assert cache.load(victims[0].stem) is None
    assert any("corrupt" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "text,reason",
    [
        ("{torn", "unparseable"),
        ("[1, 2]", "not a JSON object"),
        (json.dumps({"cache_format": CACHE_FORMAT_VERSION}), "missing payload"),
        (
            json.dumps(
                {"cache_format": CACHE_FORMAT_VERSION, "sha256": "beef", "payload": {}}
            ),
            "checksum",
        ),
    ],
)
def test_structural_garbage_is_corrupt(tmp_path, text, reason):
    path = tmp_path / ("a" * 64 + ".json")
    path.write_text(text)
    cache = SweepCache(tmp_path)
    assert cache.load("a" * 64) is None
    assert cache.corruption_count == 1


def test_wellformed_envelope_with_malformed_payload_is_corrupt(tmp_path):
    # checksum verifies, but the payload cannot rebuild a PointResult
    payload = {"index": "not-an-int"}
    path = tmp_path / ("b" * 64 + ".json")
    path.write_text(
        json.dumps(
            {
                "cache_format": CACHE_FORMAT_VERSION,
                "sha256": checksum(payload),
                "payload": payload,
            }
        )
    )
    cache = SweepCache(tmp_path)
    assert cache.load("b" * 64) is None
    assert cache.corruption_count == 1


def test_stale_format_version_is_a_miss_not_corruption(tmp_path):
    # a v1-era entry: valid JSON, old format — stale, not dirt; not quarantined
    path = tmp_path / ("c" * 64 + ".json")
    path.write_text(json.dumps({"cache_format": 1, "index": 0}))
    cache = SweepCache(tmp_path)
    assert cache.load("c" * 64) is None
    assert cache.corruption_count == 0
    assert path.exists()


def test_corrupted_entry_heals_on_remeasure(populated):
    """The self-healing loop: corrupt -> miss -> re-measure -> re-store."""
    spec, cache_dir, results = populated
    corrupt_cache_entries(cache_dir, seed=3, count=len(SIZES), mode="truncate")
    again, stats = run_sweep(spec, SIZES, cache_dir=cache_dir)
    assert stats.cache_hits == 0
    assert stats.measured == len(SIZES)
    assert stats.cache_corrupt == len(SIZES)
    assert [result_to_payload(r) for r in sorted(again, key=lambda r: r.index)] == [
        result_to_payload(r) for r in sorted(results, key=lambda r: r.index)
    ]
    # and the re-stored entries verify clean
    assert SweepCache(cache_dir).disk.verify().clean


# -- verify / repair / gc ----------------------------------------------------------


def test_verify_classifies_everything(populated):
    _spec, cache_dir, _results = populated
    corrupt_cache_entries(cache_dir, seed=3, count=1, mode="tamper")
    (cache_dir / ("d" * 64 + ".json")).write_text(json.dumps({"cache_format": 1}))
    (cache_dir / "leftover.tmp").write_text("half a write")
    audit = SweepCache(cache_dir).disk.verify()
    assert len(audit.ok) == len(SIZES) - 1
    assert len(audit.corrupt) == 1
    assert len(audit.stale_version) == 1
    assert audit.stale_tmp == ["leftover.tmp"]
    assert audit.total == len(SIZES) + 1
    assert not audit.clean
    report = audit.format()
    assert "1 corrupt" in report and "stale-version" in report


def test_verify_mutates_nothing(populated):
    _spec, cache_dir, _results = populated
    corrupt_cache_entries(cache_dir, seed=3, count=1, mode="zero")
    before = sorted(p.name for p in cache_dir.iterdir())
    SweepCache(cache_dir).disk.verify()
    assert sorted(p.name for p in cache_dir.iterdir()) == before


def test_repair_quarantines_then_verify_is_clean(populated):
    _spec, cache_dir, _results = populated
    corrupt_cache_entries(cache_dir, seed=3, count=1, mode="truncate")
    cache = SweepCache(cache_dir)
    audit = cache.disk.repair()
    assert len(audit.corrupt) == 1
    after = cache.disk.verify()
    assert after.clean
    assert len(after.quarantined) == 1


def test_gc_sweeps_debris_and_keeps_live_entries(populated):
    _spec, cache_dir, _results = populated
    corrupt_cache_entries(cache_dir, seed=3, count=1, mode="zero")
    (cache_dir / "leftover.tmp").write_text("x")
    (cache_dir / ("e" * 64 + ".json")).write_text(json.dumps({"cache_format": 1}))
    cache = SweepCache(cache_dir)
    cache.disk.repair()
    removed = cache.disk.gc()
    assert removed == 3  # quarantined + tmp + stale-version
    audit = cache.disk.verify()
    assert audit.clean and not audit.quarantined and not audit.stale_tmp
    assert len(audit.ok) == len(SIZES) - 1


# -- chaos corruption helper -------------------------------------------------------


def test_corrupt_cache_entries_is_deterministic(populated):
    _spec, cache_dir, _results = populated
    first = corrupt_cache_entries(cache_dir, seed=9, count=1, mode="tamper")
    # same seed on the same listing picks the same victim (idempotent names)
    assert corrupt_cache_entries(cache_dir, seed=9, count=1, mode="tamper") == first


def test_corrupt_cache_entries_empty_and_validation(tmp_path):
    assert corrupt_cache_entries(tmp_path, count=1) == []
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown corruption mode"):
        corrupt_cache_entries(tmp_path, mode="melt")
    with pytest.raises(ConfigError, match="count"):
        corrupt_cache_entries(tmp_path, count=-1)
