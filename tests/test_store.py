"""The one checksummed store under the sweep cache, result store and grid cells.

``repro.store`` owns the envelope, the atomic write, quarantine-on-read and
``verify``/``repair``/``gc``; the three stores are views over it.  The
corruption matrix runs every damage mode through every view: each case
reads as a miss (quarantined when it is corruption) and is classified the
same way by the audit ``repro cache`` runs.  Entries in the exact bytes
older releases wrote still load as hits.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.parallel import CACHE_FORMAT, PointResult, SweepCache, result_to_payload
from repro.faults.chaos import CORRUPTION_MODES, corrupt_cache_entries
from repro.observability import Telemetry
from repro.scenarios import compile_grid, run_grid
from repro.scenarios.runner import CELL_FORMAT
from repro.service.store import STORE_FORMAT, ResultStore
from repro.store import Format, Store, checksum, seal, unseal, write_atomic

#: what ``repro cache`` scans with: every view's format
ALL_FORMATS = (CACHE_FORMAT, STORE_FORMAT, CELL_FORMAT)

KEY = "ab" * 32


class Sink:
    def __init__(self):
        self.lines = []

    def __call__(self, *args):
        self.lines.append(" ".join(str(a) for a in args))


# -- the module --------------------------------------------------------------------


def test_seal_unseal_round_trip():
    fmt = Format("demo_format", 3)
    payload = {"b": [1, 2.5], "a": None}
    text = seal(fmt, payload)
    envelope = json.loads(text)
    assert list(envelope) == ["demo_format", "sha256", "payload"]
    assert envelope["sha256"] == checksum(payload)
    assert unseal(text, (fmt,)) == (payload, None)
    assert unseal(text, (Format("demo_format", 4),)) == (None, None)  # stale


def test_decoder_failure_is_corrupt_even_when_the_checksum_verifies():
    def decode(payload):
        return int(payload["n"])

    fmt = Format("demo_format", 1, decode)
    assert unseal(seal(fmt, {"n": "7"}), (fmt,)) == (7, None)
    assert unseal(seal(fmt, {"n": "x"}), (fmt,)) == (None, "malformed payload")
    assert unseal(seal(fmt, {}), (fmt,)) == (None, "malformed payload")


def test_write_atomic_leaves_no_temp_file_on_failure(tmp_path):
    target = tmp_path / "entry.json"
    target.mkdir()
    (target / "occupied").write_text("x")  # os.replace cannot clobber it
    with pytest.raises(OSError):
        write_atomic(target, "{}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json"]


def test_quarantine_reports_to_the_view_and_logs(tmp_path, caplog):
    heard = []
    store = Store(tmp_path, Format("demo_format", 1), on_corrupt=lambda p, r: heard.append(r))
    store.path("k").write_text("{torn")
    with caplog.at_level("WARNING", logger="repro.store"):
        assert store.load("k") is None
    assert heard == ["unparseable JSON"]
    assert (tmp_path / "k.json.corrupt").exists()
    assert any("corrupt" in r.message for r in caplog.records)


# -- files older releases wrote -------------------------------------------------------

#: a sweep-cache entry byte for byte as ``cache_format`` 2 writers left it
PARENT_CACHE_ENTRY = (
    '{"cache_format": 2, "sha256": '
    '"007d773215a30b9930c705b61bf336a909d6a1a82130c16f1acf00b1623c1b44", '
    '"payload": {"index": 0, "size_mb": 8.0, "stolen_bytes": 0, '
    '"target_cache_bytes": 8388608, "seed": 1, "samples": [], "quality": null}}'
)

#: a result-store entry byte for byte as ``store_format`` 1 writers left it
PARENT_STORE_ENTRY = (
    '{"payload": {"rows": [{"cpi": 1.25, "size_mb": 8.0}], "stats": {"measured": 1}}, '
    '"sha256": "6df44b415f99ec0a1ef0f93aed4ae77938064273cea65b5d226d7ffc8219ba8e", '
    '"store_format": 1}'
)


def test_parent_sweep_cache_entry_loads_as_a_hit(tmp_path):
    (tmp_path / f"{KEY}.json").write_text(PARENT_CACHE_ENTRY)
    hit = SweepCache(tmp_path).load(KEY)
    assert hit is not None and hit.from_cache
    assert (hit.index, hit.size_mb, hit.target_cache_bytes) == (0, 8.0, 8388608)


def test_parent_result_store_entry_loads_as_a_hit(tmp_path):
    (tmp_path / f"{KEY}.json").write_text(PARENT_STORE_ENTRY)
    store = ResultStore(tmp_path)
    assert store.warm_start() == 1
    assert store.get(KEY) == {"rows": [{"cpi": 1.25, "size_mb": 8.0}], "stats": {"measured": 1}}


# -- the corruption matrix -------------------------------------------------------------


def _point(index: int = 0) -> PointResult:
    return PointResult(
        index=index, size_mb=8.0, stolen_bytes=0, target_cache_bytes=8 << 20,
        seed=1, samples=[],
    )


class SweepView:
    """The sweep cache: ``load`` is the view's read; corruption is counted."""

    dirname = "cache"

    def build(self, root: Path) -> None:
        SweepCache(root).store(KEY, _point())

    def load(self, root: Path) -> bool:
        tel = Telemetry()
        cache = SweepCache(root, telemetry=tel)
        hit = cache.load(KEY)
        counted = tel.summary()["measurement"]["counters"].get("cache_corrupt_total", 0)
        assert counted == cache.corruption_count == len(list(root.glob("*.corrupt")))
        if hit is not None:
            assert result_to_payload(hit) == result_to_payload(_point())
        return hit is not None

    def entry(self, root: Path) -> Path:
        return root / f"{KEY}.json"


class ServiceView:
    """The service result store: a restart's ``warm_start`` is the read."""

    dirname = "store"

    def build(self, root: Path) -> None:
        ResultStore(root).put(KEY, {"rows": [{"cpi": 1.0}], "stats": {}})

    def load(self, root: Path) -> bool:
        store = ResultStore(root)
        loaded = store.warm_start()
        assert (store.get(KEY) is not None) == bool(loaded)
        return bool(loaded)

    def entry(self, root: Path) -> Path:
        return root / f"{KEY}.json"


class GridView:
    """A grid's cell artifacts: ``run_grid(resume=True)`` is the read."""

    dirname = "cells"

    CONFIG = {
        "name": "t",
        "axes": {
            "workload": [{"family": "micro.random", "working_set_mb": 0.5}],
            "pirate": [{"threads": 1, "sizes_mb": [2.0]}],
        },
        "sweep": {"interval_instructions": 30000.0, "n_intervals": 1},
    }

    def build(self, root: Path) -> None:
        run_grid(compile_grid(self.CONFIG), out_dir=root.parent)

    def load(self, root: Path) -> bool:
        result = run_grid(compile_grid(self.CONFIG), out_dir=root.parent, resume=True)
        return result.resumed_cells == 1

    def entry(self, root: Path) -> Path:
        (path,) = root.glob("*.json")
        return path


VIEWS = {"sweep": SweepView(), "service": ServiceView(), "grid": GridView()}


def _stale(root: Path, view) -> str:
    path = view.entry(root)
    envelope = json.loads(path.read_text())
    fmt = next(f for f in ALL_FORMATS if f.key in envelope)
    envelope[fmt.key] = fmt.version + 1
    path.write_text(json.dumps(envelope))
    return "stale"


def _garbage(root: Path, view) -> str:
    view.entry(root).write_text('{"payload": [oops')
    return "corrupt"


def _orphan_tmp(root: Path, view) -> str:
    (root / "tmpdeadbeef.tmp").write_text('{"half a wri')
    return "tmp"


def _chaos(mode):
    def damage(root: Path, view) -> str:
        assert len(corrupt_cache_entries(root, seed=3, count=1, mode=mode)) == 1
        return "corrupt"

    return damage


CASES = {
    **{mode: _chaos(mode) for mode in CORRUPTION_MODES},
    "garbage-json": _garbage,
    "stale-format": _stale,
    "orphaned-tmp": _orphan_tmp,
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One pristine store directory per view, copied by every case."""
    roots = {}
    for name, view in VIEWS.items():
        root = tmp_path_factory.mktemp(name) / view.dirname
        root.mkdir()
        view.build(root)
        roots[name] = root
    return roots


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src.parent, dst)
    return dst / src.name


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("view_name", VIEWS)
def test_corruption_matrix(tmp_path, built, view_name, case):
    view = VIEWS[view_name]
    root = _copy(built[view_name], tmp_path / "a")
    kind = CASES[case](root, view)
    spare = _copy(root, tmp_path / "b")

    # verify classifies it and mutates nothing
    before = sorted(p.name for p in root.iterdir())
    audit = Store(root, ALL_FORMATS).verify()
    assert sorted(p.name for p in root.iterdir()) == before
    assert len(audit.corrupt) == (kind == "corrupt")
    assert len(audit.stale_version) == (kind == "stale")
    assert len(audit.stale_tmp) == (kind == "tmp")
    assert len(audit.ok) == (kind == "tmp")
    assert audit.clean == (kind != "corrupt")

    # the view reads a miss (a hit past an orphaned temp file), quarantining
    # corruption and never serving it
    assert view.load(root) == (kind == "tmp")
    assert len(list(root.glob("*.json.corrupt"))) == (kind == "corrupt")

    # repair quarantines, gc sweeps the debris, live entries survive
    store = Store(spare, ALL_FORMATS)
    assert len(store.repair().corrupt) == (kind == "corrupt")
    assert store.verify().clean
    assert store.gc() == 1
    after = store.verify()
    assert after.clean and not (after.quarantined or after.stale_tmp or after.stale_version)
    assert len(after.ok) == (kind == "tmp")


# -- ``repro cache`` on all three kinds of directory ----------------------------------


@pytest.mark.parametrize("view_name", VIEWS)
def test_cache_cli_covers_every_store_kind(tmp_path, built, view_name):
    root = _copy(built[view_name], tmp_path / "a")
    assert main(["cache", "verify", str(root)], out=Sink()) == 0
    corrupt_cache_entries(root, seed=1, count=1, mode="tamper")
    out = Sink()
    assert main(["cache", "verify", str(root)], out=out) == 1
    assert "1 corrupt" in out.lines[0]
    assert main(["cache", "repair", str(root)], out=Sink()) == 0
    assert main(["cache", "verify", str(root)], out=Sink()) == 0
    assert main(["cache", "gc", str(root)], out=Sink()) == 0
    assert not list(root.iterdir())
