"""Scenario grids: expansion properties, execution equivalence, CLI contract.

The compiler's contract is that a grid is a pure function of config
*content*: the cartesian cell count is exact, the expansion order is
deterministic, cell keys survive dict-key reordering, duplicates dedupe
first-wins, and compile errors (unknown keys, non-representable ways) fire
before any simulation with ``rc=2`` at the CLI.  The runner's contract
mirrors the sweep engine's: results are bit-identical for any worker
count, and re-runs dedupe to 100% cache hits.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.scenarios import (
    CompiledGrid,
    GridError,
    compile_grid,
    emit,
    format_summary,
    load_grid_config,
    run_grid,
)

#: a fast grid: tiny interval, one sweep point per cell
FAST_SWEEP = {"interval_instructions": 30000.0, "n_intervals": 1}


def small_config(**overrides) -> dict:
    config = {
        "name": "t",
        "axes": {
            "workload": [{"family": "micro.random", "working_set_mb": 0.5}],
            "pirate": [{"threads": 1, "sizes_mb": [2.0]}],
        },
        "sweep": dict(FAST_SWEEP),
    }
    config.update(overrides)
    return config


class Sink:
    def __init__(self):
        self.lines = []

    def __call__(self, *args):
        self.lines.append(" ".join(str(a) for a in args))

    @property
    def text(self):
        return "\n".join(self.lines)


# -- expansion properties ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n_workloads=st.integers(1, 3),
    n_policies=st.integers(1, 4),
    n_prefetch=st.integers(1, 2),
    n_pirates=st.integers(1, 2),
    n_engines=st.integers(1, 2),
)
def test_cartesian_cell_count(n_workloads, n_policies, n_prefetch, n_pirates, n_engines):
    """Cell count is the exact product of distinct axis lengths."""
    config = small_config()
    config["axes"] = {
        "workload": [
            {"family": "micro.random", "working_set_mb": 0.5 + 0.5 * i}
            for i in range(n_workloads)
        ],
        "policy": ["lru", "nru", "plru", "random"][:n_policies],
        "prefetch": [True, False][:n_prefetch],
        "pirate": [
            {"threads": t, "sizes_mb": [2.0]} for t in range(1, n_pirates + 1)
        ],
        "engine": ["measure", "surrogate"][:n_engines],
    }
    grid = compile_grid(config)
    assert len(grid.cells) == n_workloads * n_policies * n_prefetch * n_pirates * n_engines
    assert grid.duplicates == 0
    assert len({c.key for c in grid.cells}) == len(grid.cells)


def test_deterministic_ordering():
    config = small_config()
    config["axes"]["policy"] = ["nru", "lru"]
    config["axes"]["engine"] = ["measure", "surrogate"]
    a = compile_grid(config)
    b = compile_grid(config)
    assert [c.key for c in a.cells] == [c.key for c in b.cells]
    # nesting order: workload > machine > policy > prefetch > pirate > engine
    assert [(c.policy, c.engine) for c in a.cells] == [
        ("nru", "measure"), ("nru", "surrogate"),
        ("lru", "measure"), ("lru", "surrogate"),
    ]


def test_keys_stable_under_dict_reorder():
    """Reordering mapping keys (not axis values) never changes cell keys."""
    config = {
        "name": "r",
        "seed": 5,
        "axes": {
            "workload": [{"family": "zipf", "working_set_mb": 1.0, "alpha": 1.1}],
            "policy": ["nru", "lru"],
            "pirate": [{"threads": 1, "sizes_mb": [2.0, 4.0]}],
        },
        "sweep": dict(FAST_SWEEP),
    }
    reordered = {
        "sweep": {"n_intervals": 1, "interval_instructions": 30000.0},
        "axes": {
            "pirate": [{"sizes_mb": [2.0, 4.0], "threads": 1}],
            "policy": ["nru", "lru"],
            "workload": [{"alpha": 1.1, "family": "zipf", "working_set_mb": 1.0}],
        },
        "seed": 5,
        "name": "r",
    }
    assert [c.key for c in compile_grid(config).cells] == [
        c.key for c in compile_grid(reordered).cells
    ]


def test_duplicate_cells_dedupe_first_wins():
    config = small_config()
    wl = {"family": "micro.random", "working_set_mb": 0.5}
    config["axes"]["workload"] = [wl, dict(wl), {"family": "cigar"}]
    grid = compile_grid(config)
    assert len(grid.cells) == 2
    assert grid.duplicates == 1
    assert grid.cells[0].label.startswith("micro.random")
    assert grid.cells[1].label == "cigar"


def test_seed_changes_keys_and_cell_seeds():
    a = compile_grid(small_config(seed=1))
    b = compile_grid(small_config(seed=2))
    assert a.cells[0].key != b.cells[0].key
    assert a.cells[0].seed != b.cells[0].seed


def test_kernel_mode_does_not_fork_keys(monkeypatch):
    """Execution strategy (C walk or scalar loops) is not experiment content."""
    base = compile_grid(small_config())
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    assert [c.key for c in compile_grid(small_config()).cells] == [
        c.key for c in base.cells
    ]


def test_machine_axis_expands_geometry():
    config = small_config()
    config["axes"]["machine"] = [
        {"geometry": "nehalem"},
        {"geometry": "nehalem", "l3_mb": 4, "l3_ways": 8},
    ]
    grid = compile_grid(config)
    assert len(grid.cells) == 2
    assert {c.machine.l3.ways for c in grid.cells} == {16, 8}


# -- compile-time validation ---------------------------------------------------


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda c: c.update(bogus=1), "unknown key"),
        (lambda c: c["axes"].update(color=["red"]), "unknown key"),
        (lambda c: c["axes"].update(policy=["fifo"]), "unknown replacement policy"),
        (lambda c: c["axes"].update(engine=["warp"]), "unknown engine tier"),
        (lambda c: c["axes"].update(prefetch=["yes"]), "booleans"),
        (lambda c: c["axes"].update(workload=["doom9"]), "unknown workload"),
        (lambda c: c["axes"].update(workload=[{"family": "doom"}]), "unknown family"),
        (lambda c: c["axes"].update(pirate=[{"threads": 0, "sizes_mb": [2.0]}]), "threads"),
        (lambda c: c["axes"].update(pirate=[{"threads": 1, "sizes_mb": [64.0]}]), "exceed"),
        (lambda c: c["axes"].update(machine=[{"geometry": "cray"}]), "unknown geometry"),
        (
            lambda c: c["axes"].update(machine=[{"geometry": "tiny", "num_cores": "x"}]),
            r"axes\.machine\[0\]: num_cores must be an integer",
        ),
        (
            lambda c: c["axes"].update(machine=[{"geometry": "tiny", "l3_ways": None}]),
            r"axes\.machine\[0\]: l3_ways must be an integer",
        ),
        (
            lambda c: c["axes"].update(machine=[{"geometry": "tiny", "l3_mb": "4"}]),
            r"axes\.machine\[0\]: l3_mb must be a finite number",
        ),
        (lambda c: c["sweep"].update(n_intervals=0), "n_intervals"),
        (
            lambda c: c["sweep"].update(interval_instructions="abc"),
            r"sweep: interval_instructions must be a finite number",
        ),
        (
            lambda c: c["sweep"].update(warmup_instructions="x"),
            r"sweep: warmup_instructions must be None or a finite number",
        ),
        (lambda c: c.update(seed="abc"), "seed"),
    ],
)
def test_compile_rejections_are_one_line(mutate, match):
    config = small_config()
    mutate(config)
    with pytest.raises(GridError, match=match) as e:
        compile_grid(config)
    assert "\n" not in str(e.value)


def test_nonrepresentable_ways_rejected_at_compile_time():
    """Conformance grids naming half-way sizes fail compile, not mid-sweep."""
    config = small_config(report={"conformance": True})
    config["axes"]["pirate"] = [{"threads": 1, "sizes_mb": [2.25]}]
    with pytest.raises(GridError, match="cannot represent") as e:
        compile_grid(config)
    assert "\n" not in str(e.value)
    # without conformance reporting the reference is never built, so the
    # same sizes are legal measurement points
    config["report"] = {"conformance": False}
    assert isinstance(compile_grid(config), CompiledGrid)


def test_workload_axis_required():
    with pytest.raises(GridError, match="workload axis"):
        compile_grid({"name": "x", "axes": {"policy": ["lru"]}})


# -- execution -----------------------------------------------------------------


def test_serial_equals_parallel_rows():
    config = small_config()
    config["axes"]["policy"] = ["nru", "lru"]
    grid = compile_grid(config)
    serial = run_grid(grid, workers=0)
    pooled = run_grid(grid, workers=2)
    assert serial.rows() == pooled.rows()


def test_second_run_is_all_cache_hits(tmp_path):
    grid = compile_grid(small_config())
    cache = tmp_path / "cache"
    first = run_grid(grid, cache_dir=cache)
    assert first.measured == grid.n_points and first.cache_hits == 0
    second = run_grid(grid, cache_dir=cache)
    assert second.measured == 0 and second.cache_hits == grid.n_points
    assert first.rows() == second.rows()
    assert "100.0% cache hits" in format_summary(second)


def test_resume_skips_finished_cells(tmp_path):
    config = small_config()
    config["axes"]["policy"] = ["nru", "lru"]
    grid = compile_grid(config)
    out_dir = tmp_path / "out"
    first = run_grid(grid, out_dir=out_dir)
    resumed = run_grid(grid, out_dir=out_dir, resume=True)
    assert resumed.resumed_cells == len(grid.cells)
    assert resumed.rows() == first.rows()
    # a changed grid (different seed -> different keys) re-runs everything
    other = compile_grid(small_config(seed=99))
    rerun = run_grid(other, out_dir=out_dir, resume=True)
    assert rerun.resumed_cells == 0


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: [1, 2],
        lambda p: None,
        lambda p: {k: v for k, v in p.items() if k != "rows"},
        lambda p: {**p, "rows": [{**p["rows"][0], "foreign": 1}]},
        lambda p: {**p, "conformance": "pass"},
        lambda p: {**p, "rows": [{**p["rows"][0], "l3_mb": 2 * p["rows"][0]["l3_mb"]}]},
    ],
    ids=["list", "null", "no-rows", "foreign-column", "conformance", "value-edit"],
)
def test_resume_reruns_torn_or_tampered_cell(tmp_path, tamper):
    """A cell artifact that is not a verified result is a miss, not a crash:
    it is quarantined, the cell re-runs, its artifact is rewritten, and emit
    and summary work.  An edited value fails the envelope checksum."""
    grid = compile_grid(small_config())
    out_dir = tmp_path / "out"
    first = run_grid(grid, out_dir=out_dir)
    (artifact,) = (out_dir / "cells").iterdir()
    envelope = json.loads(artifact.read_text())
    envelope["payload"] = tamper(envelope["payload"])
    artifact.write_text(json.dumps(envelope))
    resumed = run_grid(grid, out_dir=out_dir, resume=True)
    assert resumed.resumed_cells == 0
    assert resumed.rows() == first.rows()
    assert json.loads(artifact.read_text())["payload"]["rows"] == first.rows()
    assert artifact.with_suffix(".json.corrupt").exists()
    emit(resumed, out_dir)
    format_summary(resumed)
    assert run_grid(grid, out_dir=out_dir, resume=True).resumed_cells == 1


def test_emit_writes_csv_and_jsonl(tmp_path):
    grid = compile_grid(small_config())
    result = run_grid(grid)
    paths = emit(result, tmp_path)
    assert [p.name for p in paths] == ["t.csv", "t.jsonl"]
    rows = [json.loads(line) for line in paths[1].read_text().splitlines()]
    assert rows == result.rows()
    header = paths[0].read_text().splitlines()[0]
    assert header.startswith("cell,workload,policy")


# -- CLI -----------------------------------------------------------------------


def _write_json_config(tmp_path, config):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_cli_dry_run(tmp_path):
    out = Sink()
    rc = main(["grid", _write_json_config(tmp_path, small_config()), "--dry-run"], out=out)
    assert rc == 0
    assert "1 cells, 1 points" in out.text


def test_cli_bad_config_is_rc2_one_line(tmp_path):
    out = Sink()
    config = small_config(bogus=True)
    rc = main(["grid", _write_json_config(tmp_path, config)], out=out)
    assert rc == 2
    assert out.text.startswith("error:") and "\n" not in out.text


def test_cli_missing_config_is_rc2():
    out = Sink()
    assert main(["grid", "/nonexistent/grid.yaml"], out=out) == 2
    assert "error:" in out.text


def test_cli_nonrepresentable_conformance_grid_is_rc2(tmp_path):
    config = small_config(report={"conformance": True})
    config["axes"]["pirate"] = [{"threads": 1, "sizes_mb": [2.25]}]
    out = Sink()
    assert main(["grid", _write_json_config(tmp_path, config)], out=out) == 2
    assert "cannot represent" in out.text


def test_cli_end_to_end_with_cache(tmp_path):
    config = small_config()
    path = _write_json_config(tmp_path, config)
    cache = str(tmp_path / "cache")
    out_dir = str(tmp_path / "out")
    out = Sink()
    assert main(["grid", path, "--cache-dir", cache, "--out", out_dir], out=out) == 0
    assert "1 measured" in out.text
    again = Sink()
    assert main(["grid", path, "--cache-dir", cache], out=again) == 0
    assert "100.0% cache hits" in again.text
    assert (tmp_path / "out" / "t.csv").exists()


def test_cli_engine_override(tmp_path):
    path = _write_json_config(tmp_path, small_config())
    out = Sink()
    assert main(["grid", path, "--engine", "surrogate", "--dry-run"], out=out) == 0
    assert "surrogate" in out.text
    bad = Sink()
    assert main(["grid", path, "--engine", "warp"], out=bad) == 2


def test_cli_resume_needs_out(tmp_path):
    out = Sink()
    rc = main(["grid", _write_json_config(tmp_path, small_config()), "--resume"], out=out)
    assert rc == 2
    assert "--out" in out.text


def test_cli_yaml_config(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(small_config()))
    out = Sink()
    assert main(["grid", str(path), "--dry-run"], out=out) == 0
    assert "1 cells" in out.text


GRIDS_DIR = Path(__file__).resolve().parent.parent / "examples" / "grids"


def test_checked_in_example_grid_expands_wide():
    """The acceptance-criteria config: >= 24 cells from the shipped YAML."""
    pytest.importorskip("yaml")
    grid = compile_grid(load_grid_config(GRIDS_DIR / "example_grid.yaml"))
    assert len(grid.cells) >= 24
    assert grid.n_points >= 72


def test_checked_in_ci_smoke_grid():
    pytest.importorskip("yaml")
    grid = compile_grid(load_grid_config(GRIDS_DIR / "ci_smoke.yaml"))
    assert 4 <= len(grid.cells) <= 16
