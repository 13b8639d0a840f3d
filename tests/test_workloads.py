"""Workload base, mixtures, phases, the spec suite, micro and cigar."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.units import MB
from repro.workloads import (
    BENCHMARK_NAMES,
    MixtureComponent,
    MixtureWorkload,
    PhasedWorkload,
    RandomPattern,
    SequentialPattern,
    Workload,
    benchmark_spec,
    instance_base,
    make_benchmark,
    make_cigar,
    random_micro,
    sequential_micro,
)
from repro.workloads.spec import TRACEABLE_NAMES


def mix(name="m", seed=0, **kw):
    pats = [
        MixtureComponent(SequentialPattern(0, 100, seed=1), weight=1.0),
        MixtureComponent(RandomPattern(1000, 50, seed=2), weight=3.0),
    ]
    kw.setdefault("mem_fraction", 0.5)
    kw.setdefault("cpi_base", 1.0)
    return MixtureWorkload(name, pats, seed=seed, **kw)


# -------------------------------------------------------------- base / mixture


def test_workload_validation():
    with pytest.raises(ConfigError):
        mix(mem_fraction=0.0)
    with pytest.raises(ConfigError):
        mix(cpi_base=-1.0)
    with pytest.raises(ConfigError):
        mix(mlp=0.0)
    with pytest.raises(ConfigError):
        mix(accesses_per_line=0.5)
    with pytest.raises(ConfigError):
        mix(write_fraction=1.5)
    with pytest.raises(ConfigError):
        MixtureWorkload("empty", [], mem_fraction=0.5, cpi_base=1.0)


def test_mixture_weights_respected():
    wl = mix(seed=1)
    lines, _ = wl.chunk(20_000)
    in_random = np.mean((lines >= 1000) & (lines < 1050))
    assert in_random == pytest.approx(0.75, abs=0.02)


def test_mixture_choice_distribution():
    """Each line picks a component with probability weight / sum(weights)."""
    regions = [(0, 10, 1.0), (100, 10, 3.0), (200, 10, 6.0)]
    wl = MixtureWorkload(
        "three",
        [
            MixtureComponent(RandomPattern(base, size, seed=i), weight=w)
            for i, (base, size, w) in enumerate(regions)
        ],
        mem_fraction=0.5,
        cpi_base=1.0,
        seed=0,
    )
    lines = np.concatenate([wl.chunk(n)[0] for n in (1, 7, 2000, 17_992)])
    assert lines.dtype == np.int64
    for base, size, w in regions:
        frac = float(np.mean((lines >= base) & (lines < base + size)))
        assert frac == pytest.approx(w / 10.0, abs=0.02)


def test_mixture_validates_weights():
    with pytest.raises(ConfigError):
        MixtureWorkload("empty", [], mem_fraction=0.5, cpi_base=1.0)
    for bad in (-1.0, 0.0):
        with pytest.raises(ConfigError):
            MixtureComponent(RandomPattern(0, 10, seed=1), weight=bad)


def test_mixture_deterministic_with_seed():
    a, _ = mix(seed=3).chunk(1000)
    b, _ = mix(seed=3).chunk(1000)
    assert np.array_equal(a, b)


def test_mixture_reset():
    wl = mix(seed=4)
    a, _ = wl.chunk(1000)
    wl.reset()
    b, _ = wl.chunk(1000)
    assert np.array_equal(a, b)


def test_write_mask():
    wl = mix(write_fraction=0.5, seed=5)
    _, writes = wl.chunk(10_000)
    assert writes is not None
    assert np.mean(writes) == pytest.approx(0.5, abs=0.03)
    wl2 = mix(write_fraction=0.0)
    _, writes2 = wl2.chunk(100)
    assert writes2 is None


def test_footprint():
    assert mix().footprint_lines() == 150


def test_instance_base_disjoint():
    assert instance_base(0) != instance_base(1)
    assert instance_base(1) - instance_base(0) >= 1 << 32
    with pytest.raises(ConfigError):
        instance_base(-1)


# -------------------------------------------------------------- phased


def phased(seed=0):
    a = mix("a", seed=10)
    b = MixtureWorkload(
        "b",
        [MixtureComponent(RandomPattern(50_000, 100, seed=11), weight=1.0)],
        mem_fraction=0.5,
        cpi_base=1.0,
    )
    return PhasedWorkload("ph", [(a, 1000.0), (b, 1000.0)], seed=seed)


def test_phased_cycles_through_phases():
    wl = phased()
    # phase budget in lines: 1000 instr * 0.5 mf / 1 apl = 500 lines
    assert wl.current_phase == 0
    wl.chunk(500)
    assert wl.current_phase == 1
    wl.chunk(500)
    assert wl.current_phase == 0


def test_phased_chunk_straddles_phases():
    wl = phased()
    lines, _ = wl.chunk(750)
    # last 250 lines must come from phase b's region
    assert (lines[-200:] >= 50_000).all()


def test_phased_scalar_mismatch_rejected():
    a = mix("a")
    b = MixtureWorkload(
        "b",
        [MixtureComponent(RandomPattern(0, 10, seed=1), weight=1.0)],
        mem_fraction=0.25,  # differs
        cpi_base=1.0,
    )
    with pytest.raises(ConfigError):
        PhasedWorkload("bad", [(a, 100.0), (b, 100.0)])
    with pytest.raises(ConfigError):
        PhasedWorkload("bad", [(a, 0.0)])
    with pytest.raises(ConfigError):
        PhasedWorkload("bad", [])


def test_phased_reset():
    wl = phased()
    a, _ = wl.chunk(1200)
    wl.reset()
    b, _ = wl.chunk(1200)
    assert np.array_equal(a, b)
    assert wl.current_phase == wl.current_phase  # no crash


# -------------------------------------------------------------- spec suite


def test_suite_has_28_benchmarks_and_no_gamess():
    assert len(BENCHMARK_NAMES) == 28
    assert "gamess" not in BENCHMARK_NAMES


def test_six_untraceable_fortran_benchmarks():
    untraceable = set(BENCHMARK_NAMES) - set(TRACEABLE_NAMES)
    assert len(untraceable) == 6
    assert untraceable == {"bwaves", "GemsFDTD", "leslie3d", "tonto", "wrf", "zeusmp"}


def test_benchmark_spec_lookup_by_both_names():
    assert benchmark_spec("mcf").spec_id == "429.mcf"
    assert benchmark_spec("429.mcf").name == "mcf"
    with pytest.raises(ConfigError):
        benchmark_spec("doom")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_benchmark_instantiates_and_generates(name):
    wl = make_benchmark(name, seed=1)
    assert isinstance(wl, Workload)
    lines, writes = wl.chunk(2000)
    assert len(lines) == 2000
    assert lines.min() >= instance_base(0)
    if wl.write_fraction > 0:
        assert writes is not None


def test_instances_are_disjoint():
    a, _ = make_benchmark("mcf", instance=0).chunk(5000)
    b, _ = make_benchmark("mcf", instance=1).chunk(5000)
    assert set(a.tolist()).isdisjoint(set(b.tolist()))


def test_gcc_is_phased():
    wl = make_benchmark("gcc")
    assert isinstance(wl, PhasedWorkload)
    assert len(wl.phases) == 3


def test_mcf_heavy_footprint():
    spec = benchmark_spec("mcf")
    assert spec.footprint_mb() > 8.0  # exceeds the L3: always missing


def test_povray_tiny_footprint():
    assert benchmark_spec("povray").footprint_mb() < 0.5


# -------------------------------------------------------------- micro & cigar


def test_micro_benchmarks():
    r = random_micro(2.0, seed=1)
    s = sequential_micro(2.0, seed=1)
    assert r.footprint_lines() == 2 * MB // 64
    assert s.footprint_lines() == 2 * MB // 64
    lines, _ = s.chunk(100)
    assert np.all(np.diff(lines) == 1)  # unbroken sweep
    rl, _ = r.chunk(1000)
    assert len(set(rl.tolist())) > 800


def test_cigar_has_6mb_population():
    wl = make_cigar(seed=1)
    # 35% of accesses sweep a 6MB buffer (the Fig. 6 knee)
    assert wl.footprint_lines() >= 6 * MB // 64
    lines, _ = wl.chunk(50_000)
    pop = lines < instance_base(0) + 6 * MB // 64
    assert np.mean(pop) == pytest.approx(0.35, abs=0.05)
