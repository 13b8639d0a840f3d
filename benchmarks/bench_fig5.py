"""Bench: regenerate Figure 5 (dynamic working-set adjustment schedule)."""

import pytest

from repro.experiments import fig5_schedule


@pytest.mark.experiment
def test_fig5_schedule(run_once, scale):
    result = run_once(fig5_schedule.run, scale)
    print()
    print(result.format())
    # the schedule visits every grid size at least once
    visited = {e.target_cache_mb for e in result.entries}
    assert visited == set(scale.sizes_mb)
    # intervals are separated by warm-up gaps; at QUICK's compressed scale
    # the gaps (incl. the big initial warm-up) may reach over half the wall
    assert any(e.gap_cycles > 0 for e in result.entries[1:])
    assert 0.0 < result.gap_fraction < 0.75
    # timeline is ordered
    starts = [e.start_cycle for e in result.entries]
    assert starts == sorted(starts)
