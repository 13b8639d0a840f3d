"""Run every experiment and render an EXPERIMENTS-style report.

``repro experiments [--scale quick|full] [--only fig1,...] [--out FILE]``
regenerates every table and figure of the paper and prints (or writes) the
combined text report; ``python -m repro.experiments.runall`` takes the same
flags.  EXPERIMENTS.md is produced from a FULL-scale run.
"""

from __future__ import annotations

import inspect
import sys
import time

from . import QUICK, Scale
from . import (  # noqa: F401  (imported for registration order)
    conformance,
    fig1_omnet,
    fig2_lbm,
    fig3_lru_stack,
    fig4_micro,
    fig5_schedule,
    fig6_reference,
    fig7_errors,
    fig8_curves,
    fig9_lbm_nopf,
    table1,
    table2_steal,
    table3_overhead,
)

#: experiment id -> module with a run(scale, seed) -> result (.format()) API,
#: in run order: a section comes after every one whose result it takes
EXPERIMENTS = {
    "table1": table1,
    "fig3": fig3_lru_stack,
    "fig5": fig5_schedule,
    "fig4": fig4_micro,
    "fig1": fig1_omnet,
    "fig2": fig2_lbm,
    "fig8": fig8_curves,
    "fig9": fig9_lbm_nopf,
    "fig6": fig6_reference,
    "fig7": fig7_errors,
    "conformance": conformance,
    "table2": table2_steal,
    "table3": table3_overhead,
}


def _run_kwargs(module, available: dict[str, object]) -> dict:
    """The entries of ``available`` that ``module.run()`` names, None dropped.

    Experiments opt into the parallel executor, the telemetry layer and the
    engine tiers by signature; the rest run unchanged, so fan-out and
    instrumentation flags never alter what gets measured.  Earlier results
    are offered under their experiment ids (``fig7.run(..., fig6=...)``),
    so a view over another section's measurement never measures it again.
    """
    params = inspect.signature(module.run).parameters
    return {k: v for k, v in available.items() if v is not None and k in params}


def run_all(
    scale: Scale = QUICK,
    seed: int = 0,
    only: list[str] | None = None,
    *,
    echo=print,
    workers: int | None = None,
    cache_dir: str | None = None,
    telemetry=None,
    engine: str | None = None,
    journal_dir: str | None = None,
    run_id: str | None = None,
    resume: bool = False,
) -> dict[str, object]:
    """Run the selected experiments; returns {id: result}.

    An experiment whose ``run()`` has a parameter named after an earlier
    experiment id gets that result (``fig7`` and ``conformance`` take
    ``fig6``, ``fig9`` takes ``fig8``), so each measurement runs once per
    invocation; a section whose source was not run, or was skipped on
    resume, measures it itself.  ``workers`` fans the parallelizable
    experiments' independent sweeps over a process pool (None keeps each
    scale's ``max_workers`` default);
    ``cache_dir`` lets their fixed-size sweeps resume from cached points.
    A live :class:`~repro.observability.Telemetry` as ``telemetry`` is
    handed to every experiment whose ``run()`` accepts it, and ``engine``
    (an :data:`~repro.core.parallel.ENGINE_TIERS` name) to every
    experiment that can swap the measured sweeps for the analytic
    surrogate (currently ``conformance``).

    ``journal_dir`` write-ahead-journals one task per experiment
    (a :class:`~repro.core.journal.RunJournal` under ``run_id``), so a
    killed invocation can be continued with ``resume=True``: experiments
    journaled ``done`` are skipped outright, everything else re-runs.
    """
    from ..core.journal import JournalState, RunJournal, new_run_id

    selected = list(only) if only else list(EXPERIMENTS)
    unknown = set(selected) - set(EXPERIMENTS)
    if unknown:
        raise KeyError(f"unknown experiment ids: {sorted(unknown)}")

    journal = None
    journaled_done: set[str] = set()
    if resume and journal_dir is None:
        raise ValueError("resume needs a journal directory (journal_dir)")
    if journal_dir is not None:
        if resume:
            if run_id is None:
                raise ValueError("resume needs the run id of the journal to continue")
            journaled_done = JournalState.load(journal_dir, run_id).done_ids()
            journal = RunJournal.resume(journal_dir, run_id)
        else:
            run_id = run_id or new_run_id()
            journal = RunJournal.start(
                journal_dir, run_id, meta={"scale": scale.name, "seed": seed}
            )
        echo(f"journal run id: {run_id}  (resume with --resume {run_id})")

    options = dict(workers=workers, cache_dir=cache_dir, telemetry=telemetry, engine=engine)
    results: dict[str, object] = {}
    try:
        for exp_id in EXPERIMENTS:
            if exp_id not in selected:
                continue
            if exp_id in journaled_done:
                # a resumed run trusts the journal: the experiment finished in
                # an earlier generation, so its artifacts already exist
                echo(f"\n{'=' * 72}")
                echo(f"{exp_id}: skipped (journaled done in run {run_id})")
                continue
            t0 = time.perf_counter()
            if journal is not None:
                journal.mark(exp_id, "running")
            module = EXPERIMENTS[exp_id]
            result = module.run(scale, seed, **_run_kwargs(module, {**options, **results}))
            results[exp_id] = result
            if journal is not None:
                journal.mark(exp_id, "done")
            wall = time.perf_counter() - t0
            echo(f"\n{'=' * 72}")
            echo(result.format())
            # machine-parseable, one line per experiment (the CI perf smoke and
            # bench_baseline.py grep for the REPRO-BENCH prefix)
            echo(f"REPRO-BENCH bench={exp_id} wall_s={wall:.3f} scale={scale.name}")
    finally:
        if journal is not None:
            journal.close()
    return results


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.runall ARGS`` is ``repro experiments ARGS``."""
    from ..cli import main as cli_main

    return cli_main(["experiments", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
