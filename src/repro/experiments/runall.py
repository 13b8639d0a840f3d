"""Run every experiment and render an EXPERIMENTS-style report.

``python -m repro.experiments.runall [--scale quick|full] [--only fig1,...]``
regenerates every table and figure of the paper and prints (or writes) the
combined text report.  EXPERIMENTS.md is produced from a FULL-scale run.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from ..config import KERNEL_MODES
from . import FULL, QUICK, Scale
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

#: experiment id -> module with a run(scale, seed) -> result (.format()) API
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


def _parallel_kwargs(
    module,
    workers: int | None,
    cache_dir: str | None,
    telemetry=None,
    engine: str | None = None,
) -> dict:
    """The subset of {workers, cache_dir, telemetry, engine} run() accepts.

    Experiments opt into the parallel executor, the telemetry layer and the
    engine tiers by signature; the rest run unchanged, so fan-out and
    instrumentation flags never alter what gets measured.
    """
    params = inspect.signature(module.run).parameters
    kwargs = {}
    if workers is not None and "workers" in params:
        kwargs["workers"] = workers
    if cache_dir is not None and "cache_dir" in params:
        kwargs["cache_dir"] = cache_dir
    if telemetry is not None and "telemetry" in params:
        kwargs["telemetry"] = telemetry
    if engine is not None and "engine" in params:
        kwargs["engine"] = engine
    return kwargs


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

    ``fig7`` reuses ``fig6``'s comparisons when both are selected.
    ``workers`` fans the parallelizable experiments' independent sweeps
    over a process pool (None keeps each scale's ``max_workers`` default);
    ``cache_dir`` lets their fixed-size sweeps resume from cached points.
    A live :class:`~repro.observability.Telemetry` as ``telemetry`` is
    handed to every experiment whose ``run()`` accepts it, and ``engine``
    (an :data:`~repro.caches.hierarchy.ENGINE_TIERS` name) to every
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
            if exp_id == "fig7" and "fig6" in results:
                result = fig7_errors.from_fig6(results["fig6"])
            else:
                module = EXPERIMENTS[exp_id]
                result = module.run(
                    scale,
                    seed,
                    **_parallel_kwargs(module, workers, cache_dir, telemetry, engine),
                )
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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", default="", help="comma-separated experiment ids")
    parser.add_argument("--out", default="", help="also write the report to this file")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process fan-out for parallelizable experiments "
             "(default: the scale's max_workers; 0 forces serial)",
    )
    parser.add_argument(
        "--cache-dir", default="",
        help="persist sweep points here so re-runs skip completed points",
    )
    parser.add_argument(
        "--telemetry", default="",
        help="write the run's span/metric stream to this JSONL file",
    )
    parser.add_argument(
        "--kernel", choices=KERNEL_MODES, default=None,
        help="simulation engine for every experiment (sets REPRO_KERNEL "
             "for this process and its pool workers)",
    )
    parser.add_argument(
        "--engine", default=None,
        help="curve engine tier (measure/surrogate/auto) for experiments "
             "that support it (currently conformance)",
    )
    parser.add_argument(
        "--journal-dir", default="",
        help="task journal directory: finished experiments survive SIGKILL",
    )
    parser.add_argument(
        "--run-id", default="",
        help="task journal run id (default: a fresh one, echoed at start)",
    )
    parser.add_argument(
        "--resume", default="", metavar="RUN_ID",
        help="continue a journaled run, skipping finished experiments",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.journal_dir:
        parser.error("--resume needs --journal-dir")
    if args.resume and args.run_id and args.run_id != args.resume:
        parser.error(f"--resume {args.resume} conflicts with --run-id {args.run_id}")
    if args.kernel:
        # the experiments build their configs internally; the env default
        # (see repro.config) is the one switch they all honor, and it is
        # inherited by parallel_map's spawned workers
        import os

        os.environ["REPRO_KERNEL"] = args.kernel
    if args.workers is not None and args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.engine is not None:
        from ..caches.hierarchy import resolve_engine
        from ..errors import ConfigError

        try:
            resolve_engine(args.engine)
        except ConfigError as e:
            parser.error(f"--engine: {e}")
    scale = FULL if args.scale == "full" else QUICK
    only = [s for s in args.only.split(",") if s] or None
    telemetry = None
    if args.telemetry:
        from ..observability import Telemetry

        telemetry = Telemetry()

    chunks: list[str] = []

    def echo(text: str = "") -> None:
        print(text)
        chunks.append(str(text))

    run_all(
        scale,
        args.seed,
        only,
        echo=echo,
        workers=args.workers,
        cache_dir=args.cache_dir or None,
        telemetry=telemetry,
        engine=args.engine,
        journal_dir=args.journal_dir or None,
        run_id=(args.resume or args.run_id) or None,
        resume=bool(args.resume),
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(chunks) + "\n")
    if telemetry is not None:
        from ..cli import _export_telemetry

        _export_telemetry(telemetry, args.telemetry, print)
    return 0


if __name__ == "__main__":
    sys.exit(main())
