"""One module per table and figure of the paper's evaluation.

Every experiment takes a :class:`~repro.experiments.scale.Scale` (``QUICK``
for CI and the pytest-benchmark harness, ``FULL`` for the numbers recorded
in EXPERIMENTS.md) and a seed, returns a structured result, and can render
itself as text shaped like the paper's presentation.

| module              | reproduces                                        |
|---------------------|---------------------------------------------------|
| ``fig1_omnet``      | Fig. 1: OMNeT++ throughput scaling + CPI curve    |
| ``fig2_lbm``        | Fig. 2: LBM scaling, CPI/BW curves, aggregate BW  |
| ``fig3_lru_stack``  | Fig. 3: way-stealing LRU equivalence              |
| ``fig4_micro``      | Fig. 4: micro benchmarks vs LRU/Nehalem simulators|
| ``fig5_schedule``   | Fig. 5: dynamic adjustment schedule               |
| ``fig6_reference``  | Fig. 6: pirate vs reference fetch-ratio curves    |
| ``fig7_errors``     | Fig. 7: absolute/relative fetch-ratio errors      |
| ``fig8_curves``     | Fig. 8: CPI/BW/fetch/miss curves (prefetch on)    |
| ``fig9_lbm_nopf``   | Fig. 9: LBM with prefetching disabled             |
| ``table1``          | Table I: cache hierarchy                          |
| ``table2_steal``    | Table II + §III-C steal-capacity statistics       |
| ``table3_overhead`` | Table III: overhead & CPI error vs interval size  |
| ``conformance``     | §V conformance verdict on the Fig. 6 suite        |

Some sections are views over another's measurement: ``fig7`` and
``conformance`` take a ``fig6`` result, ``fig9`` a ``fig8`` one.  Each
measures its source itself when run alone; ``runall`` passes the result it
already has, so one invocation runs each measurement once.
"""

from .scale import FULL, QUICK, Scale

__all__ = ["Scale", "QUICK", "FULL"]
