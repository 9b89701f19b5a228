"""The Table 2 benchmark suite and its runner.

* :mod:`repro.bench.goldens` — the published numbers for all 50 rows;
* :mod:`repro.bench.suite` — scene definitions (locals, imports, literals,
  goal, expected snippet) and builders;
* :mod:`repro.bench.matching` — goal-snippet rank detection, equal modulo
  literal constants (§7.2);
* :mod:`repro.bench.runner` — runs one or all benchmarks under the three
  algorithm variants plus the baseline provers;
* :mod:`repro.bench.reporting` — Table 2-style text reports.
"""
