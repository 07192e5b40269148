"""Host-time benchmark of the failure-discovery simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one named workload closed-loop in a fresh worker interpreter and
prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), ending with one JSON line.  ``BENCHMARK.json`` at the
repository root names the workloads and metrics; ``layers.json`` here maps
each per-layer metric to the end-to-end metric and workload it should
move, and ``digests.json`` holds the default seed's count digests.

Modules:

* :mod:`perfbench.workloads` — the operation generator, a pure function
  of ``(workload, seed)``;
* :mod:`perfbench.checks` — per-operation output checks and count digests;
* :mod:`perfbench.tracer` — the traced run's wrappers, spans and layer
  aggregation;
* :mod:`perfbench.worker` — the fresh worker interpreter's closed loop;
* :mod:`perfbench.run` — the command: set-up probes, workers, metrics.
"""
