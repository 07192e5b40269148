"""The fresh worker interpreter of one benchmark run.

``python -m perfbench.worker --workload W --seed N --mode probe|run
[--seconds S] [--trace 0|1]``, started by :mod:`perfbench.run` from the
repository root with ``src`` on ``PYTHONPATH``.

Set-up is everything before the ``READY`` line: interpreter start, the
imports every ``repro-fd`` invocation pays (``repro.cli``) plus the
workload entry points, and generating the operation plan.  A ``probe``
worker exits there.  A ``run`` worker then times operations closed-loop —
one client, the next operation sent when the previous one returned — for
``--seconds``, checks every operation's outputs outside the timed region,
and prints one ``RESULT`` JSON line.  An untraced worker also runs the two
untimed cross-checks; a traced one (``--trace 1``) installs
:class:`perfbench.tracer.Tracer` first and writes its spans out at the end.

``python -m perfbench.worker --record-digests`` rewrites ``digests.json``
from the default seed's plans.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.cli  # noqa: F401  -- the import every repro-fd invocation pays
from repro.harness import run_ba_scenario, run_fd_scenario, sweep, sweep_prefix_shared
from repro.harness.workloads import get_workload

from . import checks
from .hostspeed import reference_seconds
from .tracer import POOL_WORKERS, Tracer, layer_metrics
from .workloads import DEFAULT_SEED, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
#: Operations per workload whose digests ``digests.json`` stores.
DIGESTED_OPS = 30


def _scenario_counts(outcome: Any) -> dict[str, Any]:
    metrics = outcome.run.metrics
    return {
        "kd_messages": outcome.kd.messages,
        "kd_rounds": outcome.kd.rounds,
        "messages": metrics.messages_total,
        "total_messages": outcome.total_messages,
        "rounds": metrics.rounds_used,
        "bytes": metrics.bytes_total,
        "decided": sum(1 for node in outcome.correct if outcome.run.states[node].decided),
    }


def execute(op: dict[str, Any]) -> Any:
    """Run one operation; returns its count data (a dict, or a list of
    fork dicts for a sweep)."""
    entry, params = op["entry"], op["params"]
    if entry == "sweep":
        base, timeouts = params["base"], params["timeouts"]
        swept = sweep_prefix_shared(
            [dict(base, timeout=value) for value in timeouts],
            params["fn"],
            prefix=dict(base, timeout=4 * max(timeouts)),
            prefix_ticks=params["prefix_ticks"],
            workers=POOL_WORKERS,
        )
        return [point.result for point in swept]
    if entry == "fd-scenario":
        outcome = run_fd_scenario(**params)
        return _scenario_counts(outcome) | {"fd_ok": outcome.fd.ok}
    if entry == "ba-scenario":
        outcome = run_ba_scenario(**params)
        return _scenario_counts(outcome) | {"agreement": outcome.ba.agreement}
    return get_workload(entry)(**params)


def _note_outputs(tracer: Tracer, op: dict[str, Any], counts: Any) -> None:
    """Counts the traced run reads from operation outputs."""
    for point in counts if isinstance(counts, list) else [counts]:
        tracer.count("faults.committed", point.get("committed", 0))
    if op["entry"] == "akd":
        tracer.count("mux.ops", 1)
        tracer.count("mux.columnar", counts["engine_used"] == "columnar")


def closed_loop(
    plan: list[dict[str, Any]],
    seconds: float,
    stored: list[str],
    tracer: Tracer | None = None,
) -> list[dict[str, Any]]:
    """Run ``plan`` back to back for ``seconds``; one record per operation.

    Before each operation, outside its timed region, a full garbage
    collection clears the cyclic garbage its predecessors left: an
    operation then pays for the collections its own allocations trigger,
    not for the debt of the one before.  Without it the per-operation
    times of identical cells spread about 2x wider (one in three catches
    a full collection of the whole process), and a run's median rides on
    where those pauses fall.  Host-speed reference samples are taken right
    before and right after the operation (:mod:`perfbench.hostspeed`),
    also outside the timed region; the record keeps their mean.

    A raised exception or a failed check marks the operation failed and
    is printed to stderr; the loop goes on.
    """
    records = []
    deadline = perf_counter() + seconds
    index = 0
    while not records or perf_counter() < deadline:
        op = plan[index % len(plan)]
        index += 1
        counts, failures = None, []
        gc.collect()
        before = reference_seconds()
        start = perf_counter()
        try:
            if tracer is None:
                counts = execute(op)
            else:
                counts = tracer.run_op(op["id"], lambda: execute(op))
        except Exception:
            failures = [traceback.format_exc(limit=3)]
        elapsed = perf_counter() - start
        reference = (before + reference_seconds()) / 2
        if tracer is not None:
            if counts is not None:
                if op["entry"] == "sweep":
                    counts = tracer.absorb(counts)
                _note_outputs(tracer, op, counts)
            tracer.end_op(elapsed)
        if counts is not None:
            want = stored[op["id"]] if op["id"] < len(stored) else None
            failures = checks.check(op, counts, want)
        for failure in failures:
            print(f"FAILED op {op['id']} ({op['kind']}): {failure}", file=sys.stderr)
        records.append(
            {
                "id": op["id"],
                "kind": op["kind"],
                "seconds": elapsed,
                "reference": reference,
                "envelopes": checks.envelopes(op, counts) if not failures else 0,
                "digest": checks.digest(counts) if counts is not None else None,
                "failures": failures,
            }
        )
    return records


def cross_checks(seed: int) -> list[dict[str, Any]]:
    """The two untimed equivalence checks of every run.

    A warm-started sweep must equal its straight sweep, and a degraded
    agreement-based key distribution on the columnar engine must equal the
    object engine.
    """
    sim_seed = random.Random(f"perfbench:cross:{seed}").randrange(1 << 31)
    base = {"n": 8, "t": 2, "protocol": "timeout", "faulty": 1,
            "delivery": "loss:0.2:2", "seed": sim_seed}
    timeouts = (11, 13, 15)
    points = [dict(base, timeout=value) for value in timeouts]
    warm = sweep_prefix_shared(
        points, "e13-timeout-fd", prefix=dict(base, timeout=4 * max(timeouts)),
        prefix_ticks=10, workers=POOL_WORKERS,
    )
    straight = sweep(points, "e13-timeout-fd")
    akd = get_workload("akd")
    params = {"n": 8, "t": 1, "delivery": "loss:0.05:2", "seed": sim_seed}
    columnar = akd(**params)
    obj = akd(**params, engine="object")
    outcomes = {
        "warm sweep == straight sweep": [p.result for p in warm] == [p.result for p in straight],
        "akd columnar == object": (
            columnar["engine_used"] == "columnar"
            and obj["engine_used"] == "object"
            and {k: v for k, v in columnar.items() if k != "engine_used"}
            == {k: v for k, v in obj.items() if k != "engine_used"}
        ),
    }
    records = []
    for name, ok in outcomes.items():
        failures = [] if ok else [f"cross-check failed: {name}"]
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        records.append({"id": name, "kind": "cross-check", "failures": failures})
    return records


def stored_digests(workload: str, seed: int) -> list[str]:
    """The stored count digests that apply to this run (default seed only)."""
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return []
    return json.loads(DIGESTS.read_text())["workloads"].get(workload, [])


def peak_rss_kib() -> int:
    """Peak resident memory of this process and its reaped children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def record_digests() -> None:
    """Rewrite ``digests.json`` from the default seed's plans."""
    table = {}
    for workload in WORKLOADS:
        plan = generate(workload, DEFAULT_SEED, DIGESTED_OPS)
        table[workload] = [checks.digest(execute(op)) for op in plan]
    DIGESTS.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": table}, indent=1) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", choices=("probe", "run"), default="run")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    plan = generate(args.workload, args.seed)
    stored = stored_digests(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "probe":
        return 0
    result: dict[str, Any] = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            records = closed_loop(plan, args.seconds, stored, tracer)
        finally:
            tracer.remove()
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            Path(args.spans).write_text(json.dumps({"spans": tracer.spans, "ops": tracer.ops}))
    else:
        records = closed_loop(plan, args.seconds, stored)
        result["peak_rss_kib"] = peak_rss_kib()
        records += cross_checks(args.seed)
    result["records"] = records
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
