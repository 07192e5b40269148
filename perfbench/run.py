"""Run one named workload of the host-time benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fd-lossy --seed 1 --seconds 20 --trace 0

Every time metric is in *scaled* seconds (:mod:`perfbench.hostspeed`), so
that the shared host's drift in speed cancels while a slower program still
reads slower.  Each operation's wall time is multiplied by ``NOMINAL_S``
over host-speed reference samples timed around it in the same process.
``setup_s`` is the median set-up wall time multiplied by ``NOMINAL_S`` over
the median of the timed worker's reference samples, the host's speed level
during the run: a single sample beside a 0.3 s interpreter start tracks it
worse than the level does.  The raw medians are printed beside both, and
every raw time is kept in the record.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Human-readable lines before it give the host block, each metric with its
unit, the tail percentile with its sample count, and ``fail_frac``.  The
full record (host, per-operation times and digests, set-up samples, and
for a traced run the spans) goes to ``.perfbench_out/`` in the checkout.

A run:

1. records the host block and a calibration score (recorded, never gated);
2. starts one untimed worker so that bytecode caches exist;
3. starts the timed worker (:mod:`perfbench.worker`), which runs the
   workload closed-loop from one client for ``--seconds``, between two
   halves of ``SETUP_PROBES`` fresh workers that exit once set up —
   ``setup_s`` is the median over the probes and the timed worker (with
   ``--trace 1`` the probes run under ``-X importtime`` and their import
   tree is folded into ``import.*``);
4. with ``--trace 1``, splits ``--seconds`` between an untraced worker and a
   traced one over the same operations, reports the traced run's overhead
   against the untraced median, and fails every operation whose count
   digest differs between the two.

Exit status 2, with no result line, when the program's sources are missing
or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import NOMINAL_S, scale  # noqa: E402
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters per run that only set up (``setup_s`` samples).
SETUP_PROBES = 12
#: Grace on top of ``--seconds`` before a worker counts as hung.
WORKER_GRACE_S = 120.0
#: Operations beyond the tail percentile that ``cell_tail_s`` reports.
TAIL_BEYOND = 10


class BenchError(Exception):
    """A run that cannot produce a result (exit status 2)."""


def host_block() -> dict[str, Any]:
    """Where the numbers came from: recorded on every run, never gated."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibrate(),
    }


def calibrate(rounds: int = 5, steps: int = 300_000) -> float:
    """Best-of-``rounds`` seconds of a fixed pure-Python loop.

    Dividing a time by this score compares hosts; lower is a faster host.
    """
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        acc = 0
        for i in range(steps):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, perf_counter() - start)
    return best


def fold_importtime(text: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` output charged to each ``repro``
    subpackage.

    Every module's self time goes to its nearest enclosing ``repro``
    module in the import tree, so a third-party or standard module pulled
    in by ``repro.sim`` is charged to ``sim``.  The package ``__init__``,
    ``repro.errors`` and ``repro.types`` are ``core``; time outside any
    ``repro`` module is ``other``.
    """
    pending: dict[int, list] = {}  # level -> [(level, name, self s, children)]
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name_field = fields[2]
        level = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        node = (level, name_field.strip(), int(fields[0]) / 1e6, pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    nodes = [node for level in sorted(pending) for node in pending[level]]
    totals: dict[str, float] = {}

    def charge(node: tuple, owner: str) -> None:
        _, name, own, children = node
        if name == "repro" or name.startswith("repro."):
            part = name.split(".")[1] if "." in name else "core"
            owner = "core" if part in ("errors", "types") else part
        totals[owner] = totals.get(owner, 0.0) + own
        for child in children:
            charge(child, owner)

    for node in nodes:
        charge(node, "other")
    return totals


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(args: list[str], stderr: Any = None,
                 importtime: bool = False) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker interpreter; returns it and its set-up seconds.

    Set-up runs from just before the interpreter starts until the worker
    prints ``READY``.
    """
    command = [sys.executable, *(["-X", "importtime"] if importtime else []),
               "-m", "perfbench.worker", *args]
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_GRACE_S)
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError(f"worker {' '.join(args)} did not get ready (exit {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    """Kill a worker and reap it; its pool workers exit when their task
    pipe closes."""
    proc.kill()
    proc.wait()


def finish_worker(proc: subprocess.Popen, seconds: float) -> dict[str, Any]:
    """Wait for a run worker and parse its ``RESULT`` line."""
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    for line in reversed(out.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise BenchError("worker printed no result")


def probe_setup(workload: str, seed: int, count: int,
                importtime: bool) -> tuple[list[float], list[dict]]:
    """Set-up seconds of ``count`` fresh workers that exit once set up,
    with their folded ``-X importtime`` output when asked."""
    base = ["--workload", workload, "--seed", str(seed), "--mode", "probe"]
    samples, folds = [], []
    for index in range(count):
        log = OUT / f"importtime-{workload}-{seed}-{index}.txt"
        with open(log, "w") as stderr:
            proc, setup = start_worker(base, stderr=stderr, importtime=importtime)
            proc.communicate(timeout=WORKER_GRACE_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with status {proc.returncode}")
        samples.append(setup)
        if importtime:
            folds.append(fold_importtime(log.read_text()))
    return samples, folds


def timing_metrics(records: list[dict[str, Any]]) -> dict[str, Any]:
    """End-to-end timing of the timed operations of one worker, in scaled
    seconds, with the raw wall-time median beside it."""
    timed = [r for r in records if "seconds" in r]
    raw = [r["seconds"] for r in timed]
    times = sorted(scale(raw, [r["reference"] for r in timed]))
    count = len(times)
    if count > TAIL_BEYOND:
        tail, percentile = times[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count
    else:
        tail, percentile = times[-1], 100.0
    envelopes = sum(r["envelopes"] for r in timed)
    return {
        "cell_p50_s": statistics.median(times),
        "raw_p50_s": statistics.median(raw),
        "cell_tail_s": tail,
        "tail_percentile": percentile,
        "ops": count,
        "envelopes_per_s": envelopes / sum(times),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run; returns the full record."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    OUT.mkdir(exist_ok=True)
    record: dict[str, Any] = {"workload": workload, "seed": seed, "seconds": seconds,
                              "trace": trace, "host": host_block()}
    probe_setup(workload, seed, 1, importtime=False)  # writes bytecode caches
    setups, folds = probe_setup(workload, seed, SETUP_PROBES // 2, importtime=trace)
    base = ["--workload", workload, "--seed", str(seed)]
    plain_seconds = seconds / 2 if trace else seconds
    proc, setup = start_worker(base + ["--seconds", str(plain_seconds)])
    plain = finish_worker(proc, plain_seconds)
    later, later_folds = probe_setup(workload, seed, SETUP_PROBES - SETUP_PROBES // 2, trace)
    setups += [setup, *later]
    folds += later_folds
    records = plain["records"]
    timing = timing_metrics(records)
    level = statistics.median(r["reference"] for r in records if "seconds" in r)
    values: dict[str, Any] = {
        **timing,
        "setup_s": statistics.median(setups) * NOMINAL_S / level,
        "raw_setup_s": statistics.median(setups),
        "peak_rss_mib": plain["peak_rss_kib"] / 1024,
    }
    if trace:
        spans_file = OUT / f"spans-{workload}-{seed}.json"
        proc, _ = start_worker(base + ["--seconds", str(seconds / 2), "--trace", "1",
                                       "--spans", str(spans_file)])
        traced = finish_worker(proc, seconds / 2)
        plain_digests = {r["id"]: r["digest"] for r in records if "seconds" in r}
        for r in traced["records"]:
            want = plain_digests.get(r["id"])
            if want is not None and r["digest"] != want:
                r["failures"].append(f"traced digest {r['digest']} != untraced {want}")
                print(f"FAILED op {r['id']}: {r['failures'][-1]}", file=sys.stderr)
        records = records + traced["records"]
        traced_p50 = timing_metrics(traced["records"])["cell_p50_s"]
        values.update(traced["layers"])
        values["trace.untraced_p50_s"] = timing["cell_p50_s"]
        values["trace.traced_p50_s"] = traced_p50
        values["trace.overhead_frac"] = traced_p50 / timing["cell_p50_s"] - 1
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name.startswith("import.") and name != "import.total_s":
                part = name[len("import."):-len("_s")]
                values[name] = statistics.median(fold.get(part, 0.0) for fold in folds)
        values["import.total_s"] = statistics.median(sum(fold.values()) for fold in folds)
    failed = sum(1 for r in records if r["failures"])
    values["fail_frac"] = failed / len(records)
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        if metric["name"] not in values:
            raise BenchError(f"run produced no value for metric {metric['name']!r}")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    record.update(values=values, setup_samples=setups, records=records,
                  result={"correct": failed == 0, "attempted": len(records),
                          "failed": failed, "metrics": metrics})
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    values = record["values"]
    print("host " + json.dumps(record["host"]))
    for name, metric in record["result"]["metrics"].items():
        beside = ""
        if name == "cell_tail_s":
            beside = f"  (p{values['tail_percentile']:.2f} of {values['ops']} operations)"
        if name == "cell_p50_s":
            beside = f"  (raw wall time {values['raw_p50_s']:.6g} s)"
        if name == "setup_s":
            beside = f"  (raw wall time {values['raw_setup_s']:.6g} s)"
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}{beside}")
    print(f"{'fail_frac':32s} {values['fail_frac']:.6g} ratio")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
