"""Tests of the benchmark itself: its generator, checks, tracer and spec."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, hostspeed, run, worker
from perfbench.tracer import Tracer, layer_metrics, span_tree_errors
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small operations of every entry-point shape, cheap enough for a unit test.
SMALL_OPS = [
    {"id": 0, "kind": "akd-sync-t2", "entry": "akd", "params": {"n": 7, "t": 2, "seed": 5}},
    {"id": 1, "kind": "local-fd", "entry": "fd-scenario",
     "params": {"n": 7, "t": 2, "auth": "local", "scheme": "simulated-hmac", "value": "v",
                "protocol": "chain", "seed": 5}},
    {"id": 2, "kind": "warm-timeout", "entry": "sweep",
     "params": {"fn": "e13-timeout-fd", "prefix_ticks": 10, "timeouts": [11, 13, 15, 17, 19, 21],
                "base": {"n": 8, "t": 2, "protocol": "timeout", "faulty": 1,
                         "delivery": "loss:0.2:2", "seed": 5}}},
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    first = generate(workload, 7, 60)
    assert first == generate(workload, 7, 60)
    assert first != generate(workload, 8, 60)
    assert generate(workload, 7, 20) == first[:20]
    json.dumps(first)  # plain data only: the program receives nothing else


def test_generator_rejects_unknown_workloads():
    with pytest.raises(ValueError):
        generate("no-such-workload", 1)


def test_tampered_count_fails_its_operation(monkeypatch, capsys):
    op = SMALL_OPS[0]
    counts = worker.execute(op)
    assert checks.check(op, counts) == []
    assert checks.check(op, counts, checks.digest(counts)) == []
    tampered = dict(counts, messages=counts["messages"] + 1)
    assert checks.check(op, tampered)  # closed form
    assert checks.check(op, dict(counts, bytes=counts["bytes"] + 1), checks.digest(counts))

    monkeypatch.setattr(worker, "execute", lambda op: tampered)
    records = worker.closed_loop([op], 0.0, [])
    assert len(records) == 1 and records[0]["failures"]
    assert "FAILED op 0" in capsys.readouterr().err


def test_raising_operation_is_recorded_not_fatal(monkeypatch):
    def boom(op):
        raise RuntimeError("boom")

    monkeypatch.setattr(worker, "execute", boom)
    records = worker.closed_loop(SMALL_OPS[:1], 0.0, [])
    assert "boom" in records[0]["failures"][0]


def test_traced_run_spans_form_a_tree_and_counts_match_untraced():
    from repro.sim.kernel import EventKernel

    original_run = EventKernel.run
    plain = [worker.closed_loop([op], 0.0, [])[0] for op in SMALL_OPS]
    tracer = Tracer()
    tracer.install()
    try:
        assert EventKernel.run is not original_run
        traced = [worker.closed_loop([op], 0.0, [], tracer)[0] for op in SMALL_OPS]
    finally:
        tracer.remove()
    assert EventKernel.run is original_run
    assert not any(r["failures"] for r in plain + traced)
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
    assert span_tree_errors(tracer.spans) == []
    names = {span["name"] for span in tracer.spans}
    assert {"op", "kernel.run", "keydist", "prefix", "pool", "fork", "capture", "restore"} <= names
    forks = [span for span in tracer.spans if span["name"] == "fork"]
    pools = {span["id"] for span in tracer.spans if span["name"] == "pool"}
    assert len(forks) == 6 and all(span["parent"] in pools for span in forks)
    metrics = layer_metrics(tracer)
    assert metrics["snapshot.restore_calls"] == 6 / 3  # restores live in the pool workers
    assert metrics["harness.ops"] == 3


def test_scaling_cancels_host_speed_but_not_program_speed():
    nominal = hostspeed.NOMINAL_S
    steady = hostspeed.scale([0.2] * 30, [nominal] * 30)
    assert steady == pytest.approx([0.2] * 30)
    # The host runs at half speed for the second half: the op and the
    # reference both take twice as long, and the scaled time stays put.
    refs = [nominal] * 40 + [2 * nominal] * 40
    ops = [0.2] * 40 + [0.4] * 40
    assert hostspeed.scale(ops, refs) == pytest.approx([0.2] * 80)
    # A slower program on a steady host reads slower by the same factor.
    assert hostspeed.scale([0.3] * 30, [nominal] * 30) == pytest.approx([0.3] * 30)
    assert hostspeed.scale([0.2], [nominal / 2]) == pytest.approx([0.4])
    assert hostspeed.reference_seconds() > 0


def test_span_tree_errors_catch_malformed_trees():
    spans = [
        {"id": 0, "parent": None, "op": 0, "name": "op", "start": 0.0, "end": 1.0},
        {"id": 1, "parent": 0, "op": 0, "name": "kernel.run", "start": 0.5, "end": 1.5},
        {"id": 2, "parent": None, "op": 0, "name": "op", "start": 2.0, "end": 3.0},
    ]
    errors = span_tree_errors(spans)
    assert any("outside parent" in e for e in errors)
    assert any("2 root spans" in e for e in errors)


def test_fold_importtime_charges_nearest_repro_ancestor():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:        50 |         50 |       numpy.core",
        "import time:        20 |         70 |     repro.sim.kernel",
        "import time:        30 |        100 |   repro.sim",
        "import time:        10 |         10 |     repro.errors",
        "import time:         5 |        115 |   repro",
    ])
    totals = run.fold_importtime(text)
    assert totals == pytest.approx(
        {"other": 100e-6, "sim": 100e-6, "core": 15e-6}
    )


def test_stored_digests_match_a_fresh_execution():
    stored = json.loads((HERE / "digests.json").read_text())
    assert stored["seed"] == DEFAULT_SEED
    for workload in WORKLOADS:
        op = generate(workload, DEFAULT_SEED, 1)[0]
        assert checks.digest(worker.execute(op)) == stored["workloads"][workload][0], workload


def test_spec_and_layer_map_agree():
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    assert set(per_layer) == set(layers)
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in layers.items():
        assert entry["unit"] == per_layer[name]["unit"]
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["flat_on"]) <= workloads
    computed = set(layer_metrics(Tracer()))
    traced_elsewhere = {n for n in per_layer if n.startswith(("import.", "trace."))}
    assert set(per_layer) == computed | traced_elsewhere
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fd-lossy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
