"""The traced run: wrappers around each layer's public functions.

:class:`Tracer` installs a timing wrapper on every function named in
:data:`TARGETS`, patching the name where its callers look it up: the class
attribute for a method (every subclass that overrides it, for the delivery
models), and every ``repro`` module global bound to the function for a
module-level function.  Nothing under ``src/`` changes; :meth:`Tracer.remove`
puts every original back.

Each wrapper keeps, per operation, the call count, the inclusive time of
outermost calls, and the *self* time: its elapsed time minus the time
covered by nested wrapped calls (a stack of open frames).  Hot
per-envelope functions are recorded only that way.  Coarse boundaries
(operation, kernel run, key distribution, prefix, pool fan-out, fork,
capture, restore) also become *spans* — name, start, end, parent, operation
id — kept in memory and written out when the run ends.

Pool workers of a warm sweep are forked from the traced worker and inherit
the wrappers.  Each fork starts a fresh collection, and its numbers and
spans travel back attached to the fork's result, under :data:`CHILD_KEY`,
which :meth:`Tracer.absorb` strips before the result is checked.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter
from typing import Any, Callable

#: Result key that carries a pool worker's trace back to the parent.
CHILD_KEY = "__perfbench_trace__"

#: Process-pool width of every warm sweep (the host has two cores).
POOL_WORKERS = 2

#: Layer of each label prefix, for the self-time shares.
LAYERS = (
    "harness", "parallel", "kernel", "network", "rng", "metrics", "node", "batch",
    "mux", "eigtree", "oral", "fd", "signed", "crypto", "auth", "snapshot",
)


def _layer(label: str) -> str:
    return label.split(".", 1)[0]


# -- pre/post hooks: counts measured at the same boundaries -----------------


def _kernel_pre(tracer, args, kwargs):
    kernel = args[0]
    return kernel.tick, kernel.metrics.messages_total


def _kernel_post(tracer, args, kwargs, result, token):
    kernel = args[0]
    tracer.count("kernel.ticks", kernel.tick - token[0])
    tracer.count("kernel.envelopes", kernel.metrics.messages_total - token[1])


def _arrival_post(tracer, args, kwargs, result, token):
    tracer.count("network.sends", 1)
    if result is None:
        tracer.count("network.drops", 1)


def _batch_arrivals_post(tracer, args, kwargs, result, token):
    tracer.count("network.batch_recipients", len(result))
    tracer.count("network.sends", len(result))
    tracer.count("network.drops", result.count(None))


def _encode_post(tracer, args, kwargs, result, token):
    tracer.count("crypto.encode_bytes", len(result))


def _verify_pre(tracer, args, kwargs):
    from repro.crypto import signing

    return tuple(args) in signing._VERIFY_CACHE


def _verify_post(tracer, args, kwargs, result, token):
    tracer.count("crypto.verify_cache_hits", int(token))


def _discover_pre(tracer, args, kwargs):
    return args[0].state.discovered is None


def _discover_post(tracer, args, kwargs, result, token):
    if token and args[0].state.discovered is not None:
        tracer.count("fd.discoveries", 1)


def _sweep_post(tracer, args, kwargs, result, token):
    if len(tracer.stack) and tracer.stack[-1][0] == "eigtree.resolve":
        tracer.count("eigtree.swept_resolves", 1)


def _capture_post(tracer, args, kwargs, result, token):
    tracer.count("snapshot.bytes", result.size_bytes)


#: (module, attribute, label, span name, pre hook, post hook).  An
#: attribute ``*.name`` wraps ``name`` on every subclass of the module's
#: delivery-model base class that defines it.
TARGETS: tuple[tuple[str, str, str, str | None, Callable | None, Callable | None], ...] = (
    ("repro.sim.kernel", "EventKernel.run", "kernel.run", "kernel.run", _kernel_pre, _kernel_post),
    ("repro.sim.kernel", "EventKernel.enqueue", "kernel.enqueue", None, None, None),
    ("repro.sim.kernel", "EventKernel.enqueue_batch", "kernel.enqueue_batch", None, None, None),
    ("repro.sim.network", "*.arrival_tick", "network.arrival_tick", None, None, _arrival_post),
    ("repro.sim.network", "*.batch_arrivals", "network.batch_arrivals", None, None,
     _batch_arrivals_post),
    ("repro.sim.metrics", "Metrics.record", "metrics.record", None, None, None),
    ("repro.sim.metrics", "Metrics.record_delivery", "metrics.record_delivery", None, None, None),
    ("repro.sim.metrics", "Metrics.record_drop", "metrics.record_drop", None, None, None),
    ("repro.sim.metrics", "Metrics.record_broadcast", "metrics.bulk", None, None, None),
    ("repro.sim.metrics", "Metrics.record_deliveries", "metrics.bulk", None, None, None),
    ("repro.sim.metrics", "Metrics.record_drops", "metrics.bulk", None, None, None),
    ("repro.sim.metrics", "Metrics.settle", "metrics.settle", None, None, None),
    ("repro.sim.node", "NodeContext.send", "node.send", None, None, None),
    ("repro.sim.node", "NodeContext.broadcast", "node.broadcast", None, None, None),
    ("repro.sim.node", "NodeContext.send_batch", "node.send_batch", None, None, None),
    ("repro.sim.node", "NodeContext.discover_failure", "node.discover", None, _discover_pre,
     _discover_post),
    ("repro.sim.batch", "BatchPlane.deliver", "batch.deliver", None, None, None),
    ("repro.sim.batch", "BatchPlane.capture", "batch.capture", None, None, None),
    ("repro.sim.multiplex", "InstanceMux.on_round", "mux.on_round", None, None, None),
    ("repro.agreement.eigtree", "SuccinctEigStore.resolve", "eigtree.resolve", None, None, None),
    ("repro.agreement.eigtree", "resolve_sweep", "eigtree.sweep", None, None, _sweep_post),
    ("repro.agreement.eigtree", "ingest_rle_batch", "eigtree.ingest_batch", None, None, None),
    ("repro.agreement.eigtree", "ingest_rle", "eigtree.ingest", None, None, None),
    ("repro.agreement.eigtree", "ingest_dense_items", "eigtree.ingest", None, None, None),
    ("repro.agreement.eigtree", "encode_report", "eigtree.encode_report", None, None, None),
    ("repro.agreement.eigtree", "SuccinctEigStore.get", "eigtree.get", None, None, None),
    ("repro.agreement.oral", "OralAgreementProtocol.on_round", "oral.on_round", None, None, None),
    ("repro.agreement.oral", "OralAgreementProtocol.on_round_batch", "oral.on_round", None, None,
     None),
    ("repro.fd.timeout", "TimeoutFDProtocol.on_round", "fd.timeout.on_round", None, None, None),
    ("repro.fd.adaptive", "AdaptiveTimeoutFDProtocol.on_round", "fd.adaptive.on_round", None,
     None, None),
    ("repro.fd.authenticated", "ChainFDProtocol.on_round", "fd.chain.on_round", None, None, None),
    ("repro.agreement.signed", "SignedAgreementProtocol.on_round", "signed.on_round", None, None,
     None),
    ("repro.crypto.encoding", "encode", "crypto.encode", None, None, _encode_post),
    ("repro.crypto.signing", "sign_value", "crypto.sign", None, None, None),
    ("repro.crypto.signing", "cached_verify", "crypto.verify", None, _verify_pre, _verify_post),
    ("repro.crypto.chain", "verify_chain", "crypto.verify_chain", None, None, None),
    ("repro.auth.local", "run_key_distribution", "auth.keydist", "keydist", None, None),
    ("repro.auth.local", "KeyDistributionProtocol.on_round", "auth.keydist_on_round", None, None,
     None),
    ("repro.auth.global_", "trusted_dealer_setup", "auth.dealer", None, None, None),
    ("repro.sim.snapshot", "capture_kernel", "snapshot.capture", "capture", None, _capture_post),
    ("repro.sim.snapshot", "restore_kernel", "snapshot.restore", "restore", None, None),
    ("repro.harness.parallel", "sweep_parallel", "parallel.pool", "pool", None, None),
    ("random", "Random.seed", "rng.seed", None, None, None),
    ("repro.sim.rng", "node_rng", "rng.node_rng", None, None, None),
    ("repro.sim.rng", "instance_rng", "rng.instance_rng", None, None, None),
)

#: Registry entries a warm sweep resolves by name: their prefix and fork
#: calls become spans.
SWEPT_ENTRIES = ("e13-timeout-fd", "e14-adaptive")


class Tracer:
    """Per-operation call/time aggregates and spans of one traced worker."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.ops: list[dict[str, Any]] = []
        self.spans: list[dict[str, Any]] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._next_span = 0
        self._last_pool_span: int | None = None
        self._fresh()

    def _fresh(self) -> None:
        self.stack: list[list[Any]] = []  # open frames: [label, child seconds]
        self.span_stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.stats: dict[str, list[float]] = {}  # label -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}
        self.op_id: int | None = None

    # -- recording ----------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        """Add ``amount`` to the current operation's counter ``key``."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open_span(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        self.span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, name: str, start: float, end: float) -> None:
        self.span_stack.pop()
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append(
            {"id": span_id, "parent": parent, "op": self.op_id, "name": name,
             "start": start, "end": end, "pid": os.getpid()}
        )
        if name == "pool":
            self._last_pool_span = span_id

    def wrap(self, fn: Callable, label: str, span: str | None = None,
             pre: Callable | None = None, post: Callable | None = None) -> Callable:
        """``fn`` with its calls, inclusive and self time charged to ``label``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = pre(tracer, args, kwargs) if pre is not None else None
            frame = [label, 0.0]
            stack = tracer.stack
            stack.append(frame)
            depth = tracer.depth
            depth[label] = depth.get(label, 0) + 1
            span_id = tracer._open_span() if span is not None else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                depth[label] -= 1
                entry = tracer.stats.get(label)
                if entry is None:
                    entry = tracer.stats[label] = [0, 0.0, 0.0]
                entry[0] += 1
                if not depth[label]:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if span_id is not None:
                    tracer._close_span(span_id, span, start, start + elapsed)
            if post is not None:
                post(tracer, args, kwargs, result, token)
            return result

        return traced

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one operation as a root span and return its result.

        The operation's aggregates are filed in :attr:`ops` by
        :meth:`end_op`, after :meth:`absorb` has folded in its forks.
        """
        self.op_id = op_id
        return self.wrap(fn, "harness.op", "op")()

    def end_op(self, seconds: float) -> None:
        """File the current operation's aggregates and start the next."""
        self.ops.append({"op": self.op_id, "seconds": seconds, "stats": self.stats,
                         "counts": self.counts})
        self.stats, self.counts = {}, {}

    def absorb(self, results: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Strip pool workers' traces from fork results and fold them in."""
        clean = []
        for result in results:
            child = result.get(CHILD_KEY)
            if child is None:
                clean.append(result)
                continue
            clean.append({k: v for k, v in result.items() if k != CHILD_KEY})
            for label, (calls, inclusive, own) in child["stats"].items():
                entry = self.stats.setdefault(label, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
            for key, amount in child["counts"].items():
                self.count(key, amount)
            renumber = {}
            for span in child["spans"]:
                renumber[span["id"]] = self._next_span
                self._next_span += 1
            for span in child["spans"]:
                parent = span["parent"]
                self.spans.append(
                    span | {"id": renumber[span["id"]], "op": self.op_id,
                            "parent": self._last_pool_span if parent is None else renumber[parent]}
                )
        return clean

    # -- installation -------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any, item: bool = False) -> None:
        original = owner[name] if item else getattr(owner, name)
        self._patches.append((owner, name, original, item))
        if item:
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _patch_function(self, module: Any, name: str, wrapped: Callable) -> None:
        original = getattr(module, name)
        for other in list(sys.modules.values()):
            if other is module or getattr(other, "__name__", "").startswith("repro"):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapped)

    def install(self) -> None:
        """Wrap every target and the swept registry entries."""
        for module_name, attribute, label, span, pre, post in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            if owner_name == "*":
                base = module.DeliveryModel
                classes = [base, *_subclasses(base)]
                for cls in classes:
                    if name in vars(cls):
                        self._set(cls, name, self.wrap(vars(cls)[name], label, span, pre, post))
            elif owner_name:
                cls = getattr(module, owner_name)
                self._set(cls, name, self.wrap(vars(cls)[name], label, span, pre, post))
            else:
                original = getattr(module, name)
                self._patch_function(module, name, self.wrap(original, label, span, pre, post))
        from repro.harness import workloads

        for entry in SWEPT_ENTRIES:
            self._set(workloads.WORKLOADS, entry, self._swept(workloads.WORKLOADS[entry]), item=True)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        for owner, name, original, item in reversed(self._patches):
            if item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _swept(self, fn: Callable) -> Callable:
        prefix = self.wrap(fn, "parallel.prefix", "prefix")
        fork = self.wrap(fn, "parallel.fork", "fork")
        tracer = self

        @functools.wraps(fn)
        def dispatch(*args: Any, **kwargs: Any) -> Any:
            if kwargs.get("resume_from") is not None:
                if os.getpid() == tracer.pid:
                    return fork(*args, **kwargs)
                # A pool worker: collect this fork alone and send it home.
                op_id = tracer.op_id
                tracer._fresh()
                tracer.op_id = op_id
                tracer.spans = []
                result = fork(*args, **kwargs)
                return result | {CHILD_KEY: {"stats": tracer.stats, "counts": tracer.counts,
                                             "spans": tracer.spans}}
            if kwargs.get("checkpoint_at") is not None:
                return prefix(*args, **kwargs)
            return fn(*args, **kwargs)

        return dispatch


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _outermost(spans: list[dict[str, Any]], name: str, pid: int) -> float:
    """Summed duration of ``name`` spans of process ``pid`` with no
    ``name`` ancestor."""
    by_id = {span["id"]: span for span in spans}
    total = 0.0
    for span in spans:
        if span["name"] != name or span["pid"] != pid:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += span["end"] - span["start"]
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of a traced run, per operation where a rate."""
    ops = max(len(tracer.ops), 1)
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for record in tracer.ops:
        for label, values in record["stats"].items():
            entry = stats.setdefault(label, [0, 0.0, 0.0])
            for k in range(3):
                entry[k] += values[k]
        for key, amount in record["counts"].items():
            counts[key] = counts.get(key, 0) + amount

    def calls(label: str) -> float:
        return stats.get(label, [0, 0.0, 0.0])[0] / ops

    def inclusive(label: str) -> float:
        return stats.get(label, [0, 0.0, 0.0])[1] / ops

    def own(*labels: str) -> float:
        return sum(stats.get(label, [0, 0.0, 0.0])[2] for label in labels) / ops

    def per_op(key: str) -> float:
        return counts.get(key, 0) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_seconds = sum(record["seconds"] for record in tracer.ops)
    kernel_seconds = _outermost(tracer.spans, "kernel.run", tracer.pid)
    metrics = {
        "harness.ops": len(tracer.ops),
        "harness.build_s": (op_seconds - kernel_seconds) / ops,
        "parallel.prefix_s": inclusive("parallel.prefix"),
        "parallel.pool_s": inclusive("parallel.pool"),
        "parallel.busy_frac": ratio(
            inclusive("parallel.fork"), POOL_WORKERS * inclusive("parallel.pool")
        ),
        "kernel.run_calls": calls("kernel.run"),
        "kernel.run_s": inclusive("kernel.run"),
        "kernel.self_s": own("kernel.run", "kernel.enqueue", "kernel.enqueue_batch"),
        "kernel.ticks": per_op("kernel.ticks"),
        "kernel.envelopes": per_op("kernel.envelopes"),
        "kernel.enqueue_calls": calls("kernel.enqueue"),
        "network.arrival_tick_calls": calls("network.arrival_tick"),
        "network.arrival_tick_s": inclusive("network.arrival_tick"),
        "network.batch_arrivals_calls": calls("network.batch_arrivals"),
        "network.batch_arrivals_s": inclusive("network.batch_arrivals"),
        "network.batch_recipients": per_op("network.batch_recipients"),
        "network.drops": per_op("network.drops"),
        "network.loss_frac": ratio(counts.get("network.drops", 0), counts.get("network.sends", 0)),
        "rng.seed_calls": calls("rng.seed"),
        "rng.seed_s": own("rng.seed", "rng.node_rng", "rng.instance_rng"),
        "metrics.record_calls": calls("metrics.record"),
        "metrics.record_s": inclusive("metrics.record"),
        "metrics.record_delivery_calls": calls("metrics.record_delivery"),
        "metrics.record_delivery_s": inclusive("metrics.record_delivery"),
        "metrics.record_drop_calls": calls("metrics.record_drop"),
        "metrics.bulk_calls": calls("metrics.bulk"),
        "metrics.bulk_s": inclusive("metrics.bulk"),
        "metrics.settle_s": inclusive("metrics.settle"),
        "node.send_calls": calls("node.send"),
        "node.broadcast_calls": calls("node.broadcast"),
        "node.send_batch_calls": calls("node.send_batch"),
        "node.context_s": own("node.send", "node.broadcast", "node.send_batch", "node.discover"),
        "batch.deliver_calls": calls("batch.deliver"),
        "batch.deliver_s": inclusive("batch.deliver"),
        "batch.capture_calls": calls("batch.capture"),
        "mux.on_round_calls": calls("mux.on_round"),
        "mux.on_round_s": inclusive("mux.on_round"),
        "mux.columnar_frac": ratio(counts.get("mux.columnar", 0), counts.get("mux.ops", 0)),
        "eigtree.resolve_calls": calls("eigtree.resolve"),
        "eigtree.resolve_s": inclusive("eigtree.resolve"),
        "eigtree.sweep_calls": calls("eigtree.sweep"),
        "eigtree.shortcut_frac": ratio(
            calls("eigtree.resolve") - per_op("eigtree.swept_resolves"), calls("eigtree.resolve")
        ),
        "eigtree.ingest_batch_calls": calls("eigtree.ingest_batch"),
        "eigtree.ingest_batch_s": inclusive("eigtree.ingest_batch"),
        "oral.on_round_s": inclusive("oral.on_round"),
        "fd.timeout.on_round_s": inclusive("fd.timeout.on_round"),
        "fd.adaptive.on_round_s": inclusive("fd.adaptive.on_round"),
        "fd.chain.on_round_s": inclusive("fd.chain.on_round"),
        "fd.discoveries": per_op("fd.discoveries"),
        "signed.on_round_s": inclusive("signed.on_round"),
        "crypto.encode_calls": calls("crypto.encode"),
        "crypto.encode_s": inclusive("crypto.encode"),
        "crypto.encode_bytes": per_op("crypto.encode_bytes"),
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.sign_s": inclusive("crypto.sign"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.verify_s": inclusive("crypto.verify"),
        "crypto.verify_cache_hit_frac": ratio(
            per_op("crypto.verify_cache_hits"), calls("crypto.verify")
        ),
        "crypto.verify_chain_calls": calls("crypto.verify_chain"),
        "crypto.verify_chain_s": inclusive("crypto.verify_chain"),
        "auth.keydist_s": inclusive("auth.keydist"),
        "auth.keydist_on_round_s": inclusive("auth.keydist_on_round"),
        "auth.dealer_s": inclusive("auth.dealer"),
        "faults.committed": per_op("faults.committed"),
        "snapshot.capture_calls": calls("snapshot.capture"),
        "snapshot.capture_s": inclusive("snapshot.capture"),
        "snapshot.restore_calls": calls("snapshot.restore"),
        "snapshot.restore_s": inclusive("snapshot.restore"),
        "snapshot.bytes": per_op("snapshot.bytes"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for label, values in stats.items():
        layer_self[_layer(label)] += values[2]
    traced = sum(layer_self.values())
    for layer, seconds in layer_self.items():
        metrics[f"self.{layer}_frac"] = ratio(seconds, traced)
    return metrics


def span_tree_errors(spans: list[dict[str, Any]], slack: float = 1e-6) -> list[str]:
    """Why a span list is not a well-formed forest (empty when it is).

    Every span lies inside its parent and belongs to its parent's
    operation, and every operation has exactly one root span.
    """
    errors = []
    by_id = {span["id"]: span for span in spans}
    roots: dict[Any, int] = {}
    for span in spans:
        if span["end"] < span["start"]:
            errors.append(f"span {span['id']} ends before it starts")
        parent = span["parent"]
        if parent is None:
            roots[span["op"]] = roots.get(span["op"], 0) + 1
            continue
        outer = by_id.get(parent)
        if outer is None:
            errors.append(f"span {span['id']} has unknown parent {parent}")
            continue
        if span["start"] < outer["start"] - slack or span["end"] > outer["end"] + slack:
            errors.append(f"span {span['id']} ({span['name']}) outside parent {parent}")
        if span["op"] != outer["op"]:
            errors.append(f"span {span['id']} crosses operations")
    for op in {span["op"] for span in spans}:
        if roots.get(op, 0) != 1:
            errors.append(f"operation {op} has {roots.get(op, 0)} root spans")
    return errors
