"""Per-operation output checks and count digests.

A check never raises: it returns the list of failures for one operation,
and the runner marks the operation failed and prints them.  Three kinds
of check apply:

* **closed forms** — the paper's message counts, on the cells where they
  hold exactly (lock-step, failure-free): Fig. 1 key distribution
  ``3n(n-1)``, chain FD ``n-1``, SM(t) ``(n-1)+(n-1)(n-2)``, and the
  agreement-based key distribution aggregate and per-instance counts;
* **verdicts** — ``fd_ok`` on every FD cell and warm-sweep fork, BA
  ``agreement``, AKD ``agreed`` on the lock-step cells, and the columnar
  engine engaged on every mux cell;
* **digests** — a hash of the operation's counts, compared with
  ``digests.json`` for the default seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.analysis.complexity import (
    akd_envelopes,
    akd_instance_envelopes,
    fd_auth_messages,
    keydist_messages,
    sm_messages,
)

from .workloads import SWEEP_POINTS


def digest(counts: Any) -> str:
    """A short, order-independent hash of one operation's count data."""
    blob = json.dumps(counts, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def envelopes(op: dict[str, Any], counts: Any) -> int:
    """Simulated envelopes of one operation, key distribution included."""
    if op["entry"] == "sweep":
        return sum(point["messages"] for point in counts)
    if op["entry"] in ("fd-scenario", "ba-scenario"):
        return counts["total_messages"]
    return counts["messages"]


def _expect(failures: list[str], label: str, got: Any, want: Any) -> None:
    if got != want:
        failures.append(f"{label}: got {got!r}, expected {want!r}")


def check(op: dict[str, Any], counts: Any, stored_digest: str | None = None) -> list[str]:
    """Every failure of one operation's outputs (empty when it passed)."""
    failures: list[str] = []
    params = op["params"]
    entry = op["entry"]
    if entry == "sweep":
        _expect(failures, "sweep points", len(counts), SWEEP_POINTS)
        for timeout, point in zip(params["timeouts"], counts):
            _expect(failures, f"fork timeout={timeout} fd_ok", point["fd_ok"], True)
    elif entry in ("e13-timeout-fd", "e13-partition", "e14-adaptive"):
        _expect(failures, "fd_ok", counts["fd_ok"], True)
    elif entry == "akd":
        n, t = params["n"], params["t"]
        _expect(failures, "instances", counts["instances"], n)
        _expect(failures, "engine_used", counts["engine_used"], "columnar")
        if "delivery" not in params:
            _expect(failures, "akd_envelopes", counts["messages"], akd_envelopes(n, t))
            per_instance = akd_instance_envelopes(n, t)
            _expect(failures, "akd_instance_envelopes min", counts["instance_messages_min"], per_instance)
            _expect(failures, "akd_instance_envelopes max", counts["instance_messages_max"], per_instance)
            _expect(failures, "agreed", counts["agreed"], True)
    elif entry == "fd-scenario":
        n, t = params["n"], params["t"]
        _expect(failures, "keydist_messages", counts["kd_messages"], keydist_messages(n))
        _expect(failures, "fd_auth_messages", counts["messages"], fd_auth_messages(n, t))
        _expect(failures, "fd_ok", counts["fd_ok"], True)
    elif entry == "ba-scenario":
        n, t = params["n"], params["t"]
        _expect(failures, "keydist_messages", counts["kd_messages"], keydist_messages(n))
        _expect(failures, "sm_messages", counts["messages"], sm_messages(n, t))
        _expect(failures, "agreement", counts["agreement"], True)
    else:
        failures.append(f"no checks for entry {entry!r}")
    if stored_digest is not None:
        _expect(failures, "count digest", digest(counts), stored_digest)
    return failures
