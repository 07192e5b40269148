"""The operation generator: a pure function of ``(workload, seed)``.

Every workload is a fixed rotation of *cell kinds*.  A kind fixes the
workload entry point, ``n`` and ``t``; its *variants* are the grid of
conditions it covers (loss rate, calendar, attack, ...).  The seed
shuffles each kind's variant grid and draws every operation's simulation
seed, so two seeds run different inputs with the same mix of conditions:
the kinds' shares are exact per rotation and every variant recurs once
per pass over its grid.  That keeps a run's median steady across seeds
while the seed still changes what is simulated.

``n`` is chosen per kind so that the kinds of one workload cost about the
same host time; where they cannot (``auth-local``: chain FD at n=64 costs
about 1.4x signed BA at n=48), the rotation weights one kind 2:1 so that
the median falls inside a cluster instead of on the boundary between two.
``auth-local`` weights signed BA: chain-FD cells grow slower over a run as
the process-wide verification memo fills, and the median should not sit
on that drift.

This module imports nothing from ``repro``: the benchmark's parent process
generates nothing, and the worker hands the program only the parameters
built here.
"""

from __future__ import annotations

import itertools
import random
from typing import Any

#: Seed whose per-operation count digests are stored in ``digests.json``.
DEFAULT_SEED = 1

#: Operations the worker generates up front (part of set-up).  A run that
#: outlasts them wraps around; at the calibrated sizes a 60 s run uses
#: fewer than half.
PLAN_LENGTH = 2000

#: Timeout-axis points per warm sweep, and their spacing past the prefix.
SWEEP_POINTS = 6
SWEEP_STEP = 2

#: Fixed parameters of the local-authentication scenarios.  Counts are
#: scheme-independent; the simulated HMAC scheme is the count scheme the
#: registry's sweeps use.
_LOCAL_AUTH = {"auth": "local", "scheme": "simulated-hmac", "value": "v"}

# kind -> (entry point, fixed params, variant axes).  The entry point is a
# ``repro.harness.workloads`` registry name; ``"fd-scenario"`` /
# ``"ba-scenario"`` for ``repro.harness.run_fd_scenario`` /
# ``run_ba_scenario``, whose outcomes carry the key distribution's own
# counts; or ``"sweep"`` for a prefix-shared timeout-axis sweep of the
# registry entry named by ``fn``.
KINDS: dict[str, tuple[str, dict[str, Any], dict[str, tuple[Any, ...]]]] = {
    # -- fd-lossy: the per-envelope calendar path ------------------------
    "timeout-fd": (
        "e13-timeout-fd",
        {"n": 32, "t": 3, "protocol": "timeout"},
        {
            "delivery": ("loss:0.1", "loss:0.2", "loss:0.3", "bounded:4"),
            "faulty": (0, 1),
        },
    ),
    "partition-fd": (
        "e13-partition",
        {"n": 36, "t": 3, "protocol": "timeout", "defer": True},
        {"heal": (4, 5, 6)},
    ),
    "adaptive-fd": (
        "e14-adaptive",
        {"n": 28, "t": 3, "protocol": "adaptive"},
        {
            "delivery": ("loss:0.1", "loss:0.2", "loss:0.3", "bounded:4"),
            "attack": ("none", "silent", "adaptive:silence-muffled"),
        },
    ),
    # -- akd-mux: agreement-based key distribution, columnar mux ---------
    "akd-sync-t2": ("akd", {"n": 32, "t": 2}, {}),
    "akd-sync-t3": ("akd", {"n": 28, "t": 3}, {}),
    "akd-bounded": ("akd", {"n": 28, "t": 1, "delivery": "bounded:3"}, {}),
    "akd-loss": ("akd", {"n": 28, "t": 1, "delivery": "loss:0.05:2"}, {}),
    # -- auth-local: Fig. 1 key distribution + chain FD or signed BA -----
    "local-fd": ("fd-scenario", {"n": 64, "t": 21, **_LOCAL_AUTH, "protocol": "chain"}, {}),
    "local-ba": ("ba-scenario", {"n": 48, "t": 15, **_LOCAL_AUTH, "protocol": "signed"}, {}),
    # -- warm-sweep: prefix-shared timeout-axis sweeps -------------------
    "warm-timeout": (
        "sweep",
        {
            "fn": "e13-timeout-fd",
            "base": {"n": 16, "t": 3, "protocol": "timeout", "faulty": 1},
        },
        {"loss": (0.1, 0.15, 0.2), "prefix_ticks": (40, 50, 60)},
    ),
    "warm-muffler": (
        "sweep",
        {
            "fn": "e14-adaptive",
            "base": {
                "n": 16,
                "t": 3,
                "protocol": "timeout",
                "attack": "adaptive:silence-muffled",
            },
        },
        {"loss": (0.1, 0.15, 0.2), "prefix_ticks": (40, 50, 60)},
    ),
}

#: workload -> kind rotation (a kind listed twice gets twice the share).
ROTATIONS: dict[str, tuple[str, ...]] = {
    "fd-lossy": ("timeout-fd", "partition-fd", "adaptive-fd"),
    "akd-mux": ("akd-sync-t2", "akd-bounded", "akd-sync-t3", "akd-loss", "akd-sync-t2"),
    "auth-local": ("local-ba", "local-fd", "local-ba"),
    "warm-sweep": ("warm-timeout", "warm-muffler", "warm-timeout"),
}

WORKLOADS: tuple[str, ...] = tuple(ROTATIONS)


def _variant_grid(axes: dict[str, tuple[Any, ...]]) -> list[dict[str, Any]]:
    names = sorted(axes)
    return [dict(zip(names, combo)) for combo in itertools.product(*(axes[k] for k in names))]


def _params(kind: str, variant: dict[str, Any], sim_seed: int) -> dict[str, Any]:
    entry, fixed, _ = KINDS[kind]
    if entry != "sweep":
        return {**fixed, **variant, "seed": sim_seed}
    prefix_ticks = variant["prefix_ticks"]
    base = {**fixed["base"], "delivery": f"loss:{variant['loss']}:2", "seed": sim_seed}
    return {
        "fn": fixed["fn"],
        "base": base,
        "prefix_ticks": prefix_ticks,
        "timeouts": [prefix_ticks + 1 + SWEEP_STEP * k for k in range(SWEEP_POINTS)],
    }


def generate(workload: str, seed: int, count: int = PLAN_LENGTH) -> list[dict[str, Any]]:
    """The first ``count`` operations of ``workload`` under ``seed``.

    Each operation is ``{"id", "kind", "entry", "params"}`` with plain-data
    params.  The list is a pure function of its arguments, and a shorter
    list is a prefix of a longer one.

    :raises ValueError: for an unknown workload name.
    """
    if workload not in ROTATIONS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    rotation = ROTATIONS[workload]
    grids = {}
    for kind in sorted(set(rotation)):
        grid = _variant_grid(KINDS[kind][2])
        rng.shuffle(grid)
        grids[kind] = grid
    used = dict.fromkeys(grids, 0)
    ops = []
    for op_id in range(count):
        kind = rotation[op_id % len(rotation)]
        grid = grids[kind]
        variant = grid[used[kind] % len(grid)]
        used[kind] += 1
        ops.append(
            {
                "id": op_id,
                "kind": kind,
                "entry": KINDS[kind][0],
                "params": _params(kind, variant, rng.randrange(1 << 31)),
            }
        )
    return ops
