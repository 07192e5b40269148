"""Scenario runner: authentication setup + protocol run + evaluation.

One call = one experiment data point.  The runner wires together the
layers in the order the paper prescribes: establish authentication (local
key distribution or global trusted dealer), then run a Failure Discovery
or agreement protocol on the resulting key material, then evaluate the
F1-F3 / BA conditions.

Every scenario — FD or BA, straight, checkpointed or resumed, and each
run of an :class:`~repro.harness.session.AmortizedSession` — goes through
one private core, :func:`_run_scenario`.  Its corruption enters through
one input, ``adversary=``, so the faulty set the evaluation subtracts is
always the one the adversary actually corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from ..agreement import (
    BAEvaluation,
    evaluate_ba,
    make_extended_protocols,
    make_signed_agreement_protocols,
)
from ..auth import (
    KeyDirectory,
    KeyDistributionResult,
    run_key_distribution,
    trusted_dealer_setup,
)
from ..crypto import DEFAULT_SCHEME
from ..crypto.keys import KeyPair
from ..errors import ConfigurationError
from ..faults.adversary import AdaptiveCoordinator, AdversarySpec, make_adversary
from ..fd import (
    FDEvaluation,
    evaluate_fd,
    make_adaptive_fd_protocols,
    make_chain_fd_protocols,
    make_echo_fd_protocols,
    make_small_range_protocols,
    make_timeout_fd_protocols,
)
from ..sim import (
    DeliveryModel,
    EventKernel,
    KernelSnapshot,
    Protocol,
    RunResult,
    capture_kernel,
    make_delivery,
    retune_protocols,
)
from ..types import NodeId

#: Authentication modes: the paper's new mechanism vs the classic baseline.
LOCAL = "local"
GLOBAL = "global"

#: The ``adversary=`` parameter of the scenario runners: a spec string, a
#: ready :class:`~repro.faults.AdversarySpec`, or a deferred factory
#: ``(keypairs, directories) -> AdversarySpec`` for corruption that needs
#: key material (the attack scenarios).
AdversaryInput = Any


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    :ivar kd: the key distribution result (None under global auth).
    :ivar run: the protocol run itself.
    :ivar fd: F1-F3 evaluation (None for BA scenarios).
    :ivar ba: BA evaluation (None for FD scenarios).
    :ivar correct: the correct-node set the evaluation used — with
        adaptive corruptions already subtracted.
    :ivar committed: corruptions an adaptive adversary strategy
        committed online, as ``(node, behaviour-spec)`` pairs in node
        order (empty for static adversaries).
    """

    kd: KeyDistributionResult | None
    run: RunResult
    fd: FDEvaluation | None
    ba: BAEvaluation | None
    correct: set[NodeId]
    committed: tuple[tuple[NodeId, str], ...] = ()

    @property
    def total_messages(self) -> int:
        """Protocol messages plus (under local auth) key distribution."""
        kd_messages = self.kd.messages if self.kd is not None else 0
        return kd_messages + self.run.metrics.messages_total


def setup_authentication(
    n: int,
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
) -> tuple[dict[NodeId, KeyPair], dict[NodeId, KeyDirectory], KeyDistributionResult | None]:
    """Establish keys and directories in the requested mode.

    :param auth: :data:`LOCAL` (run the paper's Fig. 1 protocol, possibly
        with Byzantine participants) or :data:`GLOBAL` (trusted dealer).
    :returns: ``(keypairs, directories, kd_result_or_None)``.
    """
    if auth == GLOBAL:
        if kd_adversaries:
            raise ConfigurationError(
                "key-distribution adversaries only make sense under local auth"
            )
        keypairs, directories = trusted_dealer_setup(n, scheme=scheme, seed=seed)
        return keypairs, directories, None
    if auth == LOCAL:
        kd = run_key_distribution(
            n, scheme=scheme, adversaries=kd_adversaries, seed=seed
        )
        return kd.keypairs, kd.directories, kd
    raise ConfigurationError(f"unknown auth mode {auth!r}")


def _echo(n, t, value, keypairs, directories, **kwargs) -> list[Protocol]:
    """The non-authenticated echo baseline ignores key material."""
    return make_echo_fd_protocols(n, t, value, **kwargs)


#: kind -> protocol name -> factory ``(n, t, value, keypairs,
#: directories, adversaries=..., **protocol_params)``.
_PROTOCOLS = {
    "fd": {
        "chain": make_chain_fd_protocols,
        "echo": _echo,
        "timeout": make_timeout_fd_protocols,
        "adaptive": make_adaptive_fd_protocols,
        "smallrange": make_small_range_protocols,
        "smallrange-optimistic": partial(make_small_range_protocols, optimistic=True),
    },
    "ba": {
        "extension": make_extended_protocols,
        "signed": make_signed_agreement_protocols,
    },
}


def _find_coordinator(protocols: list[Protocol]) -> AdaptiveCoordinator | None:
    """The adaptive coordinator shared by a run's wrapper protocols, if
    any — recovered from a resumed kernel's protocol list (the
    single-pickle snapshot preserves the sharing, so the first wrapper's
    coordinator *is* every wrapper's coordinator)."""
    for protocol in protocols:
        coordinator = getattr(protocol, "_coordinator", None)
        if isinstance(coordinator, AdaptiveCoordinator):
            return coordinator
    return None


def _resume_kernel(
    snapshot: KernelSnapshot,
    kind: str,
    delivery: "str | DeliveryModel | None",
    **given: Any,
) -> EventKernel:
    """Validate a prefix snapshot against the caller's scenario and
    resume it — mismatched forks fail fast instead of silently
    evaluating the wrong run."""
    scenario = snapshot.extras.get("scenario")
    if not isinstance(scenario, dict) or scenario.get("kind") != kind:
        raise ConfigurationError(
            f"snapshot does not carry an {kind.upper()} scenario fingerprint "
            "— resume_from expects a snapshot made by run_fd_scenario(..., "
            "checkpoint_at=T)"
        )
    for name, value in given.items():
        if scenario.get(name) != value:
            raise ConfigurationError(
                f"resume mismatch: snapshot was taken with "
                f"{name}={scenario.get(name)!r}, this call passes {value!r}"
            )
    recorded = scenario.get("delivery")
    if (
        isinstance(delivery, str)
        and isinstance(recorded, str)
        and delivery != recorded
    ):
        raise ConfigurationError(
            f"resume mismatch: snapshot was taken under delivery "
            f"{recorded!r}, this call passes {delivery!r} — the delivery "
            "model is part of the shared prefix, not a fork axis"
        )
    return EventKernel.resume(snapshot)


def _run_scenario(
    kind: str,
    n: int,
    t: int,
    value: Any,
    protocol: str,
    *,
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
    keys: tuple | None = None,
    delivery: "str | DeliveryModel | None" = None,
    adversary: AdversaryInput = None,
    record_trace: bool = False,
    protocol_params: dict[str, Any] | None = None,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> "ScenarioOutcome | KernelSnapshot":
    """The one scenario core behind the public runners and sessions.

    Takes (``keys``: ``(keypairs, directories, kd)``) or establishes key
    material, resolves the adversary, builds the ``kind`` protocols from
    :data:`_PROTOCOLS`, runs (or checkpoints, or resumes), folds adaptive
    commitments into the faulty set and evaluates F1-F3 or BA.
    """
    if resume_from is not None:
        if checkpoint_at is not None:
            raise ConfigurationError(
                "checkpoint_at and resume_from are mutually exclusive: a "
                "call either captures a prefix or finishes one"
            )
        kernel = _resume_kernel(
            resume_from, kind, delivery, n=n, t=t, protocol=protocol, seed=seed
        )
        if protocol_params:
            retune_protocols(kernel.protocols, **protocol_params)
        kd = resume_from.extras.get("kd")
        faulty = set(resume_from.extras["scenario"]["faulty"])
        coordinator = _find_coordinator(kernel.protocols)
    else:
        factory = _PROTOCOLS[kind].get(protocol)
        if factory is None:
            raise ConfigurationError(f"unknown {kind.upper()} protocol {protocol!r}")
        deferred = callable(adversary) and not isinstance(
            adversary, (str, AdversarySpec)
        )
        if keys is None and protocol == "echo" and auth == GLOBAL and not (
            deferred or kd_adversaries
        ):
            # The echo baseline is non-authenticated: no protocol or
            # adversary consumes key material, and a global dealer
            # contributes neither messages nor rounds — skip its
            # (expensive) key generation.
            keys = {}, {}, None
        if keys is None:
            keys = setup_authentication(
                n, auth=auth, scheme=scheme, seed=seed, kd_adversaries=kd_adversaries
            )
        keypairs, directories, kd = keys
        if deferred:
            # Corruption that needs key material (the attack scenarios)
            # is resolved once authentication ran.
            adversary = adversary(keypairs, directories)
        spec = make_adversary(adversary, t=t)
        faulty = set(kd_adversaries or {})
        overrides: dict[NodeId, Protocol] = {}
        coordinator = None
        if spec is not None:
            faulty |= spec.faulty
            # Overrides may corrupt nodes whose key material never
            # existed (kd-phase casualties), so they enter through the
            # factories' skip path; declarative behaviours wrap the
            # honest protocol after construction.
            overrides = dict(spec.overrides)
            if delivery is None:
                delivery = spec.delivery
        protocols = factory(
            n, t, value, keypairs, directories, adversaries=overrides,
            **(protocol_params or {}),
        )
        if spec is not None and (spec.corrupt or spec.strategy is not None):
            protocols, coordinator = spec.adaptive_protocols_for(protocols)
        kernel = EventKernel(
            protocols,
            seed=seed,
            delivery=make_delivery(delivery, rushing=faulty),
            record_trace=record_trace,
        )
        if checkpoint_at is not None:
            partial_run = kernel.run(until_tick=checkpoint_at)
            if partial_run is not None:
                raise ConfigurationError(
                    f"run completed after {partial_run.rounds_executed} ticks, "
                    f"before the checkpoint tick {checkpoint_at} — a prefix "
                    "snapshot must precede completion"
                )
            return capture_kernel(
                kernel,
                extras={
                    "scenario": {
                        "kind": kind,
                        "n": n,
                        "t": t,
                        "protocol": protocol,
                        "seed": seed,
                        "delivery": delivery if isinstance(delivery, str) else None,
                        "adversary": spec.spec() if spec is not None else None,
                        "faulty": sorted(faulty),
                    },
                    "kd": kd,
                },
            )
    run = kernel.run()
    committed: tuple[tuple[NodeId, str], ...] = ()
    if coordinator is not None and coordinator.committed:
        # Adaptive corruptions exist only now the run has happened —
        # they join the faulty set before the conditions are judged.
        committed = tuple(
            (node, behavior.spec())
            for node, behavior in sorted(coordinator.committed.items())
        )
        faulty |= coordinator.committed_nodes
    correct = set(range(n)) - faulty
    fd_eval = ba_eval = None
    if kind == "fd":
        fd_eval = evaluate_fd(run, correct, sender=0, sender_value=value)
    else:
        ba_eval = evaluate_ba(run, correct, sender=0, sender_value=value)
    return ScenarioOutcome(
        kd=kd, run=run, fd=fd_eval, ba=ba_eval, correct=correct, committed=committed
    )


def run_fd_scenario(
    n: int,
    t: int,
    value: Any,
    protocol: str = "chain",
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
    delivery: str | DeliveryModel | None = None,
    adversary: AdversaryInput = None,
    record_trace: bool = False,
    protocol_params: dict[str, Any] | None = None,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> "ScenarioOutcome | KernelSnapshot":
    """Run one Failure Discovery scenario end to end.

    :param protocol: ``"chain"`` (paper Fig. 2), ``"echo"`` (non-auth
        baseline), ``"smallrange"`` / ``"smallrange-optimistic"`` (binary
        variants), ``"timeout"`` (heartbeat/timeout FD for the weak
        delivery models, :mod:`repro.fd.timeout`), ``"adaptive"``
        (adaptive-timeout FD with measured deadlines,
        :mod:`repro.fd.adaptive`).
    :param kd_adversaries: Byzantine behaviours during key distribution
        (local auth only) — the one key-distribution-phase input; these
        nodes count as faulty in the FD evaluation too.
    :param delivery: delivery model for the FD run — an instance or a
        spec string (see :func:`repro.sim.make_delivery`); a ``"rush"``
        spec without an explicit node list rushes the faulty set.  The
        key-distribution phase always runs lock-step (it establishes the
        baseline the paper assumes); only the FD phase is skewed.
    :param adversary: the FD-phase adversary, the only way to corrupt
        the run — an :class:`~repro.faults.AdversarySpec`, its spec
        string (see :func:`repro.faults.make_adversary`), or a deferred
        factory ``(keypairs, directories) -> AdversarySpec`` for
        corruption that needs key material.  Budget-checked against
        ``t``; its corruptions are installed over the honest protocols,
        its corrupt nodes (plus ``kd_adversaries`` and any adaptive
        commitments) are the faulty set the evaluation subtracts, and
        its delivery power applies when ``delivery`` is unset.
    :param record_trace: capture the FD run's structured event log.
    :param protocol_params: extra keyword arguments for the protocol
        factory (e.g. ``timeout`` / ``retransmit_every`` for
        ``"timeout"``).  In ``resume_from`` mode they are *retunes*
        applied to the resumed protocols instead
        (:func:`repro.sim.retune_protocols`) — only warm-fork-safe
        parameters (the protocol's ``tunable`` set) are accepted.
    :param checkpoint_at: run only to this tick and return a
        :class:`~repro.sim.KernelSnapshot` (carrying the scenario
        fingerprint and evaluation inputs) instead of an outcome — the
        shared-prefix half of a warm-started sweep.  Fails fast if the
        run completes before the checkpoint tick.
    :param resume_from: finish a previously captured prefix snapshot
        instead of starting from tick 0; every other scenario parameter
        must match the snapshot's fingerprint, and ``protocol_params``
        become the fork's retunes.
    """
    return _run_scenario(
        "fd", n, t, value, protocol, auth=auth, scheme=scheme, seed=seed,
        kd_adversaries=kd_adversaries, delivery=delivery, adversary=adversary,
        record_trace=record_trace, protocol_params=protocol_params,
        checkpoint_at=checkpoint_at, resume_from=resume_from,
    )


def run_ba_scenario(
    n: int,
    t: int,
    value: Any,
    protocol: str = "extension",
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
    delivery: str | DeliveryModel | None = None,
    adversary: AdversaryInput = None,
    record_trace: bool = False,
) -> ScenarioOutcome:
    """Run one Byzantine Agreement scenario end to end.

    :param protocol: ``"extension"`` (FD→BA) or ``"signed"`` (SM(t)).
    :param kd_adversaries: Byzantine behaviours during key distribution
        (local auth only), counted faulty in the BA evaluation.
    :param delivery: delivery model for the BA run (instance or spec
        string; ``"rush"`` without node list rushes the faulty set).
    :param adversary: the BA-phase adversary — spec string,
        :class:`~repro.faults.AdversarySpec` or deferred
        ``(keypairs, directories) -> AdversarySpec`` factory,
        budget-checked against ``t``; it names the faulty set — see
        :func:`run_fd_scenario`.
    :param record_trace: capture the BA run's structured event log.
    """
    return _run_scenario(
        "ba", n, t, value, protocol, auth=auth, scheme=scheme, seed=seed,
        kd_adversaries=kd_adversaries, delivery=delivery, adversary=adversary,
        record_trace=record_trace,
    )
