"""Harness: scenario runner wiring, auth modes, error handling."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import AdversarySpec, SilentProtocol
from repro.harness import (
    GLOBAL,
    LOCAL,
    attack_catalogue,
    run_ba_scenario,
    run_fd_scenario,
    setup_authentication,
)


class TestSetupAuthentication:
    def test_global_produces_consistent_directories(self):
        keypairs, directories, kd = setup_authentication(5, auth=GLOBAL, seed=1)
        assert kd is None
        for observer in range(5):
            for subject in range(5):
                assert directories[observer].predicate_for(subject) == (
                    keypairs[subject].predicate
                )

    def test_local_returns_kd_result(self):
        keypairs, directories, kd = setup_authentication(4, auth=LOCAL, seed=1)
        assert kd is not None
        assert kd.messages == 3 * 4 * 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            setup_authentication(4, auth="vibes")

    def test_kd_adversaries_under_global_rejected(self):
        with pytest.raises(ConfigurationError):
            setup_authentication(
                4, auth=GLOBAL, kd_adversaries={1: SilentProtocol()}
            )


class TestRunFdScenario:
    def test_chain_defaults(self):
        outcome = run_fd_scenario(6, 1, "v", seed=2)
        assert outcome.fd.ok
        assert outcome.ba is None
        assert outcome.total_messages == 5  # no keydist under global auth

    def test_total_messages_includes_keydist_under_local(self):
        outcome = run_fd_scenario(6, 1, "v", auth=LOCAL, seed=2)
        assert outcome.total_messages == 3 * 6 * 5 + 5

    def test_echo_protocol(self):
        outcome = run_fd_scenario(6, 2, "v", protocol="echo", seed=3)
        assert outcome.fd.ok
        assert outcome.run.metrics.messages_total == 3 * 5

    def test_smallrange_protocols(self):
        sound = run_fd_scenario(6, 0, 1, protocol="smallrange", seed=4)
        optimistic = run_fd_scenario(
            6, 2, 0, protocol="smallrange-optimistic", seed=4
        )
        assert sound.fd.ok and optimistic.fd.ok
        assert optimistic.run.metrics.messages_total == 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fd_scenario(6, 1, "v", protocol="pigeon")

    def test_faulty_set_inferred_from_adversaries(self):
        outcome = run_fd_scenario(
            6,
            1,
            "v",
            seed=5,
            adversary=lambda kp, dirs: AdversarySpec(
                overrides={1: SilentProtocol()}, t=1
            ),
        )
        assert outcome.correct == {0, 2, 3, 4, 5}
        assert outcome.fd.ok and outcome.fd.any_discovery

    @pytest.mark.parametrize(
        "scenario", attack_catalogue(8, 2), ids=lambda s: s.name
    )
    def test_attack_faulty_set_derived_from_adversary(self, scenario):
        """The E6 catalogue's faulty sets need not be restated: the
        runner derives them from what the scenario corrupts."""
        outcome = run_fd_scenario(
            8,
            2,
            "v",
            auth=LOCAL,
            scheme="simulated-hmac",
            seed=1,
            kd_adversaries=scenario.kd_adversaries(),
            adversary=scenario.adversary(8, 2),
        )
        assert outcome.correct == set(range(8)) - scenario.faulty


class TestRunBaScenario:
    def test_extension_default(self):
        outcome = run_ba_scenario(6, 1, "v", seed=7)
        assert outcome.ba.ok
        assert outcome.fd is None
        assert outcome.run.metrics.messages_total == 5

    def test_signed_protocol(self):
        outcome = run_ba_scenario(6, 1, "v", protocol="signed", seed=8)
        assert outcome.ba.ok
        assert outcome.run.metrics.messages_total == 5 + 5 * 4

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_ba_scenario(6, 1, "v", protocol="quantum")
