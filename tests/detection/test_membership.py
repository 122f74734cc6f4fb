"""The one membership ledger: sizes, the guard, and the two causes together.

* **degenerate equality** — on a fresh deployment of every bundled
  application the membership *is* ``config.gradient_quorum()`` over the whole
  worker roster, so a run without detection or resilience cannot tell it is
  there;
* **guard property** — whatever sequence of exclusions and re-admissions is
  attempted, the awaited replies still cover the gradient rule's
  ``minimum_inputs`` for the budget still assumed, evictions stay within the
  declared f, a refused call changes nothing and the dead stay dead;
* **two causes, one ledger** — f evictions and a death commute.
"""

from __future__ import annotations

import random

import pytest

from repro.aggregators.base import GAR_REGISTRY
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.detection.membership import DEAD, EVICTED, Membership
from repro.exceptions import ConfigurationError
from repro.network.topology import DEPLOYMENTS

pytestmark = pytest.mark.detection


def snapshot(membership: Membership):
    return (
        membership.active(),
        membership.excluded(EVICTED),
        membership.excluded(DEAD),
        membership.quorum(),
        membership.effective_f(),
    )


class TestDegenerateCase:
    @pytest.mark.parametrize("asynchronous", [False, True])
    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_fresh_deployment_is_the_static_quorum_over_the_roster(
        self, deployment, asynchronous
    ):
        config = ClusterConfig(
            deployment=deployment,
            num_workers=7,
            num_byzantine_workers=1,
            num_servers=3 if deployment in ("msmw", "crash-tolerant") else 1,
            gradient_gar="median",
            asynchronous=asynchronous,
            model="logistic",
            dataset_size=140,
        )
        with Controller(config).build() as deployed:
            membership = deployed.membership
            assert membership.quorum() == config.gradient_quorum()
            assert membership.active() == tuple(w.node_id for w in deployed.workers)
            assert membership.effective_f() == deployed.gradient_gar.f
            replicas = deployed.replicas
            if deployed.model_gar is None:
                assert replicas is None
            else:
                # The model GAR's static row count: peers plus the own row.
                assert replicas.quorum() == config.model_quorum() + 1 == deployed.model_gar.n
                assert replicas.active() == tuple(s.node_id for s in deployed.servers)
                assert replicas.effective_f() == deployed.model_gar.f

    def test_construction_is_validated(self):
        with pytest.raises(ConfigurationError, match="non-empty roster"):
            Membership(())
        with pytest.raises(ConfigurationError, match="unknown GAR"):
            Membership(["w0"], gar_name="nonsense")


class TestGuardProperty:
    @pytest.mark.parametrize("gar_name", sorted(GAR_REGISTRY))
    def test_no_call_sequence_breaks_the_bounds(self, gar_name):
        rng = random.Random(f"membership-{gar_name}")
        gar_cls = GAR_REGISTRY[gar_name]
        budgets = [f for f in range(5) if gar_cls.minimum_inputs(f) <= 16]
        for _ in range(60):
            declared_f = rng.choice(budgets)
            n = rng.randint(max(1, gar_cls.minimum_inputs(declared_f)), 16)
            slack = rng.choice([0, declared_f])
            if n - slack < max(1, gar_cls.minimum_inputs(declared_f)):
                slack = 0
            roster = [f"w{i}" for i in range(n)]
            membership = Membership(
                roster, declared_f=declared_f, gar_name=gar_name, slack=slack
            )
            dead = set()
            for _ in range(40):
                name = rng.choice(roster)
                before = snapshot(membership)
                if rng.random() < 0.3:
                    changed = membership.readmit(name)
                    assert not (changed and name in dead), "the dead are never re-admitted"
                else:
                    cause = rng.choice([EVICTED, DEAD])
                    changed = membership.exclude(name, cause)
                    if changed and cause == DEAD:
                        dead.add(name)
                if not changed:
                    assert snapshot(membership) == before
                assert len(membership.excluded(EVICTED)) <= declared_f
                assert membership.quorum() >= max(
                    1, gar_cls.minimum_inputs(membership.effective_f())
                )
                assert set(membership.excluded(DEAD)) == dead

    @pytest.mark.parametrize("gar_name", sorted(GAR_REGISTRY))
    def test_no_death_sequence_starves_the_model_rule(self, gar_name):
        """The replica roster: deaths only, the own row counted (floor 2).
        Whatever replicas die, the awaited rows still cover the model GAR's
        ``minimum_inputs`` at the unchanged f and leave at least one peer;
        a death that would not is refused and changes nothing."""
        rng = random.Random(f"replicas-{gar_name}")
        gar_cls = GAR_REGISTRY[gar_name]
        for _ in range(60):
            f_ps = rng.choice([f for f in range(4) if gar_cls.minimum_inputs(f) <= 12])
            rows = rng.randint(max(2, gar_cls.minimum_inputs(f_ps)), 12)
            roster = [f"server-{i}" for i in range(rows + rng.randint(0, f_ps))]
            replicas = Membership(
                roster, declared_f=f_ps, gar_name=gar_name, slack=len(roster) - rows, floor=2
            )
            for name in rng.sample(roster, len(roster)):
                before = snapshot(replicas)
                if not replicas.exclude(name, DEAD):
                    assert snapshot(replicas) == before
                assert replicas.quorum() >= max(2, gar_cls.minimum_inputs(f_ps))
                assert replicas.effective_f() == f_ps
            # Deaths stop exactly at the floor: one more row would be too few.
            assert replicas.quorum() == max(2, gar_cls.minimum_inputs(f_ps))

    def test_unknown_workers_are_configuration_errors(self):
        membership = Membership(["w0", "w1"], declared_f=1)
        for call in (
            lambda: membership.exclude("stranger", DEAD),
            lambda: membership.readmit("stranger"),
            lambda: membership.cause("stranger"),
        ):
            with pytest.raises(ConfigurationError, match="unknown node"):
                call()


class TestTwoCauses:
    """What neither old owner could express: both causes on one roster."""

    def make(self):
        # krum needs 2f + 3 rows: 9 workers, f = 2, synchronous.
        return Membership(
            [f"w{i}" for i in range(9)], declared_f=2, gar_name="krum", slack=0
        )

    def test_evictions_and_a_death_commute(self):
        first, second = self.make(), self.make()
        assert first.exclude("w0", EVICTED) and first.exclude("w1", EVICTED)
        assert first.exclude("w2", DEAD)
        assert second.exclude("w2", DEAD)
        assert second.exclude("w0", EVICTED) and second.exclude("w1", EVICTED)
        assert snapshot(first) == snapshot(second)
        assert first.quorum() == 6 and first.effective_f() == 0

    def test_a_death_spends_no_budget_and_an_eviction_is_capped(self):
        membership = self.make()
        assert membership.exclude("w8", DEAD)
        assert membership.effective_f() == 2  # a crash is not a lie
        assert membership.exclude("w0", EVICTED) and membership.exclude("w1", EVICTED)
        assert membership.exclude("w2", EVICTED) is False  # the (f+1)-th
        assert membership.exclude("w2", DEAD) is True  # no cap on deaths

    def test_a_readmission_that_would_starve_the_rule_is_refused(self):
        """Evicting lowered the floor (f 2 -> 1: 7 -> 5 rows) and deaths used
        the room; taking the worker back would raise the floor above the
        rows left, so it stays out until the bound can hold again."""
        membership = self.make()
        assert membership.exclude("w0", EVICTED)
        for name in ("w1", "w2", "w3"):
            assert membership.exclude(name, DEAD)
        assert membership.quorum() == 5
        assert membership.readmit("w0") is False
        assert membership.excluded(EVICTED) == ("w0",)
