"""Third-party strategies are validated by the shape they declare.

A strategy that declares nothing gets SSMW's checks; one that declares server
replicas with a model phase gets MSMW's ``f_ps`` bounds, its model-GAR
precondition and a model GAR.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterConfig, DeploymentShape
from repro.core.controller import Controller
from repro.core.session import APPLICATION_REGISTRY, RoundStrategy, register_application
from repro.exceptions import ConfigurationError


def rule(gar):
    return None if gar is None else (gar.name, gar.n, gar.f)


@pytest.fixture
def registered():
    """Register strategy classes for one test, and remove them afterwards."""
    names = []

    def register(name, cls):
        names.append(name)
        return register_application(name)(cls)

    yield register
    for name in names:
        APPLICATION_REGISTRY.pop(name, None)


class TestThirdPartyShape:
    def test_an_undeclared_shape_gets_ssmw_checks(self, registered):
        registered("plain-third-party", type("Plain", (RoundStrategy,), {}))
        assert ClusterConfig(deployment="plain-third-party").shape == DeploymentShape()
        with pytest.raises(ConfigurationError, match="exactly one parameter server"):
            ClusterConfig(deployment="plain-third-party", num_servers=3)
        with pytest.raises(ConfigurationError, match="trusted server"):
            ClusterConfig(deployment="plain-third-party", num_byzantine_servers=1)

    def test_declared_replicas_with_a_model_phase_get_msmw_checks_and_a_model_gar(self, registered):
        shape = DeploymentShape(servers="replicas", model_phase=True)
        registered("replicated-third-party", type("Replicated", (RoundStrategy,), {"shape": shape}))
        base = dict(
            deployment="replicated-third-party",
            num_workers=7,
            num_byzantine_workers=1,
            gradient_gar="median",
            model_gar="median",
            model="logistic",
            dataset_size=140,
        )
        with pytest.raises(ConfigurationError, match="at least two server replicas"):
            ClusterConfig(**base, num_servers=1)
        with pytest.raises(ConfigurationError, match="f_ps < n_ps"):
            ClusterConfig(**base, num_servers=3, num_byzantine_servers=3)
        # Asynchronous: 3 - 1 peers awaited, own model included = 2 < 3 for median at f_ps = 1.
        with pytest.raises(ConfigurationError, match="needs at least 3 models"):
            ClusterConfig(**base, num_servers=3, num_byzantine_servers=1, asynchronous=True)
        config = ClusterConfig(**base, num_servers=3, num_byzantine_servers=1)
        with Controller(config).build() as deployed:
            assert rule(deployed.model_gar) == ("median", 3, 1)
            assert len(deployed.servers) == 3

    def test_an_unknown_server_layout_is_rejected(self):
        with pytest.raises(ConfigurationError, match="server layout"):
            DeploymentShape(servers="ring")
