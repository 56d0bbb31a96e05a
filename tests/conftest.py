"""Shared fixtures: the three benchmark pipelines, computed once per session,
and a generator seeded afresh for each test."""

import numpy as np
import pytest

from exactopinf import benchmarks, fom as fom_mod, pod as pod_mod


def _pipeline(spec):
    """The spec's model, its trajectory and the POD basis of its largest sweep width."""
    model, signal, x0 = benchmarks.build(spec)
    snaps = fom_mod.simulate(model, x0, signal, spec.dt_pod, spec.K_pod, scheme=spec.scheme)
    basis = pod_mod.pod_basis(snaps, spec.n_max)
    return {"spec": spec, "fom": model, "snaps": snaps, "pod": basis}


@pytest.fixture(scope="session")
def burgers_data():
    return _pipeline(benchmarks.BURGERS)


@pytest.fixture(scope="session")
def chafee_data():
    return _pipeline(benchmarks.CHAFEE_INFANTE)


@pytest.fixture(scope="session")
def ice_data():
    return _pipeline(benchmarks.SHALLOW_ICE)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
