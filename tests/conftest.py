"""Shared fixtures: the three benchmark pipelines, computed once per session,
and a generator seeded afresh for each test; and the Tier-1 ``hypothesis``
profile, under which every property draws the same examples on every run,
writes no example database and has no deadline (a timing health check, not a
correctness one, which a loaded machine could fail)."""

import numpy as np
import pytest
from hypothesis import settings

from exactopinf import benchmarks, fom as fom_mod, pod as pod_mod

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


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
