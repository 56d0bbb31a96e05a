"""Shared fixtures: the three benchmark pipelines, computed once per session,
and a generator seeded afresh for each test."""

import numpy as np
import pytest

from exactopinf import benchmarks, fom as fom_mod, pod as pod_mod


@pytest.fixture(scope="session")
def burgers_data():
    spec = benchmarks.BURGERS
    model, _, x0 = benchmarks.build_burgers(spec)
    snaps = fom_mod.simulate(model, x0, None, spec.dt_pod, spec.K_pod)
    basis = pod_mod.pod_basis(snaps, max(spec.n_sweep))
    return {"spec": spec, "fom": model, "x0": x0, "snaps": snaps, "pod": basis}


@pytest.fixture(scope="session")
def chafee_data():
    spec = benchmarks.CHAFEE_INFANTE
    model, signal, x0 = benchmarks.build_chafee_infante(spec)
    snaps = fom_mod.simulate(model, x0, signal, spec.dt_pod, spec.K_pod)
    basis = pod_mod.pod_basis(snaps, max(spec.n_sweep))
    return {
        "spec": spec,
        "fom": model,
        "signal": signal,
        "x0": x0,
        "snaps": snaps,
        "pod": basis,
    }


@pytest.fixture(scope="session")
def ice_data():
    spec = benchmarks.SHALLOW_ICE
    model, _, x0 = benchmarks.build_shallow_ice(spec)
    snaps = fom_mod.simulate(
        model, x0, None, spec.dt_pod, spec.K_pod, scheme="implicit_euler"
    )
    basis = pod_mod.pod_basis(snaps, max(spec.n_sweep))
    return {"spec": spec, "fom": model, "x0": x0, "snaps": snaps, "pod": basis}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
