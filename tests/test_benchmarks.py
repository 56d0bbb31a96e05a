"""The three bundled PDE systems: stencils, structure, and config overrides."""

import itertools

import numpy as np
import pytest

from exactopinf.benchmarks import (
    BURGERS,
    CHAFEE_INFANTE,
    SHALLOW_ICE,
    SPECS,
    Threshold,
    apply_overrides,
    build,
    build_burgers,
    build_chafee_infante,
    build_shallow_ice,
    parse_config,
)
from exactopinf.fom import eval_rhs, from_dense_operators, simulate
from exactopinf.tensor_poly import monomial_count
from polarization import homogeneous_part, polarize


class TestSpecs:
    def test_registry(self):
        assert set(SPECS) == {"chafee_infante", "shallow_ice", "burgers"}
        assert CHAFEE_INFANTE.K_pod == 10000
        assert SHALLOW_ICE.K_pod == 2000
        assert BURGERS.K_pod == 10000

    def test_sweep_ranges(self):
        assert CHAFEE_INFANTE.n_max == 14
        assert SHALLOW_ICE.n_max == 7
        assert BURGERS.n_max == 10

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_build_returns_model_signal_state(self, name):
        spec = SPECS[name]
        fom, signal, x0 = build(spec)
        assert fom.dimension == spec.N == x0.shape[0]
        assert fom.degree_set == spec.degree_set
        assert (signal is None) == (spec.n_u == 0)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_thresholds_name_reported_metrics(self, name):
        # the metrics build_report's mapping carries for this degree set
        spec = SPECS[name]
        available = {"relative_operator_error"}
        if 1 in spec.degree_set:
            available |= {"symmetry_violation", "diffusion_spectrum_min"}
        if 2 in spec.degree_set:
            available |= {"energy_violation", "quadratic_block_fraction"}
        assert spec.thresholds
        assert {t.metric for t in spec.thresholds} <= available

    def test_threshold_directions(self):
        upper = Threshold("m", 1e-9)
        assert upper.holds(5e-10)
        assert not upper.holds(1e-9)
        lower = Threshold("m", -1e-10, upper=False)
        assert lower.holds(-1e-10)
        assert not lower.holds(-2e-10)
        assert not upper.holds(float("nan")) and not lower.holds(float("nan"))


class TestChafeeInfante:
    def test_input_enters_first_node_only(self):
        fom, signal, x0 = build_chafee_infante()
        dxi = 1.0 / CHAFEE_INFANTE.N
        u = np.array([7.0])
        r = eval_rhs(fom, np.zeros(fom.dimension), u)
        assert r[0] == pytest.approx(14.0 / dxi**2)
        assert np.all(r[1:] == 0.0)

    def test_laplacian_converges_at_second_order(self):
        # the steady problem u'' = f with u(0) = 1, u'(1) = 0 and the exact
        # solution u = 1 + sin(pi x / 2), solved with the model's linear and
        # input parts (less the growth term) on ever finer grids
        errors = []
        for N in (32, 64, 128, 256, 512):
            fom, _, _ = build_chafee_infante(apply_overrides(CHAFEE_INFANTE, {"N": N}))
            laplacian = fom.multilinear[1](np.eye(N)) - np.eye(N)
            x = (np.arange(N) + 0.5) / N
            f = -((np.pi / 2) ** 2) * np.sin(np.pi * x / 2)
            u = np.linalg.solve(laplacian, f - fom.input_map(np.array([1.0])))
            errors.append(np.max(np.abs(u - 1.0 - np.sin(np.pi * x / 2))))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders >= 1.9), orders

    def test_quadratic_part_is_zero(self, rng):
        fom, _, _ = build_chafee_infante()
        x = rng.standard_normal(fom.dimension)
        np.testing.assert_allclose(
            homogeneous_part(fom, 2, x), 0.0, atol=1e-9
        )

    def test_cubic_part_is_pointwise_decay(self, rng):
        fom, _, _ = build_chafee_infante()
        x = rng.standard_normal(fom.dimension)
        np.testing.assert_allclose(
            homogeneous_part(fom, 3, x), -(x**3), rtol=1e-8, atol=1e-10
        )

    def test_multilinear_matches_black_box(self, rng):
        fom, _, _ = build_chafee_infante()
        x = rng.standard_normal(fom.dimension)
        u = rng.standard_normal(1)
        assembled = (
            fom.multilinear[1](x)
            + fom.multilinear[2](x, x)
            + fom.multilinear[3](x, x, x)
            + fom.input_map(u)
        )
        np.testing.assert_allclose(assembled, eval_rhs(fom, x, u), rtol=1e-12)

    def test_input_signal(self):
        _, signal, _ = build_chafee_infante()
        assert signal(0.0)[0] == pytest.approx(10.0)
        assert signal(0.5)[0] == pytest.approx(20.0)

    def test_trajectory_amplitude_pin(self, chafee_data):
        # regression pin on this discretization's own simulation
        assert np.max(np.abs(chafee_data["snaps"].states)) < 13.0

    def test_zero_initial_condition(self):
        _, _, x0 = build_chafee_infante()
        assert np.all(x0 == 0.0)


class TestShallowIce:
    def test_constant_state_is_steady(self):
        fom, _, _ = build_shallow_ice()
        r = eval_rhs(fom, np.full(fom.dimension, 2.0), None)
        np.testing.assert_allclose(r, 0.0, atol=1e-20)

    def test_initial_profile_formula(self):
        spec = SHALLOW_ICE
        fom, _, x0 = build_shallow_ice()
        dxi = 1000.0 / spec.N
        j = 255
        xi = (j + 0.5) * dxi
        s = xi / 2000.0
        assert x0[j] == pytest.approx(1e-2 + 630.0 * (s + 0.25) ** 4 * (s - 0.75) ** 4)
        assert x0.min() >= 1e-2

    def test_degree_blocks_sum_to_rhs(self, rng):
        spec = apply_overrides(SHALLOW_ICE, {"N": 32})
        fom, _, _ = build_shallow_ice(spec)
        x = 0.5 + 0.1 * rng.standard_normal(32)
        total = fom.multilinear[3](x, x, x) + fom.multilinear[8](*([x] * 8))
        np.testing.assert_allclose(total, eval_rhs(fom, x, None), rtol=1e-10)

    def test_polarized_cubic_matches_structured_map(self, rng):
        # unit coefficients isolate the cubic term from the degree-8 one,
        # whose huge published coefficient would otherwise swamp the tiny
        # published cubic coefficient in the extraction
        spec = apply_overrides(SHALLOW_ICE, {"N": 16, "c1": 1.0, "c2": 0.0})
        fom, _, _ = build_shallow_ice(spec)
        vs = [rng.standard_normal(16) for _ in range(3)]
        np.testing.assert_allclose(
            polarize(fom, 3, *vs), fom.multilinear[3](*vs), rtol=1e-6, atol=1e-10
        )

    def test_degree8_map_matches_explicit_role_sum(self):
        # the reference kernel: the sum over the 56 ways to give three of
        # the eight arguments the derivative role, term by term
        spec = SHALLOW_ICE
        fom, _, _ = build_shallow_ice(spec)
        N, dxi = spec.N, 1000.0 / spec.N

        def dx(v):
            out = np.empty_like(v)
            out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dxi)
            out[0] = (v[1] - v[0]) / (2.0 * dxi)
            out[-1] = (v[-1] - v[-2]) / (2.0 * dxi)
            return out

        rng = np.random.default_rng(8)
        vs = [rng.standard_normal(N) for _ in range(8)]
        dvs = [dx(v) for v in vs]
        role_sets = list(itertools.combinations(range(8), 3))
        acc = np.zeros(N)
        for roles in role_sets:
            term = np.ones(N)
            for k in range(8):
                term = term * (dvs[k] if k in roles else vs[k])
            acc += term
        ref = (spec.c2 / len(role_sets)) * acc
        got = fom.multilinear[8](*vs)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        spec = apply_overrides(SHALLOW_ICE, {"N": 24})
        fom, _, _ = build_shallow_ice(spec)
        x = 1.0 + 0.2 * rng.standard_normal(24)
        (lower, upper), ab = fom.jacobian(x, None)
        assert (lower, upper) == (1, 1) and ab.shape == (3, 24)
        J = np.diag(ab[0, 1:], 1) + np.diag(ab[1]) + np.diag(ab[2, :-1], -1)
        eps = 1e-6
        J_fd = np.empty_like(J)
        for j in range(24):
            xp = x.copy()
            xp[j] += eps
            xm = x.copy()
            xm[j] -= eps
            J_fd[:, j] = (eval_rhs(fom, xp, None) - eval_rhs(fom, xm, None)) / (2 * eps)
        scale = np.max(np.abs(J_fd)) + 1e-30
        assert np.max(np.abs(J - J_fd)) / scale < 1e-5


class TestBurgers:
    def test_convection_annihilates_state(self, rng):
        fom, _, _ = build_burgers()
        for _ in range(50):
            x = rng.standard_normal(fom.dimension)
            quad = fom.multilinear[2](x, x)
            assert abs(x @ quad) < 1e-12 * np.linalg.norm(x) ** 3

    def test_diffusion_matrix_symmetric_negative(self):
        fom, _, _ = build_burgers()
        N = fom.dimension
        A1 = np.stack([fom.multilinear[1](col) for col in np.eye(N)], axis=1)
        np.testing.assert_array_equal(A1, A1.T)
        eigs = np.linalg.eigvalsh(-A1)
        assert eigs.min() >= -1e-10

    def test_initial_condition_endpoints(self):
        fom, _, x0 = build_burgers()
        # grid starts at xi = -1 where -sin(pi * xi / 2) = 1
        assert x0[0] == pytest.approx(1.0)
        assert x0[BURGERS.N // 2] == pytest.approx(-np.sin(0.0), abs=1e-14)

    def test_rhs_matches_blocks(self, rng):
        fom, _, _ = build_burgers()
        x = rng.standard_normal(fom.dimension)
        np.testing.assert_allclose(
            fom.multilinear[1](x) + fom.multilinear[2](x, x),
            eval_rhs(fom, x, None),
            rtol=1e-11,
        )

    def test_short_simulation_decays(self):
        fom, _, x0 = build_burgers()
        snaps = simulate(fom, x0, None, BURGERS.dt_pod, 500)
        assert np.linalg.norm(snaps.states[:, -1]) < np.linalg.norm(x0)


class TestConfig:
    def test_parse_and_apply(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# grid\nN = 64\ndt = 1e-3  # step\nc1 = 2.5\n\n")
        overrides = parse_config(cfg)
        assert overrides == {"N": 64, "dt": 1e-3, "c1": 2.5}
        spec = apply_overrides(SHALLOW_ICE, overrides)
        assert spec.N == 64
        assert spec.dt_pod == 1e-3
        assert spec.c1 == 2.5
        assert spec.T == SHALLOW_ICE.T  # untouched field

    @pytest.mark.parametrize("spec", [CHAFEE_INFANTE, BURGERS], ids=lambda spec: spec.name)
    @pytest.mark.parametrize("key", ["c1", "c2"])
    def test_unused_coefficient_rejected(self, spec, key):
        with pytest.raises(ValueError, match=f"{spec.name} has no parameter '{key}'"):
            apply_overrides(spec, {"N": 64, key: 1.0})

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("N = 64\nbogus = 1\n")
        with pytest.raises(ValueError, match=r":2:"):
            parse_config(cfg)

    def test_malformed_line_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("N = 64\nno equals sign here\n")
        with pytest.raises(ValueError, match=r":2:"):
            parse_config(cfg)

    def test_bad_number_raises(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("dt = fast\n")
        with pytest.raises(ValueError):
            parse_config(cfg)


@pytest.mark.parametrize("name", [*sorted(SPECS), "dense"])
def test_multilinear_maps_act_column_wise(name):
    # intrusive reduction calls each map on (N, m) stacks of basis columns;
    # every output column must be the map of the argument columns
    rng = np.random.default_rng(11)
    if name == "dense":
        N = 6
        fom = from_dense_operators(
            {i: rng.standard_normal((N, monomial_count(N, i))) for i in (1, 2, 3)}
        )
    else:
        fom, _, _ = build(SPECS[name])
        N = fom.dimension
    m = 5
    for i, h in fom.multilinear.items():
        stacks = [rng.standard_normal((N, m)) for _ in range(i)]
        ref = np.stack([h(*(s[:, j] for s in stacks)) for j in range(m)], axis=1)
        got = h(*stacks)
        assert got.shape == (N, m), i
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref), i
