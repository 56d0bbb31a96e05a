"""The three bundled PDE systems: stencils, structure, and config overrides."""

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
from exactopinf.fom import eval_rhs, homogeneous_part, polarize, simulate


class TestSpecs:
    def test_registry(self):
        assert set(SPECS) == {"chafee_infante", "shallow_ice", "burgers"}
        assert CHAFEE_INFANTE.K_pod == 10000
        assert SHALLOW_ICE.K_pod == 2000
        assert BURGERS.K_pod == 10000

    def test_sweep_ranges(self):
        assert CHAFEE_INFANTE.n_sweep == tuple(range(1, 15))
        assert SHALLOW_ICE.n_sweep == tuple(range(1, 8))
        assert BURGERS.n_sweep == tuple(range(1, 11))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_build_returns_model_signal_state(self, name):
        spec = SPECS[name]
        fom, signal, x0 = build(spec)
        assert fom.dimension == spec.N == x0.shape[0]
        assert fom.degree_set == spec.degree_set
        assert (signal is None) == (spec.n_u == 0)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_thresholds_name_reported_metrics(self, name):
        # the metrics a report of this degree set carries (DiagnosticsReport.metrics)
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
        assert r[0] == pytest.approx(7.0 / dxi**2)
        assert np.all(r[1:] == 0.0)

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
        assert signal.n_u == 1
        assert signal.evaluate(0.0)[0] == pytest.approx(10.0)
        assert signal.evaluate(0.5)[0] == pytest.approx(20.0)

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

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        spec = apply_overrides(SHALLOW_ICE, {"N": 24})
        fom, _, _ = build_shallow_ice(spec)
        x = 1.0 + 0.2 * rng.standard_normal(24)
        J = fom.jacobian(x, None).toarray()
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
