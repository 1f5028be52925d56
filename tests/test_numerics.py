import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinsemi as ss
from spinsemi.errors import (
    FieldEvaluationError,
    NotHermitian,
    SingularMatrix,
    StepSizeUnderflow,
)
from spinsemi.numerics import cubic_quadrature, det2


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHermitianEig:
    def test_diagonal(self):
        w, v = ss.hermitian_eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(v), np.eye(3))

    def test_pauli_x_spectrum(self):
        w, _ = ss.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = _rand_complex(rng, (9, 9))
        h = a + a.conj().T
        w, v = ss.hermitian_eig(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-10
        assert np.max(np.abs(v @ v.conj().T - np.eye(9))) < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            ss.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(4)
        a = _rand_complex(rng, (5, 7, 7))
        stack = a + a.conj().swapaxes(1, 2)
        w, v = ss.hermitian_eig(stack)
        assert w.shape == (5, 7) and v.shape == (5, 7, 7)
        for k in range(5):
            wk, vk = ss.hermitian_eig(stack[k])
            assert np.max(np.abs(w[k] - wk)) < 1e-12
            # eigenvectors agree up to a phase per column
            overlap = np.abs(np.sum(v[k].conj() * vk, axis=0))
            assert np.max(np.abs(overlap - 1.0)) < 1e-12

    def test_stack_with_one_defective_matrix_raises(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)])
        with pytest.raises(NotHermitian):
            ss.hermitian_eig(stack)


class TestSmallInverse:
    def test_identity(self):
        assert np.allclose(ss.small_inverse(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        out = ss.small_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_residual_4x4(self):
        rng = np.random.default_rng(5)
        m = _rand_complex(rng, (4, 4)) + 3.0 * np.eye(4)
        assert np.max(np.abs(m @ ss.small_inverse(m) - np.eye(4))) < 1e-10

    def test_singular_raises_with_determinant(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix) as excinfo:
            ss.small_inverse(m)
        assert excinfo.value.determinant is not None

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            ss.small_inverse(np.eye(3))


class TestAdaptiveRk:
    def test_analytic_exponential(self):
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        ts, ys = ss.adaptive_rk(lambda t, y: 1j * y, [1.0 + 0j], (0.0, np.pi), cfg)
        assert abs(ys[-1, 0] - (-1.0)) < 1e-9
        assert ts[-1] == np.pi

    def test_constant_field(self):
        cfg = ss.IntegratorConfig()
        _, ys = ss.adaptive_rk(lambda t, y: 0 * y, [0.3 + 0.4j, -1.0], (0.0, 2.0), cfg)
        assert np.allclose(ys[-1], [0.3 + 0.4j, -1.0])

    def test_lands_exactly_on_samples(self):
        cfg = ss.IntegratorConfig()
        samples = np.array([0.0, 0.1, 0.25, 0.8, 1.0])
        ts, ys = ss.adaptive_rk(lambda t, y: 1j * y, [1.0 + 0j], (0.0, 1.0), cfg, samples=samples)
        assert np.array_equal(ts, samples)
        assert np.max(np.abs(ys[:, 0] - np.exp(1j * samples))) < 1e-10

    # seed 8293's last sample lies well short of t1: it must be interpolated,
    # not snapped onto the final value
    @given(seed=st.integers(0, 10_000), n_samples=st.integers(min_value=1, max_value=12))
    @example(seed=8293, n_samples=2)
    @settings(max_examples=25, deadline=None)
    def test_dense_output_on_linear_systems(self, seed, n_samples):
        # diagonal linear field: every sample must match the exact flow
        rng = np.random.default_rng(seed)
        rates = 0.3 * rng.standard_normal(3) + 2j * rng.standard_normal(3)
        y0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        samples = np.sort(rng.uniform(0.0, 1.0, size=n_samples))
        assume(np.all(np.diff(samples) > 1e-6))
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        ts, ys = ss.adaptive_rk(lambda t, y: rates * y, y0, (0.0, 1.0), cfg, samples=samples)
        exact = y0[None, :] * np.exp(rates[None, :] * samples[:, None])
        assert np.max(np.abs(ys - exact)) < 1e-8

    def test_samples_do_not_change_the_steps(self):
        # the same accepted steps, so the same field evaluations, with or
        # without samples; a sample on a step end gets that step's value
        calls = []

        def field(t, y):
            calls.append(t)
            return (0.3 + 2j) * y

        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        grid, states = ss.adaptive_rk(field, [1.0 + 0.5j], (0.0, 1.0), cfg)
        natural = list(calls)
        for samples, want in ((grid, states), (grid[1::3], states[1::3]),
                              (np.linspace(0.0, 1.0, 500), None)):
            calls.clear()
            ts, ys = ss.adaptive_rk(field, [1.0 + 0.5j], (0.0, 1.0), cfg, samples=samples)
            assert calls == natural
            assert np.array_equal(ts, samples)
            if want is not None:
                assert np.array_equal(ys, want)

    def test_phase_coupling_closed_form(self):
        # numerics-level oracle: the flow field integrated against the
        # closed-form exponential trajectories
        sys = ss.SpinSystem(two_j=6)
        params = ss.PhaseCouplingParams(lam=1.0, sys=sys)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        from spinsemi.flow import field_and_jacobian

        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.02)
        y0 = [s0.sx, s0.sy, np.conj(s0.sx), np.conj(s0.sy)]
        _, ys = ss.adaptive_rk(lambda t, y: field_and_jacobian(sys, model, y)[0], y0,
                               (0.0, 0.5), cfg)
        ref = ss.pc_trajectory(params, s0, 0.5, num_samples=2).ys[-1]
        assert np.max(np.abs(ys[-1] - ref)) < 1e-9

    def test_halving_rel_tol_never_increases_error(self):
        sys = ss.SpinSystem(two_j=6)
        params = ss.PhaseCouplingParams(lam=2.0, sys=sys)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        ref = ss.pc_trajectory(params, s0, 2.0, num_samples=2).ys[-1]
        errs = []
        tol = 1e-6
        for _ in range(8):
            cfg = ss.IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2)
            traj = ss.integrate_trajectory(sys, model, s0, 2.0, cfg)
            errs.append(np.max(np.abs(traj.ys[-1] - ref)))
            tol /= 2
        assert all(b <= a for a, b in zip(errs, errs[1:])), errs

    def test_step_size_underflow(self):
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        with pytest.raises(StepSizeUnderflow):
            # finite-time blowup at t = 1
            ss.adaptive_rk(lambda t, y: y ** 2, [1.0 + 0j], (0.0, 1.5), cfg)

    def test_field_error_propagates(self):
        cfg = ss.IntegratorConfig()
        with pytest.raises(FieldEvaluationError):
            ss.adaptive_rk(lambda t, y: y * np.nan, [1.0 + 0j], (0.0, 1.0), cfg)

    def test_zero_span(self):
        cfg = ss.IntegratorConfig()
        ts, ys = ss.adaptive_rk(lambda t, y: y, [2.0 + 0j], (0.0, 0.0), cfg)
        assert ts.shape == (1,) and ys[0, 0] == 2.0 + 0j

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ss.IntegratorConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            ss.IntegratorConfig(initial_step=1.0, max_step=0.1)


class TestCubicQuadrature:
    def test_exact_for_cubics(self):
        rng = np.random.default_rng(9)
        ts = np.sort(rng.uniform(0.0, 1.0, size=17))
        ts[0], ts[-1] = 0.0, 1.0
        coeffs = rng.standard_normal(4)
        fs = np.polyval(coeffs, ts)
        exact = np.polyval(np.polyint(coeffs), 1.0) - np.polyval(np.polyint(coeffs), 0.0)
        assert abs(cubic_quadrature(ts, fs) - exact) < 1e-12

    def test_sine_converges_at_fourth_order(self):
        errs = []
        for n in (30, 60, 120):
            ts = np.linspace(0.0, np.pi, n)
            errs.append(abs(cubic_quadrature(ts, np.sin(ts)) - 2.0))
        assert errs[2] < 2e-8
        # composite local-cubic rule: global error O(h^4)
        assert errs[0] / errs[1] > 12.0 and errs[1] / errs[2] > 12.0

    def test_det2(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert det2(m) == pytest.approx(-2.0)
