import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinsemi as ss
from spinsemi.errors import (
    FieldEvaluationError,
    NotHermitian,
    StepSizeUnderflow,
)
from spinsemi.numerics import (
    _A,
    _B,
    _C,
    _E3,
    _E5,
    FIRST_STEP,
    cubic_quadrature,
    det2,
)
from helpers import field_and_jacobian
from oracles import pc_trajectory, reference_rk_dop853, reference_rk_dp5


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

    @pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.nan), np.inf])
    def test_non_finite_entry_raises(self, entry):
        # nan fails every comparison, so a defect of nan must not pass
        with pytest.raises(NotHermitian):
            ss.hermitian_eig(np.array([[1.0, entry], [0.0, 1.0]]))
        with pytest.raises(NotHermitian):
            ss.hermitian_eig(np.array([[entry, 0.0], [0.0, 1.0]]))

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


class TestAdaptiveRk:
    def test_analytic_exponential(self):
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        ts, ys, _ = ss.adaptive_rk(lambda t, y: 1j * y, [1.0 + 0j], (0.0, np.pi), cfg,
                                   samples=[np.pi])
        assert abs(ys[-1, 0] - (-1.0)) < 1e-9
        assert ts[-1] == np.pi

    def test_constant_field(self):
        cfg = ss.IntegratorConfig()
        _, ys, _ = ss.adaptive_rk(lambda t, y: 0 * y, [0.3 + 0.4j, -1.0], (0.0, 2.0), cfg,
                                  samples=[2.0])
        assert np.allclose(ys[-1], [0.3 + 0.4j, -1.0])

    def test_lands_exactly_on_samples(self):
        cfg = ss.IntegratorConfig()
        samples = np.array([0.0, 0.1, 0.25, 0.8, 1.0])
        ts, ys, _ = ss.adaptive_rk(lambda t, y: 1j * y, [1.0 + 0j], (0.0, 1.0), cfg,
                                   samples=samples)
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
        ts, ys, _ = ss.adaptive_rk(lambda t, y: rates * y, y0, (0.0, 1.0), cfg, samples=samples)
        exact = y0[None, :] * np.exp(rates[None, :] * samples[:, None])
        assert np.max(np.abs(ys - exact)) < 1e-8

    def test_samples_do_not_change_the_steps(self):
        # the same accepted steps whatever the samples: the reference loop's
        # grid; a sample on a step end gets that step's value and costs
        # nothing, and a step with a sample before its end costs the
        # extension's 3 stages
        calls = []

        def field(t, y):
            calls.append(t)
            return (0.3 + 2j) * y

        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        grid, states, _ = reference_rk_dop853(field, [1.0 + 0.5j], 1.0, cfg)
        grid_calls = list(calls)
        calls.clear()
        ts, ys, record = ss.adaptive_rk(field, [1.0 + 0.5j], (0.0, 1.0), cfg, samples=grid)
        assert calls == grid_calls and record.field_evals == len(grid_calls)
        assert np.array_equal(ts, grid) and np.array_equal(ys, states)
        for samples, want in ((grid[1::3], states[1::3]), (np.linspace(0.0, 1.0, 500), None)):
            calls.clear()
            ts, ys, sampled = ss.adaptive_rk(field, [1.0 + 0.5j], (0.0, 1.0), cfg,
                                             samples=samples)
            assert np.array_equal(ts, samples)
            if want is not None:
                assert calls == grid_calls and sampled == record
                assert np.array_equal(ys, want)
            else:
                # steps with a sample strictly inside
                holding = np.count_nonzero(np.searchsorted(samples, grid[1:])
                                           - np.searchsorted(samples, grid[:-1], side="right"))
                assert 0 < holding <= record.accepted_steps
                assert [t for t in calls if t in set(grid_calls)] == grid_calls
                assert len(calls) == len(grid_calls) + 3 * holding
                assert sampled.field_evals == len(calls)
                assert sampled.accepted_steps == record.accepted_steps
                assert sampled.rejected_steps == record.rejected_steps

    def test_phase_coupling_closed_form(self):
        # numerics-level oracle: the flow field integrated against the
        # closed-form exponential trajectories
        sys = ss.SpinSystem(two_j=6)
        params = ss.PhaseCouplingParams(lam=1.0, sys=sys)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.02)
        y0 = [s0.sx, s0.sy, np.conj(s0.sx), np.conj(s0.sy)]
        _, ys, _ = ss.adaptive_rk(lambda t, y: field_and_jacobian(sys, model, y)[0], y0,
                                  (0.0, 0.5), cfg, samples=[0.5])
        ref = pc_trajectory(params, s0, 0.5, num_samples=2).ys[-1]
        assert np.max(np.abs(ys[-1] - ref)) < 1e-9

    def test_halving_rel_tol_never_increases_error(self):
        sys = ss.SpinSystem(two_j=6)
        params = ss.PhaseCouplingParams(lam=2.0, sys=sys)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        ref = pc_trajectory(params, s0, 2.0, num_samples=2).ys[-1]
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
            ss.adaptive_rk(lambda t, y: y ** 2, [1.0 + 0j], (0.0, 1.5), cfg, samples=[1.5])

    def test_field_error_propagates(self):
        cfg = ss.IntegratorConfig()
        with pytest.raises(FieldEvaluationError):
            ss.adaptive_rk(lambda t, y: y * np.nan, [1.0 + 0j], (0.0, 1.0), cfg, samples=[1.0])

    @pytest.mark.parametrize("bad", [complex(0.0, np.inf), complex(0.0, np.nan)])
    def test_one_non_finite_imaginary_part_at_a_later_stage(self, bad):
        # evaluations 0-3 are clean; the fifth (stage 4 of the first step)
        # carries a single non-finite imaginary part
        calls = []

        def field(t, y):
            calls.append(t)
            dy = (0.3 + 2j) * y
            if len(calls) == 5:
                dy[3] = complex(dy[3].real, bad.imag)
            return dy

        cfg = ss.IntegratorConfig()
        with pytest.raises(FieldEvaluationError, match="non-finite") as raised:
            ss.adaptive_rk(field, np.ones(6, dtype=complex), (0.0, 1.0), cfg, samples=[1.0])
        assert len(calls) == 5 and f"t={calls[-1]}" in str(raised.value)

    def test_wrong_shape_raises(self):
        cfg = ss.IntegratorConfig()
        for wrong in (lambda t, y: y[:-1], lambda t, y: y[:1], lambda t, y: y[None, :]):
            with pytest.raises(FieldEvaluationError, match="shape"):
                ss.adaptive_rk(wrong, [1.0 + 0j, 2.0], (0.0, 1.0), cfg, samples=[1.0])

    def test_list_return_is_accepted(self):
        cfg = ss.IntegratorConfig()
        rate = 0.3 + 2j
        rates = np.array([rate, -rate])
        samples = np.linspace(0.0, 1.0, 11)
        ts, ys, _ = ss.adaptive_rk(lambda t, y: (rates * y).tolist(), [1.0 + 0j, 0.5j],
                                   (0.0, 1.0), cfg, samples=samples)
        ref_ts, ref_ys, _ = ss.adaptive_rk(lambda t, y: rates * y, [1.0 + 0j, 0.5j],
                                           (0.0, 1.0), cfg, samples=samples)
        assert np.array_equal(ts, ref_ts) and np.array_equal(ys, ref_ys)

    def test_huge_finite_values_are_accepted(self):
        # |dy|^2 overflows to inf although every entry is finite
        cfg = ss.IntegratorConfig()
        _, ys, _ = ss.adaptive_rk(lambda t, y: 0 * y + 1e200, [0j, 0j], (0.0, 1.0), cfg,
                                  samples=[1.0])
        assert np.allclose(ys[-1], 1e200, rtol=1e-12)

    @staticmethod
    def _bump_system(seed):
        # a linear system whose rates jump up near t = 0.5, so that the step
        # control rejects steps too
        rng = np.random.default_rng(seed)
        a = _rand_complex(rng, (8, 8))
        y0 = _rand_complex(rng, 8)
        calls = []

        def field(t, y):
            calls.append(t)
            return (1.0 + 30.0 * np.exp(-((t - 0.5) / 0.02) ** 2)) * (a @ y)
        return field, y0, calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accepted_steps_match_reference_loop(self, seed):
        field, y0, calls = self._bump_system(seed)
        cfg = ss.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        ref_ts, ref_ys, rejected = reference_rk_dop853(field, y0, 1.0, cfg)
        grid_calls = list(calls)
        calls.clear()
        # sampled on the reference grid, every sample is a step end
        ts, ys, record = ss.adaptive_rk(field, y0, (0.0, 1.0), cfg, samples=ref_ts)
        assert rejected > 0
        assert calls == grid_calls
        assert np.array_equal(ts, ref_ts) and np.array_equal(ys, ref_ys)
        steps = np.diff(ref_ts)
        assert (record.method, record.accepted_steps, record.rejected_steps,
                record.field_evals) == ("DOP853", steps.size, rejected, len(grid_calls))
        # the record's steps are the h taken, the grid's differences of sums
        assert record.min_step == pytest.approx(steps.min(), rel=1e-12)
        assert record.max_step == pytest.approx(steps.max(), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_the_dormand_prince_5_loop(self, seed):
        # the replaced integrator, at the same tolerances: the two differ by
        # truncation error, and DOP853 needs fewer evaluations
        field, y0, calls = self._bump_system(seed)
        cfg = ss.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        _, ys, record = ss.adaptive_rk(field, y0, (0.0, 1.0), cfg, samples=[1.0])
        calls.clear()
        _, ref_ys, _ = reference_rk_dp5(field, y0, 1.0, cfg)
        assert np.max(np.abs(ys[-1] - ref_ys[-1])) <= 1e-7 * np.max(np.abs(ref_ys[-1]))
        assert record.field_evals < len(calls)

    def test_zero_span(self):
        cfg = ss.IntegratorConfig()
        ts, ys, _ = ss.adaptive_rk(lambda t, y: y, [2.0 + 0j], (0.0, 0.0), cfg, samples=[0.0])
        assert ts.shape == (1,) and ys[0, 0] == 2.0 + 0j

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ss.IntegratorConfig(rel_tol=-1.0)
        for bad in ({"max_step": 0.0}, {"max_step": -1.0}, {"max_step": np.nan},
                    {"rel_tol": np.nan}, {"abs_tol": np.nan}):
            with pytest.raises(ValueError):
                ss.IntegratorConfig(**bad)
        # any positive max_step is accepted: the first trial step follows it
        cfg = ss.IntegratorConfig(max_step=1e-6)
        grid = reference_rk_dop853(lambda t, y: y, [1.0 + 0j], 1e-5, cfg)[0]
        ts, _, record = ss.adaptive_rk(lambda t, y: y, [1.0 + 0j], (0.0, 1e-5), cfg,
                                       samples=grid)
        assert np.max(np.diff(ts)) <= 1e-6 * (1 + 1e-12)
        assert record.accepted_steps == ts.size - 1 and record.max_step <= 1e-6


class TestDop853Order:
    """Order of the DOP853 tableau and of adaptive_rk's steps and continuous
    extension, from the order conditions and the error's fitted slope."""

    def test_rows_sum_to_their_nodes(self):
        # stage 12, at c = 1, is the field at the step's end
        for i in range(1, 16):
            assert abs(_A[i, :i].sum() - _C[i]) < 1e-14, i
        assert np.array_equal(_A[12, :12], _B)

    def test_weights_integrate_powers_to_order_8(self):
        for q in range(1, 9):
            assert abs(_B @ _C[:12] ** (q - 1) - 1.0 / q) < 1e-14, q
        # and no further: the pair is of order 8
        assert abs(_B @ _C[:12] ** 8 - 1.0 / 9) > 1e-6

    def test_error_estimators_vanish_on_constants(self):
        # both estimators are differences of weights that sum to 1
        assert abs(_E5.sum()) < 1e-14 and abs(_E3.sum()) < 1e-14

    @staticmethod
    def _one_step(rate, h, samples):
        # one step of length h (below FIRST_STEP) at loose tolerances, so
        # adaptive_rk takes it as its first and only step
        cfg = ss.IntegratorConfig(rel_tol=1.0, abs_tol=1.0)
        _, ys, record = ss.adaptive_rk(lambda t, y: rate * y, [1.0 + 0j], (0.0, h), cfg,
                                       samples=samples)
        assert record.accepted_steps == 1 and record.rejected_steps == 0
        return ys

    @staticmethod
    def _slope(hs, errs):
        return np.polyfit(np.log(hs), np.log(errs), 1)[0]

    def test_one_step_error_is_ninth_order(self):
        rate = (-0.6 + 2.0j) * 1e4
        hs = FIRST_STEP * 0.5 ** np.arange(4)
        errs = [abs(self._one_step(rate, h, [h])[-1, 0] - np.exp(rate * h)) for h in hs]
        assert self._slope(hs, errs) >= 8.5, errs

    def test_continuous_extension_is_seventh_order(self):
        # the local error at theta = 0.5 shrinks like h^8
        rate = (-0.6 + 2.0j) * 1e4
        hs = FIRST_STEP * 0.5 ** np.arange(4)
        errs = [abs(self._one_step(rate, h, [0.0, h / 2, h])[1, 0]
                    - np.exp(rate * h / 2)) for h in hs]
        assert self._slope(hs, errs) >= 7.5, errs


def _quadrature_by_solves(ts, fs):
    """Oracle of cubic_quadrature: each interval's local polynomial from a
    Vandermonde solve on its (up to) four nearest samples, integrated term by
    term, in a loop over the intervals."""
    n = ts.size
    total = 0.0 + 0.0j if np.iscomplexobj(fs) else 0.0
    for i in range(n - 1):
        lo = min(max(i - 1, 0), max(n - 4, 0))
        hi = min(lo + 4, n)
        xs = ts[lo:hi] - ts[i]
        coeffs = np.linalg.solve(np.vander(xs, xs.size, increasing=True), fs[lo:hi])
        b = ts[i + 1] - ts[i]
        total = total + coeffs @ np.array([b ** (p + 1) / (p + 1) for p in range(xs.size)])
    return total


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

    @pytest.mark.parametrize("n", [2, 3, 4, 120])
    def test_matches_per_interval_solve(self, n):
        # non-uniform grids, real and complex samples
        rng = np.random.default_rng(n)
        for _ in range(3):
            ts = np.cumsum(rng.uniform(0.05, 1.0, size=n)) / n
            for fs in (np.cos(7.0 * ts) + ts ** 3,
                       np.exp(3j * ts) * (1.0 + ts) + _rand_complex(rng, n)):
                got = cubic_quadrature(ts, fs)
                want = _quadrature_by_solves(ts, fs)
                assert abs(got - want) <= 1e-12 * max(abs(want), np.sum(np.abs(fs)) / n)
                assert np.iscomplexobj(got) == np.iscomplexobj(fs)

    def test_det2(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert det2(m) == pytest.approx(-2.0)
