import cmath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinsemi as ss
from helpers import field_and_jacobian
from oracles import (
    action_hessians_from_stability,
    block_identity_defect,
    canonical_purity,
    gaussian_a1a2,
    pc_slin_short_time,
    permuted_dets,
    stability_from_action_hessians,
)
from spinsemi.errors import ValidityBreakdown
from spinsemi.flow import PhaseSpaceState, Trajectory
from spinsemi.numerics import cubic_quadrature, det2
from spinsemi.semiclassical import (
    endpoint_factor,
    purity_sc_evaluate,
)

CFG = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


def _pc(two_j=6, lam=1.0):
    sys = ss.SpinSystem(two_j=two_j)
    params = ss.PhaseCouplingParams(lam=lam, sys=sys)
    return sys, params, ss.phase_coupling_model(params)


def _pipeline(sys, model, s0, t_final, cfg=CFG):
    traj = ss.integrate_trajectory(sys, model, s0, t_final, cfg)
    m_series = ss.integrate_stability(sys, model, traj, cfg)
    return traj, m_series


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
complex_nums = st.builds(complex, finite, finite)


def matrix4():
    return st.lists(
        st.lists(complex_nums, min_size=4, max_size=4), min_size=4, max_size=4
    ).map(np.array)


def cofactor_det(m):
    """Determinant by Laplace expansion along the first row (no divisions).

    LU-based np.linalg.det can pivot on a subnormal entry and return nan
    where the determinant is finite; the expansion cannot.
    """
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** k * m[0][k] * cofactor_det([row[:k] + row[k + 1:] for row in m[1:]])
        for k in range(len(m))
    )


def _loop_action_integrands(sys, model, traj):
    """The action and split-trace integrals from one field_and_jacobian
    call per sample (the loop the series evaluation replaced, kept as its
    oracle)."""
    j = sys.two_j / 2.0
    n = len(traj)
    f_s = np.empty(n, dtype=complex)
    f_g = np.empty(n, dtype=complex)
    for i in range(n):
        y = traj.ys[i]
        dy, jac = field_and_jacobian(sys, model, y)
        u, v = y[:2], y[2:4]
        du, dv = dy[:2], dy[2:4]
        f_s[i] = j * np.sum((u * dv - v * du) / (1.0 + u * v)) - 1j * traj.energy[i] / sys.hbar
        f_g[i] = jac[0, 0] + jac[1, 1] - jac[2, 2] - jac[3, 3]
    return cubic_quadrature(traj.ts, f_s), cubic_quadrature(traj.ts, f_g)


class TestActionIntegrals:
    @pytest.mark.parametrize("model_of", [
        lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.3, sys=sys)),
        lambda sys: ss.exchange_coupling_model(sys, 0.9),
        lambda sys: ss.build_operator_model(sys, [
            ss.OperatorTerm(0.2 + 0.5j, ("J+", 1), ("J3", 1)),
            ss.OperatorTerm(0.2 - 0.5j, ("J-", 1), ("J3", 1)),
        ]),
    ])
    def test_series_matches_per_sample_loop(self, model_of):
        sys = ss.SpinSystem(two_j=5, hbar=0.7)
        model = model_of(sys)
        for s0 in (ss.CoherentLabel(0.5 - 0.4j, 0.9), ss.CoherentLabel(-0.3 + 0.6j, 0.2j)):
            traj = ss.integrate_trajectory(sys, model, s0, 0.5, CFG)
            i_s, i_g = _loop_action_integrands(sys, model, traj)
            for xi in (+1, -1):
                bundle = ss.action_integrals(sys, model, traj, xi)
                s_action = -1j * sys.hbar * (xi * i_s + bundle.lambda_tilde)
                g_corr = -1j * sys.hbar * (-(xi / 4.0) * i_g)
                assert abs(bundle.s_action - s_action) <= 1e-12 * abs(s_action)
                assert abs(bundle.g_corr - g_corr) <= 1e-12 * abs(g_corr)

    def test_constant_hamiltonian(self):
        # static trajectory: (i/hbar) S = -(i/hbar) E T + Lambda-tilde
        sys = ss.SpinSystem(two_j=3)
        energy = 2.5
        model = ss.build_operator_model(sys, [ss.OperatorTerm(energy, ("I", 0), ("I", 0))])
        s0 = ss.CoherentLabel(0.4 + 0.1j, -0.7)
        t_final = 0.8
        traj = ss.integrate_trajectory(sys, model, s0, t_final, CFG)
        bundle = ss.action_integrals(sys, model, traj, +1)
        j = sys.j
        lam_tilde = 2 * j * (
            np.log(1 + abs(s0.sx) ** 2) + np.log(1 + abs(s0.sy) ** 2)
        )
        expected = -1j * energy * t_final / sys.hbar + lam_tilde
        got = 1j * bundle.s_action / sys.hbar
        assert abs(got - expected) < 1e-9
        assert abs(bundle.g_corr) < 1e-9

    def test_time_derivative_on_static_trajectory(self):
        # with a motionless endpoint, dS/dT = -xi * Htilde exactly
        sys = ss.SpinSystem(two_j=3)
        model = ss.build_operator_model(sys, [ss.OperatorTerm(1.7, ("I", 0), ("I", 0))])
        s0 = ss.CoherentLabel(0.5, 0.3j)
        delta = 1e-4
        for xi in (+1, -1):
            vals = []
            for t in (0.5 - delta, 0.5 + delta):
                traj = ss.integrate_trajectory(sys, model, s0, t, CFG)
                vals.append(ss.action_integrals(sys, model, traj, xi).s_action)
            deriv = (vals[1] - vals[0]) / (2 * delta)
            assert abs(deriv - (-xi * 1.7)) < 1e-6

    def test_time_derivative_with_moving_endpoint(self):
        # along the critical-trajectory family the endpoint moves, adding
        # the boundary-gradient term to -Htilde
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.7 + 0.2j, -0.3 + 0.4j)
        t0, delta = 0.3, 1e-5
        vals = []
        for t in (t0 - delta, t0 + delta):
            traj = ss.integrate_trajectory(sys, model, s0, t, CFG)
            vals.append(ss.action_integrals(sys, model, traj, +1).s_action)
        deriv = (vals[1] - vals[0]) / (2 * delta)
        traj = ss.integrate_trajectory(sys, model, s0, t0, CFG)
        end = traj.final
        dy, _ = field_and_jacobian(sys, model, traj.ys[-1])
        correction = -2j * sys.hbar_j * np.sum(end.u * dy[2:4] / (1 + end.u * end.v))
        expected = -traj.energy[-1] + correction
        assert abs(deriv - expected) < 1e-5 * max(1.0, abs(expected))

    def test_phase_coupling_closed_form_action(self):
        # u_k vdot_k - v_k udot_k = -2 lam_k u_k v_k, all constants: the
        # integral is T * (closed-form integrand)
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.6 + 0.3j, -0.2 + 0.5j)
        t_final = 0.4
        traj = ss.integrate_trajectory(sys, model, s0, t_final, CFG)
        bundle = ss.action_integrals(sys, model, traj, +1)
        j = sys.j
        u0 = np.array([s0.sx, s0.sy])
        v0 = np.conj(u0)
        w = u0 * v0
        lam_x = 1j * params.lam * j * (1 - w[1]) / (1 + w[1])
        lam_y = 1j * params.lam * j * (1 - w[0]) / (1 + w[0])
        rates = np.array([lam_x, lam_y])
        htilde = model.htilde(u0, v0)
        integrand = j * np.sum(-2 * rates * w / (1 + w)) - 1j * htilde / sys.hbar
        lam_tilde = 2 * j * np.sum(np.log(1 + np.abs(u0) ** 2))
        expected = integrand * t_final + lam_tilde
        got = 1j * bundle.s_action / sys.hbar
        assert abs(got - expected) < 1e-8
        # G: integrand 2(lam_x + lam_y), so (i/hbar) G = -(T/2)(lam_x+lam_y)
        got_g = 1j * bundle.g_corr / sys.hbar
        assert abs(got_g - (-(t_final / 2) * (lam_x + lam_y))) < 1e-8

    def test_exponent_is_imaginary_on_real_trajectories(self):
        sys = ss.SpinSystem(two_j=5)
        model = ss.exchange_coupling_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.5 - 0.4j, 0.9)
        traj = ss.integrate_trajectory(sys, model, s0, 0.5, CFG)
        bundle = ss.action_integrals(sys, model, traj, +1)
        assert abs(bundle.exponent.real) <= 1e-6

    def test_log_branch_raises_on_cut(self):
        from spinsemi.errors import LogBranch

        sys, params, model = _pc()
        ys = np.array([
            [2.0j, 0.1, 1.5j, 0.1],   # 1 + u_x v_x = -2 at the start
            [0.5, 0.1, 0.5, 0.1],     # +1.25 at the end: product sits on the cut
        ])
        traj = Trajectory(
            ts=np.array([0.0, 0.1]),
            ys=ys,
            energy=np.zeros(2, dtype=complex),
        )
        with pytest.raises(LogBranch):
            ss.action_integrals(sys, model, traj, +1)


class TestPrefactor:
    def test_zero_time(self):
        sys, _, model = _pc()
        traj = ss.integrate_trajectory(sys, model, ss.CoherentLabel(0.2, 0.4), 0.0, CFG)
        m_series = ss.integrate_stability(sys, model, traj, CFG)
        assert ss.prefactor(traj, m_series, +1) == pytest.approx(1.0)

    def test_equator_precession_modulus(self):
        sys = ss.SpinSystem(two_j=4)
        model = ss.free_precession_model(sys, 1.0)
        s0 = ss.CoherentLabel(1.0, 1.0)  # equator
        traj, m_series = _pipeline(sys, model, s0, 1.2)
        root = ss.prefactor(traj, m_series, +1)
        assert abs(abs(root) - 1.0) < 1e-9

    def test_branch_stable_under_refinement(self):
        sys, params, model = _pc(two_j=8, lam=1.5)
        s0 = ss.CoherentLabel(0.8 + 0.1j, 0.5 - 0.6j)
        vals = []
        for max_step in (0.02, 0.01):
            cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=max_step)
            traj, m_series = _pipeline(sys, model, s0, 0.6, cfg)
            vals.append(ss.prefactor(traj, m_series, +1))
        assert abs(cmath.phase(vals[0]) - cmath.phase(vals[1])) < 1e-6

    def test_caustic_detection(self):
        from spinsemi.errors import CausticEncountered

        sys, _, model = _pc()
        traj = ss.integrate_trajectory(sys, model, ss.CoherentLabel(0.3, 0.2), 0.1, CFG)
        ms = np.tile(np.eye(4, dtype=complex), (len(traj), 1, 1))
        ms[-1, 2:, 2:] = 0.0  # det M_vv = 0 at the last sample
        with pytest.raises(CausticEncountered, match=f"at t = {traj.ts[-1]:.6e}"):
            ss.prefactor(traj, ss.StabilityMatrix(ms), +1)

    def test_phase_continuity_between_samples(self):
        sys, params, model = _pc(two_j=8, lam=1.5)
        s0 = ss.CoherentLabel(0.8 + 0.1j, 0.5 - 0.6j)
        traj, m_series = _pipeline(sys, model, s0, 0.8)
        start = traj.initial
        den0 = (1 + start.u[0] * start.v[0]) * (1 + start.u[1] * start.v[1])
        vals = []
        for i, stab in enumerate(m_series):
            stt = traj.state(i)
            ratio = (1 + stt.u[0] * stt.v[0]) * (1 + stt.u[1] * stt.v[1]) / den0
            vals.append(ratio / det2(stab.m_vv))
        theta = np.unwrap(np.angle(np.asarray(vals)))
        assert np.max(np.abs(np.diff(theta))) < np.pi / 2


class TestBackwardBranch:
    """On a real trajectory of a Hermitian model the backward objects are
    complex conjugates of the forward ones."""

    def _setup(self):
        sys = ss.SpinSystem(two_j=6)
        model = ss.exchange_coupling_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.6 + 0.1j, -0.4 + 0.3j)
        traj, m_series = _pipeline(sys, model, s0, 0.3)
        return sys, model, traj, m_series

    def test_prefactor_conjugation(self):
        _, _, traj, m_series = self._setup()
        fwd = ss.prefactor(traj, m_series, +1)
        back = ss.prefactor(traj, m_series, -1)
        assert abs(back - np.conj(fwd)) < 1e-10

    def test_action_conjugation(self):
        sys, model, traj, _ = self._setup()
        fwd = ss.action_integrals(sys, model, traj, +1)
        back = ss.action_integrals(sys, model, traj, -1)
        hb = sys.hbar
        lhs = 1j * back.s_action / hb
        rhs = np.conj(1j * fwd.s_action / hb)
        assert abs(lhs - rhs) < 1e-9
        assert abs(1j * back.g_corr / hb - np.conj(1j * fwd.g_corr / hb)) < 1e-9
        assert back.lambda_norm == fwd.lambda_norm

    def test_backward_propagator_matches_exact(self):
        # assembled K_- approximates the reversed exact overlap, i.e. the
        # conjugate of the forward one at the diagonal endpoint
        sys, model, traj, m_series = self._setup()
        bundle = ss.action_integrals(sys, model, traj, -1)
        k_back = ss.prefactor(traj, m_series, -1) * np.exp(bundle.exponent)
        s_eta = ss.CoherentLabel(traj.final.u[0], traj.final.u[1])
        k_ex = ss.exact_propagator_overlap(
            sys, model, s_eta, ss.CoherentLabel(*traj.initial.u), traj.ts[-1]
        )
        assert abs(k_back - np.conj(k_ex)) / abs(k_ex) < 2e-2


class TestSemiclassicalPropagator:
    def test_zero_time_is_self_overlap(self):
        sys, _, model = _pc()
        s0 = ss.CoherentLabel(0.4, 0.7j)
        val, s_eta = ss.semiclassical_propagator_real(sys, model, s0, 0.0, CFG)
        assert abs(val - 1.0) < 1e-9
        assert s_eta == s0
        # nothing is integrated: a model without derivs or htilde is never called
        assert ss.semiclassical_propagator_real(sys, object(), s0, 0.0, CFG) == (val, s0)

    def test_noninteracting_unit_modulus(self):
        sys = ss.SpinSystem(two_j=10)
        model = ss.free_precession_model(sys, 0.9)
        val, _ = ss.semiclassical_propagator_real(
            sys, model, ss.CoherentLabel(0.8, -0.5 + 0.3j), 1.0, CFG
        )
        assert abs(abs(val) - 1.0) < 1e-6

    @pytest.mark.parametrize("s0", [(0.5, 0.8j), (1.0, 1.0)])
    def test_phase_coupling_accuracy_improves_with_spin(self, s0):
        lam = 1.0
        errors = []
        for two_j in (4, 10, 20):
            sys = ss.SpinSystem(two_j=two_j)
            model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys))
            label = ss.CoherentLabel(*s0)
            t_final = 0.2 / (lam * sys.j)
            k_sc, s_eta = ss.semiclassical_propagator_real(sys, model, label, t_final, CFG)
            k_ex = ss.exact_propagator_overlap(sys, model, s_eta, label, t_final)
            errors.append(abs(k_sc - k_ex) / abs(k_ex))
        assert errors[-1] <= 5e-2
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("two_j", [10, 40])
    @pytest.mark.parametrize("model_of", [
        lambda sys: ss.exchange_coupling_model(sys, 1.0),
        lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys)),
    ], ids=["exchange", "phase"])
    def test_default_grid_converges(self, model_of, two_j):
        # the action quadratures and the branch tracking on the default grid
        # agree with a 1025-sample run at tau = lambda j t up to 3
        sys = ss.SpinSystem(two_j=two_j)
        model = model_of(sys)
        s0 = ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j)
        for tau in (0.1, 1.0, 3.0):
            t_final = tau / sys.j
            values = []
            for times in (None, np.linspace(0.0, t_final, 1025)):
                traj = ss.integrate_trajectory(sys, model, s0, t_final, CFG, sample_times=times)
                m_series = ss.integrate_stability(sys, model, traj, CFG)
                bundle = ss.action_integrals(sys, model, traj, +1)
                values.append(ss.prefactor(traj, m_series, +1) * cmath.exp(bundle.exponent))
            assert abs(values[0] - values[1]) <= 1e-8 * abs(values[1]), tau


class TestAuxDeterminants:
    def test_identity_matrix(self):
        aux = ss.aux_determinants(np.eye(4, dtype=complex))
        assert aux.d == pytest.approx(1.0)
        assert aux.d_prime == pytest.approx(0.0)
        assert aux.d_dprime == pytest.approx(0.0)

    @given(m=matrix4())
    @example(m=np.array([[1j, 1j, 0, 0], [1, 0, 1, 0], [1 + 1j, 0, 1 + 1j, 1j],
                         [1j, 1j, 2.2250738585e-313j, 0]]))
    @settings(max_examples=50, deadline=None)
    def test_determinant_decomposition(self, m):
        aux = ss.aux_determinants(m)
        det = cofactor_det(m.tolist())
        assert abs(aux.d - aux.d_prime - aux.d_dprime - det) < 1e-10 * max(1.0, abs(det))

    @given(m=matrix4())
    @settings(max_examples=50, deadline=None)
    def test_block_identity(self, m):
        assume(abs(det2(m[2:, 2:])) > 1e-3)
        assume(abs(det2(m[:2, :2])) > 1e-3)
        assert block_identity_defect(m, ss.aux_determinants(m)) < 1e-10

    def test_endpoint_factor(self):
        start = PhaseSpaceState([0.3, 0.5], [0.3, 0.5])
        end = PhaseSpaceState([0.6, 0.2], [0.6, 0.2])
        tcal = endpoint_factor(start, end)
        num = (1 + 0.36) * (1 + 0.04)
        den = (1 + 0.09) * (1 + 0.25)
        assert tcal == pytest.approx((num / den) ** 2)


class TestPuritySc:
    def test_noninteracting_is_one(self):
        sys = ss.SpinSystem(two_j=5)
        model = ss.free_precession_model(sys, 1.3)
        traj, m_series = _pipeline(sys, model, ss.CoherentLabel(0.7, -0.2 + 0.4j), 1.0)
        assert ss.purity_sc(m_series[-1], traj) == pytest.approx(1.0, abs=1e-10)

    def test_phase_coupling_closed_form(self):
        sys, params, model = _pc(two_j=8)
        s0 = ss.CoherentLabel(0.5 + 0.5j, -0.3 + 0.7j)
        t_final = 0.2
        traj, m_series = _pipeline(sys, model, s0, t_final)
        got = ss.purity_sc(m_series[-1], traj)
        assert got == pytest.approx(ss.pc_purity_sc(params, s0, t_final), abs=1e-9)

    def test_spin_half_series_vs_exact(self):
        # (1 + lam^2 T^2 / 4)^(-1/2) matches (3 + cos lam T)/4 through O(T^2)
        sys, params, model = _pc(two_j=1, lam=1.0)
        s0 = ss.CoherentLabel(1.0, 1.0)
        for t_final in (0.01, 0.02):
            p_sc = ss.pc_purity_sc(params, s0, t_final)
            assert p_sc == pytest.approx((1 + t_final ** 2 / 4) ** -0.5, rel=1e-12)
            p_ex = ss.pc_exact_purity(params, s0, t_final)
            assert abs(p_sc - p_ex) < 5.0 * t_final ** 4

    def test_exchange_symmetry(self):
        sys, params, model = _pc(two_j=6, lam=0.9)
        sx, sy = 0.8 + 0.1j, -0.4 + 0.6j
        t_final = 0.15
        traj1, m1 = _pipeline(sys, model, ss.CoherentLabel(sx, sy), t_final)
        traj2, m2 = _pipeline(sys, model, ss.CoherentLabel(sy, sx), t_final)
        p1 = ss.purity_sc(m1[-1], traj1)
        p2 = ss.purity_sc(m2[-1], traj2)
        assert abs(p1 - p2) < 1e-10

    def test_validity_breakdown_raises(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = m[1, 2] = 0.8j
        m[2, 1] = m[3, 0] = 0.8j
        stab = ss.StabilityMatrix(m)
        ev = purity_sc_evaluate(stab, _ORIGIN, _ORIGIN)
        assert ev.reason.startswith("Re(1 + 2 d''/T) = ")
        assert np.isnan(ev.p_sc) and np.isnan(ev.im_residual)
        with pytest.raises(ValidityBreakdown, match="outside the validity window"):
            ss.purity_sc(stab, _static_trajectory())

    def test_inconsistent_matrix_rejected(self):
        # det M = 16 but the endpoint factor says 1: the two purity forms
        # cannot agree and the evaluation must refuse
        stab = ss.StabilityMatrix(2.0 * np.eye(4))
        ev = purity_sc_evaluate(stab, _ORIGIN, _ORIGIN)
        assert ev.reason.startswith("purity forms disagree by ")
        assert np.isnan(ev.p_sc) and np.isnan(ev.im_residual)
        with pytest.raises(ValidityBreakdown, match="inconsistent with det M = T"):
            ss.purity_sc(stab, _static_trajectory())

    def test_valid_sample_has_no_reason(self):
        ev = purity_sc_evaluate(ss.StabilityMatrix(np.eye(4)), _ORIGIN, _ORIGIN)
        assert ev.reason is None
        assert ev.p_sc == 1.0 and ev.im_residual == 0.0 and ev.tcal == 1.0

    def test_short_time_slope_matches_quadratic_law(self):
        # S_lin_sc(T)/T^2 converges onto the short-time coefficient
        sys, params, model = _pc(two_j=10, lam=1.0)
        s0 = ss.CoherentLabel(0.5, 0.8j)
        coeff = pc_slin_short_time(params, s0, 1.0)  # coefficient of T^2
        ts = np.linspace(0.002, 0.01, 5) / (params.lam * sys.j)
        slins = []
        for t_final in ts:
            traj, m_series = _pipeline(sys, model, s0, t_final)
            slins.append(1.0 - ss.purity_sc(m_series[-1], traj))
        fit = np.polyfit(ts ** 2, slins, 1)
        assert abs(fit[0] - coeff) / coeff < 1e-3

    def test_hbar_j_product_invariance(self):
        s0 = ss.CoherentLabel(0.6 + 0.2j, -0.5 + 0.4j)
        sys_a = ss.SpinSystem(two_j=4, hbar=1.0)
        sys_b = ss.SpinSystem(two_j=8, hbar=0.5)
        lam = 1.1
        model_a = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys_a))
        model_b = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam / 2, sys=sys_b))
        t_final = 0.25
        traj_a, m_a = _pipeline(sys_a, model_a, s0, t_final)
        traj_b, m_b = _pipeline(sys_b, model_b, s0, t_final)
        pa = ss.purity_sc(m_a[-1], traj_a)
        pb = ss.purity_sc(m_b[-1], traj_b)
        assert abs(pa - pb) < 1e-9


_ORIGIN = PhaseSpaceState([0.0, 0.0], [0.0, 0.0])


def _static_trajectory():
    """One-sample trajectory resting at the origin."""
    return Trajectory(ts=np.array([0.0]), ys=np.zeros((1, 4), dtype=complex),
                      energy=np.zeros(1))


def _per_row_evaluate(m, start, end):
    """The evaluation of one 4x4 stability matrix at one endpoint pair, as
    it was before the series path, kept as its oracle: it raises
    ValidityBreakdown where the series path flags the sample."""
    det_a, det_b, det_c, det_d = permuted_dets(m, (0, 3, 2, 1))
    det_ap, det_bp, det_cp, det_dp = permuted_dets(m, (0, 2, 1, 3))
    d = det2(m[:2, :2]) * det2(m[2:, 2:]) + det2(m[:2, 2:]) * det2(m[2:, :2])
    d_prime = det_a * det_b + det_c * det_d
    d_dprime = det_ap * det_bp + det_cp * det_dp
    num = (1.0 + end.u[0] * end.v[0]) * (1.0 + end.u[1] * end.v[1])
    den = (1.0 + start.u[0] * start.v[0]) * (1.0 + start.u[1] * start.v[1])
    tcal = (num / den) ** 2
    radicand = 1.0 + 2.0 * d_dprime / tcal
    if radicand.real <= 0.0:
        raise ValidityBreakdown(
            f"Re(1 + 2 d''/T) = {radicand.real:.3e} <= 0; outside the validity window"
        )
    p_main = radicand ** -0.5
    det_form_sq = (d - d_prime) ** 2 - d_dprime ** 2
    if det_form_sq == 0:
        raise ValidityBreakdown("determinant form vanished")
    p_det = tcal / np.sqrt(det_form_sq)
    detm_residual = abs(p_main - p_det) / max(abs(p_main), 1e-300)
    if detm_residual > 1e-7:
        raise ValidityBreakdown(
            f"purity forms disagree by {detm_residual:.3e} (> 1e-7): "
            "stability matrix inconsistent with det M = T"
        )
    im_residual = abs(p_main.imag)
    if im_residual > 1e-6:
        raise ValidityBreakdown(f"|Im P_sc| = {im_residual:.3e} > 1e-6")
    return float(p_main.real), im_residual, tcal


def _series_vs_per_row(m_series, start, ends):
    """Largest relative gap of p_sc, im_residual and tcal between the series
    evaluation and the per-row oracle; flagged rows must carry the reason
    the oracle raises."""
    ev = purity_sc_evaluate(m_series, start, ends)
    worst = 0.0
    for i, stab in enumerate(m_series):
        end = PhaseSpaceState(ends.u[i], ends.v[i])
        try:
            p_sc, im_residual, tcal = _per_row_evaluate(stab.m, start, end)
        except ValidityBreakdown as exc:
            assert ev.reason[i] == str(exc)
            assert np.isnan(ev.p_sc[i]) and np.isnan(ev.im_residual[i])
            continue
        assert ev.reason[i] is None
        # im_residual is the imaginary part of the purity, so |p_sc| scales it
        worst = max(worst,
                    abs(ev.p_sc[i] - p_sc) / abs(p_sc),
                    abs(ev.im_residual[i] - im_residual) / abs(p_sc),
                    abs(ev.tcal[i] - tcal) / abs(tcal))
    return worst


class TestSeriesEvaluation:
    @pytest.mark.parametrize("model_of, two_j", [
        (lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys)), 10),
        (lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys)), 40),
        (lambda sys: ss.exchange_coupling_model(sys, 1.0), 10),
    ], ids=["phase_coupling-10", "phase_coupling-40", "exchange-10"])
    def test_matches_per_row_oracle(self, model_of, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        model = model_of(sys)
        s0 = ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j)
        times = np.linspace(0.0, 0.5, 400)
        traj = ss.integrate_trajectory(sys, model, s0, times[-1], CFG, sample_times=times)
        m_series = ss.integrate_stability(sys, model, traj, CFG)
        assert _series_vs_per_row(m_series, traj.initial, traj.state(slice(None))) <= 1e-12

    def test_one_bad_row_is_flagged_alone(self):
        sys, params, model = _pc(two_j=10)
        times = np.linspace(0.0, 0.3, 50)
        traj = ss.integrate_trajectory(sys, model, ss.CoherentLabel(0.6, 0.4j), times[-1],
                                       CFG, sample_times=times)
        ms = traj.ms.copy()
        ms[17] = 2.0 * np.eye(4)  # inconsistent with its endpoint factor
        ends = traj.state(slice(None))
        ev = purity_sc_evaluate(ss.StabilityMatrix(ms), traj.initial, ends)
        assert [i for i, r in enumerate(ev.reason) if r is not None] == [17]
        assert ev.reason[17].startswith("purity forms disagree by ")
        assert np.isnan(ev.p_sc[17]) and np.isnan(ev.im_residual[17])
        for i in range(len(traj)):
            one = purity_sc_evaluate(ss.StabilityMatrix(ms[i]), traj.initial, traj.state(i))
            assert one.reason == ev.reason[i]
            if i != 17:
                assert abs(one.p_sc - ev.p_sc[i]) <= 1e-12 * abs(one.p_sc)
                assert abs(one.im_residual - ev.im_residual[i]) <= 1e-12 * abs(one.p_sc)
            assert abs(one.tcal - ev.tcal[i]) <= 1e-12 * abs(one.tcal)


class TestGaussianCoefficients:
    def test_identity(self):
        a1, a2 = gaussian_a1a2(ss.StabilityMatrix(np.eye(4)))
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(0.0)
        assert (a1 ** 2 - a2 ** 2) ** -0.5 == pytest.approx(1.0)

    def test_block_diagonal(self):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = [[1.2, 0.3], [0.1, 0.9]]
        m[2:, 2:] = [[0.8, -0.2], [0.4, 1.1]]
        a1, a2 = gaussian_a1a2(ss.StabilityMatrix(m))
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(0.0)

    @given(m=matrix4())
    @settings(max_examples=40, deadline=None)
    def test_consistency_with_determinant_form(self, m):
        assume(abs(det2(m[:2, :2])) > 1e-2 and abs(det2(m[2:, 2:])) > 1e-2)
        stab = ss.StabilityMatrix(m)
        a1, a2 = gaussian_a1a2(stab)
        aux = ss.aux_determinants(m)
        lhs = (aux.d - aux.d_prime) ** 2 - aux.d_dprime ** 2
        mm = det2(stab.m_uu) * det2(stab.m_vv)
        rhs = mm ** 2 * (a1 ** 2 - a2 ** 2)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_on_computed_stability_matrix(self):
        sys = ss.SpinSystem(two_j=5)
        model = ss.exchange_coupling_model(sys, 0.7)
        traj, m_series = _pipeline(sys, model, ss.CoherentLabel(0.4, 0.6 - 0.2j), 0.4)
        stab = m_series[-1]
        a1, a2 = gaussian_a1a2(stab)
        aux = ss.aux_determinants(stab)
        lhs = (aux.d - aux.d_prime) ** 2 - aux.d_dprime ** 2
        mm = det2(stab.m_uu) * det2(stab.m_vv)
        assert abs(lhs - mm ** 2 * (a1 ** 2 - a2 ** 2)) < 1e-8 * max(1.0, abs(lhs))


class TestActionHessians:
    def _computed(self):
        sys = ss.SpinSystem(two_j=6)
        model = ss.exchange_coupling_model(sys, 0.9)
        traj, m_series = _pipeline(sys, model, ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j), 0.3)
        return sys, traj, m_series[-1]

    @pytest.mark.parametrize("xi", [+1, -1])
    def test_roundtrip(self, xi):
        sys, traj, stab = self._computed()
        hs = action_hessians_from_stability(sys, stab, traj.initial, traj.final, xi)
        back = stability_from_action_hessians(sys, hs, traj.initial, traj.final, xi)
        assert np.max(np.abs(back.m - stab.m)) < 1e-8

    def test_prefactor_equivalence(self):
        # det((i/hbar) S_u'v'') times the endpoint product over 2j equals
        # the block form of the prefactor
        sys, traj, stab = self._computed()
        _, s_uv, _, _ = action_hessians_from_stability(
            sys, stab, traj.initial, traj.final, +1
        )
        start, end = traj.initial, traj.final
        prod = np.prod(
            (1 + end.u * end.v) * (1 + start.u * start.v) / (2 * sys.j)
        )
        pref_hess = np.linalg.det(1j / sys.hbar * s_uv) * prod
        pref_block = np.prod((1 + end.u * end.v) / (1 + start.u * start.v)) / det2(stab.m_vv)
        assert abs(pref_hess - pref_block) < 1e-8 * abs(pref_block)

    def test_hessian_block_symmetry(self):
        # S_v''v'' is a Hessian: its off-diagonal entries coincide, which is
        # what forces det A' det B' = det C' det D'
        sys, traj, stab = self._computed()
        _, _, _, s_vv = action_hessians_from_stability(
            sys, stab, traj.initial, traj.final, +1
        )
        assert abs(s_vv[0, 1] - s_vv[1, 0]) < 1e-8 * max(1.0, abs(s_vv[0, 1]))
        s_uu, _, _, _ = action_hessians_from_stability(
            sys, stab, traj.initial, traj.final, -1
        )
        assert abs(s_uu[0, 1] - s_uu[1, 0]) < 1e-8 * max(1.0, abs(s_uu[0, 1]))


class TestCanonicalPurity:
    def test_identity(self):
        assert canonical_purity(ss.StabilityMatrix(np.eye(4))) == pytest.approx(1.0)

    def test_matches_stability_purity_for_scaled_labels(self):
        z = (1.0, 0.5 + 0.5j)
        lam, lam_t = 1.0, 0.02
        for two_j in (16, 64):
            sys = ss.SpinSystem(two_j=two_j)
            model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys))
            s0 = ss.CoherentLabel(z[0] / np.sqrt(two_j), z[1] / np.sqrt(two_j))
            traj, m_series = _pipeline(sys, model, s0, lam_t / lam)
            p_stab = ss.purity_sc(m_series[-1], traj)
            p_can = canonical_purity(m_series[-1])
            assert 0.0 < p_can.real <= 1.0 and abs(p_can.imag) < 1e-6
            assert abs(p_can - p_stab) < 1e-6

    def test_block_identity_defect_is_small(self):
        sys, params, model = _pc()
        traj, m_series = _pipeline(sys, model, ss.CoherentLabel(0.4, 0.2j), 0.2)
        stab = m_series[-1]
        assert block_identity_defect(stab.m, ss.aux_determinants(stab)) < 1e-8

    def test_two_oscillator_short_time_limit(self):
        z = (1.0, 0.5 + 0.5j)
        lam_t = 0.02
        target = 1 - 2 * abs(z[0]) ** 2 * abs(z[1]) ** 2 * lam_t ** 2
        sys = ss.SpinSystem(two_j=128)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
        s0 = ss.CoherentLabel(z[0] / np.sqrt(128), z[1] / np.sqrt(128))
        traj, m_series = _pipeline(sys, model, s0, lam_t)
        p_can = canonical_purity(m_series[-1])
        assert 0.0 < p_can.real <= 1.0 and abs(p_can.imag) < 1e-6
        assert abs(p_can - target) < 2e-5


class TestContractionChecks:
    def test_zero_labels_are_exact(self):
        systems = [ss.SpinSystem(two_j=tj) for tj in (4, 8)]
        report = ss.contraction_checks(systems, (0.0, 0.0))
        for row in report.rows:
            assert row.overlap_error < 1e-14
            assert row.purity_error < 1e-12

    def test_overlap_error_shrinks_like_inverse_j(self):
        systems = [ss.SpinSystem(two_j=tj) for tj in (8, 16, 32, 64)]
        report = ss.contraction_checks(systems, (1.0, 0.5 + 0.5j))
        errs = [r.overlap_error for r in report.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert report.overlap_order >= 0.9

    def test_purity_converges_to_canonical_value(self):
        systems = [ss.SpinSystem(two_j=tj) for tj in (8, 16, 32, 64)]
        report = ss.contraction_checks(systems, (1.0, 0.5 + 0.5j), lam=1.0, lam_t=0.02)
        errs = [r.purity_error for r in report.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert report.purity_order >= 0.9
