import numpy as np
import pytest

import spinsemi as ss
from spinsemi.errors import ChartSingularity
from spinsemi.flow import field_and_jacobian
from spinsemi.numerics import (
    FIRST_STEP,
    _DP_A,
    _DP_B5,
    _DP_C,
    _DP_E,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _PI_ALPHA,
    _PI_BETA,
    _SAFETY,
)

CFG = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


def _pc(two_j=6, lam=1.0):
    sys = ss.SpinSystem(two_j=two_j)
    params = ss.PhaseCouplingParams(lam=lam, sys=sys)
    return sys, params, ss.phase_coupling_model(params)


def _field(sys, model, y):
    return field_and_jacobian(sys, model, np.asarray(y, dtype=complex))[0]


class TestHamiltonianField:
    def test_constant_hamiltonian_gives_zero_field(self):
        sys = ss.SpinSystem(two_j=3)
        # H = 2.5 * identity: htilde is constant, the flow is static
        model = ss.build_operator_model(
            sys, [ss.OperatorTerm(2.5, ("I", 0), ("I", 0))]
        )
        y = np.array([0.4 + 0.1j, -0.2, 0.4 - 0.1j, -0.2])
        assert np.max(np.abs(_field(sys, model, y))) < 1e-14

    def test_phase_coupling_rates(self):
        sys, params, model = _pc()
        sx, sy = 0.7 + 0.3j, -0.4 + 0.9j
        vel = _field(sys, model, [sx, sy, np.conj(sx), np.conj(sy)])
        j = sys.j
        lam_x = 1j * params.lam * j * (1 - abs(sy) ** 2) / (1 + abs(sy) ** 2)
        lam_y = 1j * params.lam * j * (1 - abs(sx) ** 2) / (1 + abs(sx) ** 2)
        assert abs(vel[0] - lam_x * sx) < 1e-12
        assert abs(vel[1] - lam_y * sy) < 1e-12

    def test_real_point_velocity_conjugation(self):
        # Hermitian model at v = u*: vdot = conj(udot)
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 0.9)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vel = _field(sys, model, np.concatenate([u, np.conj(u)]))
            assert np.max(np.abs(vel[2:] - np.conj(vel[:2]))) < 1e-10

    def test_chart_singularity(self):
        sys, _, model = _pc()
        with pytest.raises(ChartSingularity):
            _field(sys, model, [1j, 0.3, 1j, 0.3])  # 1 + (1j)(1j) = 0

    def test_jacobian_matches_finite_differences(self):
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 1.1)
        rng = np.random.default_rng(7)
        y = 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        _, jac = field_and_jacobian(sys, model, y)
        step = 1e-6
        for col in range(4):
            dy = np.zeros(4, dtype=complex)
            dy[col] = step
            fd = (_field(sys, model, y + dy) - _field(sys, model, y - dy)) / (2 * step)
            assert np.max(np.abs(fd - jac[:, col])) < 1e-6


def _loop_jacobian(sys, model, y):
    """Field Jacobian by the explicit double loop over its entries (oracle)."""
    u, v = y[:2], y[2:4]
    p = 1.0 + u * v
    g = model.grad(u, v)
    hss = model.hess(u, v)
    denom = 2j * sys.hbar_j
    jac = np.empty((4, 4), dtype=complex)
    for k in range(2):
        pk2 = p[k] ** 2
        for l in range(4):
            term = pk2 * hss[2 + k, l]
            if l == k:
                term += 2.0 * v[k] * p[k] * g[2 + k]
            if l == 2 + k:
                term += 2.0 * u[k] * p[k] * g[2 + k]
            jac[k, l] = term / denom
        for l in range(4):
            term = pk2 * hss[k, l]
            if l == k:
                term += 2.0 * v[k] * p[k] * g[k]
            if l == 2 + k:
                term += 2.0 * u[k] * p[k] * g[k]
            jac[2 + k, l] = -term / denom
    return jac


class _CountingModel:
    """Forwards to a model, counts its derivs calls and records the shape
    of each htilde argument."""

    def __init__(self, model):
        self.model = model
        self.calls = 0
        self.htilde_shapes = []

    def derivs(self, u, v):
        self.calls += 1
        return self.model.derivs(u, v)

    def htilde(self, u, v):
        self.htilde_shapes.append(np.shape(u))
        return self.model.htilde(u, v)


class TestFusedDerivatives:
    @pytest.mark.parametrize("model_of", [
        lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.3, sys=sys)),
        lambda sys: ss.exchange_coupling_model(sys, 1.1),
        lambda sys: ss.build_operator_model(sys, [
            ss.OperatorTerm(0.2 + 0.5j, ("J+", 1), ("J3", 1)),
            ss.OperatorTerm(0.2 - 0.5j, ("J-", 1), ("J3", 1)),
        ]),
    ])
    def test_vectorized_jacobian_matches_loop(self, model_of):
        sys = ss.SpinSystem(two_j=5, hbar=0.7)
        model = model_of(sys)
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            y = np.concatenate([u, np.conj(u) + 0.05 * rng.standard_normal(2)])
            oracle = _loop_jacobian(sys, model, y)
            _, jac = field_and_jacobian(sys, model, y)
            assert np.max(np.abs(jac - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_one_derivs_call_per_point(self):
        sys = ss.SpinSystem(two_j=4)
        counting = _CountingModel(ss.exchange_coupling_model(sys, 0.9))
        y = np.array([0.3 + 0.2j, -0.5j, 0.3 - 0.2j, 0.5j])
        field_and_jacobian(sys, counting, y)
        assert counting.calls == 1
        traj = ss.integrate_trajectory(sys, counting.model, ss.CoherentLabel(0.3, 0.5j),
                                       0.2, CFG)
        counting.calls = 0
        ss.action_integrals(sys, counting, traj, +1)
        assert counting.calls == len(traj)


    @pytest.mark.parametrize("model_of", [
        lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.3, sys=sys)),
        lambda sys: ss.exchange_coupling_model(sys, 1.1),
    ])
    def test_one_energy_call_per_trajectory(self, model_of):
        sys = ss.SpinSystem(two_j=4)
        counting = _CountingModel(model_of(sys))
        times = np.linspace(0.0, 0.3, 57)
        traj = ss.integrate_trajectory(sys, counting, ss.CoherentLabel(0.3, 0.5j), 0.3,
                                       CFG, sample_times=times)
        assert counting.htilde_shapes == [(57, 2)]
        per_point = np.array([counting.model.htilde(y[:2], y[2:]) for y in traj.ys])
        assert np.max(np.abs(traj.energy - per_point)) <= 1e-12 * np.max(np.abs(per_point))


class TestIntegrateTrajectory:
    def test_zero_time(self):
        sys, _, model = _pc()
        s0 = ss.CoherentLabel(0.3, 0.5j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.0, CFG)
        assert len(traj) == 1
        assert np.allclose(traj.ys[0], [0.3, 0.5j, 0.3, -0.5j])

    def test_phase_coupling_closed_form(self):
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.5, CFG)
        ref = ss.pc_trajectory(params, s0, 0.5, num_samples=2)
        assert np.max(np.abs(traj.ys[-1] - ref.ys[-1])) < 1e-9

    def test_conserved_products(self):
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.6, 0.2 - 0.8j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.4, CFG)
        prods = traj.ys[:, :2] * traj.ys[:, 2:]
        assert np.max(np.abs(prods - prods[0])) < 1e-10

    def test_free_precession_conserves_modulus(self):
        sys = ss.SpinSystem(two_j=5)
        model = ss.free_precession_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.9 + 0.1j, -0.5 + 0.6j)
        traj = ss.integrate_trajectory(sys, model, s0, 1.5, CFG)
        mods = np.abs(traj.ys[:, :2])
        assert np.max(np.abs(mods - mods[0])) < 1e-9

    def test_energy_conservation_budget(self):
        sys = ss.SpinSystem(two_j=6)
        model = ss.exchange_coupling_model(sys, 1.0)
        s0 = ss.CoherentLabel(0.7, 0.2 + 0.5j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.6, CFG)
        assert traj.energy_drift() <= 10 * CFG.rel_tol * (1 + abs(traj.energy[0]))

    def test_reality_preserved(self):
        sys = ss.SpinSystem(two_j=5)
        model = ss.exchange_coupling_model(sys, 0.9)
        s0 = ss.CoherentLabel(0.4 - 0.2j, 0.8 + 0.3j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.8, CFG)
        assert traj.reality_drift() <= 1e-8

    def test_requested_sample_times(self):
        sys, _, model = _pc()
        s0 = ss.CoherentLabel(0.3, 0.4)
        wanted = np.linspace(0.0, 0.3, 7)
        traj = ss.integrate_trajectory(sys, model, s0, 0.3, CFG, sample_times=wanted)
        assert np.array_equal(traj.ts, wanted)


class TestIntegrateStability:
    def test_zero_time_identity(self):
        sys, _, model = _pc()
        traj = ss.integrate_trajectory(sys, model, ss.CoherentLabel(0.3, 0.1), 0.0, CFG)
        series = ss.integrate_stability(sys, model, traj, CFG)
        assert np.allclose(series[0].m, np.eye(4))

    def test_series_is_one_stability_matrix(self):
        sys, _, model = _pc()
        traj = ss.integrate_trajectory(sys, model, ss.CoherentLabel(0.3, 0.1), 0.2, CFG)
        series = ss.integrate_stability(sys, model, traj, CFG)
        assert isinstance(series, ss.StabilityMatrix)
        assert series.m.shape == (len(traj), 4, 4) and len(series) == len(traj)
        dets = np.array([stab.det() for stab in series])
        assert np.max(np.abs(series.det() - dets)) <= 1e-14 * np.max(np.abs(dets))
        assert np.array_equal(series[1:].m_vv, traj.ms[1:, 2:, 2:])
        with pytest.raises(ValueError):
            ss.StabilityMatrix(np.eye(3))

    def test_noninteracting_is_block_diagonal(self):
        sys = ss.SpinSystem(two_j=4)
        model = ss.free_precession_model(sys, 1.2)
        traj = ss.integrate_trajectory(sys, model, ss.CoherentLabel(0.7, -0.3j), 0.9, CFG)
        m = ss.integrate_stability(sys, model, traj, CFG)[-1]
        assert np.max(np.abs(m.m_uv)) < 1e-10
        assert np.max(np.abs(m.m_vu)) < 1e-10

    def test_phase_coupling_closed_form(self):
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.35, CFG)
        m = ss.integrate_stability(sys, model, traj, CFG)[-1]
        ref = ss.pc_stability(params, s0, 0.35)
        assert np.max(np.abs(m.m - ref.m)) < 1e-8

    def test_determinant_identity(self):
        from spinsemi.semiclassical import endpoint_factor

        sys = ss.SpinSystem(two_j=5)
        rng = np.random.default_rng(21)
        for model in (
            ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys)),
            ss.exchange_coupling_model(sys, 0.8),
        ):
            for _ in range(3):
                s0 = ss.CoherentLabel(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                )
                traj = ss.integrate_trajectory(sys, model, s0, 0.4, CFG)
                m = ss.integrate_stability(sys, model, traj, CFG)[-1]
                tcal = endpoint_factor(traj.initial, traj.final)
                assert abs(m.det() - tcal) / abs(tcal) < 1e-8

    def test_hessian_symmetry_consequence(self):
        # det A' det B' = det C' det D' on every computed stability matrix
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 1.1)
        s0 = ss.CoherentLabel(0.5 + 0.2j, -0.6 + 0.1j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.5, CFG)
        for m in ss.integrate_stability(sys, model, traj, CFG)[1:]:
            aux = ss.aux_determinants(m)
            lhs = aux.det_ap * aux.det_bp
            rhs = aux.det_cp * aux.det_dp
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_composition(self):
        # M over [0, t1+t2] equals M(restart at t1 endpoint over t2) . M(t1)
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.4 + 0.3j, 0.7 - 0.2j)
        t1, t2 = 0.22, 0.17
        traj1 = ss.integrate_trajectory(sys, model, s0, t1, CFG)
        m1 = ss.integrate_stability(sys, model, traj1, CFG)[-1]

        end = traj1.final
        mid_label = ss.CoherentLabel(end.u[0], end.u[1])
        traj2 = ss.integrate_trajectory(sys, model, mid_label, t2, CFG)
        m2 = ss.integrate_stability(sys, model, traj2, CFG)[-1]

        traj_full = ss.integrate_trajectory(sys, model, s0, t1 + t2, CFG)
        m_full = ss.integrate_stability(sys, model, traj_full, CFG)[-1]
        assert np.max(np.abs(m_full.m - m2.m @ m1.m)) < 1e-7


def _landing_rk(field, y0, cfg, samples):
    """The integrator before dense output, kept as the oracle: the same
    Dormand-Prince steps, but each one shortened to land exactly on the next
    sample. samples[0] is the start time."""
    t, y = samples[0], np.array(y0, dtype=complex)
    h = min(FIRST_STEP, cfg.max_step, samples[-1] - samples[0])
    err_prev = 1.0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = field(t, y)
    out = [y]
    for target in samples[1:]:
        while t < target - 1e-14 * max(1.0, abs(target)):
            h_try = min(h, cfg.max_step, target - t)
            for i in range(1, 7):
                k[i] = field(t + _DP_C[i] * h_try, y + h_try * (_DP_A[i] @ k[:i]))
            y_new = y + h_try * (_DP_B5 @ k)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(np.mean(np.abs(h_try * (_DP_E @ k) / scale) ** 2))
            if err <= 1.0:
                t, y = t + h_try, y_new
                k[0] = k[6]
                err = max(err, 1e-10)
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                err_prev = err
                h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            else:
                h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
        t = target
        out.append(y)
    return np.array(out)


def _phase_coupling(sys):
    return ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))


class TestOneIntegration:
    @pytest.mark.parametrize("model_of, two_j", [
        (lambda sys: ss.exchange_coupling_model(sys, 1.0), 10),
        (_phase_coupling, 10),
        (_phase_coupling, 40),
    ])
    def test_dense_output_matches_landing_oracle(self, model_of, two_j):
        # the two integrators take different steps, so they differ by
        # truncation error (~1e-11), not by rounding
        sys = ss.SpinSystem(two_j=two_j)
        model = model_of(sys)
        s0 = ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j)
        t_final = 0.5
        times = np.linspace(0.0, t_final, 400)
        # max_step at the sample floor's cap, so both integrators see one config
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=t_final / 32)
        traj = ss.integrate_trajectory(sys, model, s0, t_final, cfg, sample_times=times)

        def rhs(t, y):
            dy, jac = field_and_jacobian(sys, model, y[:4])
            return np.concatenate([dy, (jac @ y[4:].reshape(4, 4)).ravel()])

        y0 = np.concatenate([traj.ys[0], np.eye(4).ravel()])
        ref = _landing_rk(rhs, y0, cfg, times)
        ref_ys, ref_ms = ref[:, :4], ref[:, 4:].reshape(-1, 4, 4)
        assert np.max(np.abs(traj.ys - ref_ys)) <= 1e-9 * np.max(np.abs(ref_ys))
        assert np.max(np.abs(traj.ms - ref_ms)) <= 1e-9 * np.max(np.abs(ref_ms))

    def test_field_evaluations_do_not_depend_on_sample_count(self):
        sys, _, model = _pc(two_j=10)
        counting = _CountingModel(model)
        s0 = ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j)
        ss.integrate_trajectory(sys, counting, s0, 0.5, CFG)
        natural = counting.calls
        for n in (63, 1000, 4000):
            counting.calls = 0
            ss.integrate_trajectory(sys, counting, s0, 0.5, CFG,
                                    sample_times=np.linspace(0.0, 0.5, n))
            assert counting.calls == natural

    def test_closed_forms_at_4000_samples(self):
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        t_final = 0.35
        times = np.linspace(0.0, t_final, 4000)
        traj = ss.integrate_trajectory(sys, model, s0, t_final, CFG, sample_times=times)
        ref = ss.pc_trajectory(params, s0, t_final, num_samples=4000)
        assert np.array_equal(traj.ts, ref.ts)
        assert np.max(np.abs(traj.ys - ref.ys)) < 1e-9
        assert np.max(np.abs(traj.ms[-1] - ss.pc_stability(params, s0, t_final).m)) < 1e-8

    def test_integrate_stability_reads_the_trajectory(self):
        sys, params, model = _pc()
        counting = _CountingModel(model)
        s0 = ss.CoherentLabel(0.4 + 0.3j, 0.7 - 0.2j)
        traj = ss.integrate_trajectory(sys, counting, s0, 0.3, CFG)
        counting.calls = 0
        series = ss.integrate_stability(sys, counting, traj, CFG)
        assert counting.calls == 0
        assert len(series) == len(traj)
        assert all(np.array_equal(stab.m, m) for stab, m in zip(series, traj.ms))

    def test_integrate_stability_needs_matrices(self):
        sys, params, model = _pc()
        traj = ss.pc_trajectory(params, ss.CoherentLabel(0.4, 0.2j), 0.3)
        assert traj.ms is None
        with pytest.raises(ValueError):
            ss.integrate_stability(sys, model, traj, CFG)
