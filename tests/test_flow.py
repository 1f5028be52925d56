import numpy as np
import pytest

import spinsemi as ss
from spinsemi.errors import ChartSingularity
from spinsemi.flow import (
    CHART_TOL,
    DEFAULT_SAMPLES,
    Trajectory,
    _field_and_stability,
)
from helpers import field_and_jacobian
from oracles import landing_rk_dp5, pc_stability, pc_trajectory, reference_rk_dop853

CFG = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


def _pc(two_j=6, lam=1.0):
    sys = ss.SpinSystem(two_j=two_j)
    params = ss.PhaseCouplingParams(lam=lam, sys=sys)
    return sys, params, ss.phase_coupling_model(params)


def _field(sys, model, y):
    return field_and_jacobian(sys, model, y)[0]


# Row r of the Jacobian differentiates udot_0, udot_1, vdot_0, vdot_1: the
# chart factor p_k and gradient entry it carries, and its sign.
_ROW_CHART = np.array([0, 1, 0, 1])
_ROW_GRAD = np.array([2, 3, 0, 1])
_ROW_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _scatter_field_and_jacobian(sys, model, y):
    """The field and Jacobian as numpy arrays, with the derivative of p_k^2
    scattered into a zero-filled (2, 4) table (the array form the scalar
    kernel replaced, kept as its oracle)."""
    p = 1.0 + y[:2] * y[2:4]
    if np.abs(p).min() < CHART_TOL:
        raise ChartSingularity("chart")
    _, g, hss = model.derivs(y[:2], y[2:4])
    pref = p ** 2 / (2j * sys.hbar_j)
    field = np.concatenate([pref * g[2:4], -pref * g[:2]])
    dp2 = np.zeros((2, 4), dtype=complex)
    dp2[[0, 1], [0, 1]] = 2.0 * y[2:4] * p   # d(p_k^2)/du_k
    dp2[[0, 1], [2, 3]] = 2.0 * y[:2] * p    # d(p_k^2)/dv_k
    rows = (p[_ROW_CHART, None] ** 2 * hss[_ROW_GRAD]
            + g[_ROW_GRAD, None] * dp2[_ROW_CHART])
    return field, _ROW_SIGN[:, None] * rows / (2j * sys.hbar_j)


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
        assert counting.calls == 1


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


_KERNEL_MODELS = {
    "phase_coupling":
        lambda sys: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.3, sys=sys)),
    "exchange_coupling": lambda sys: ss.exchange_coupling_model(sys, 1.1),
    "operator_terms": lambda sys: ss.build_operator_model(sys, [
        ss.OperatorTerm(0.2 + 0.5j, ("J+", 1), ("J3", 1)),
        ss.OperatorTerm(0.2 - 0.5j, ("J-", 1), ("J3", 1)),
        ss.OperatorTerm(-0.6, ("I", 0), ("J3", 2)),
        ss.OperatorTerm(0.4 - 0.3j, ("J+", 1), ("J-", 1)),
        ss.OperatorTerm(0.4 + 0.3j, ("J-", 1), ("J+", 1)),
    ]),
}


def _kernel_points(rng, count=4):
    """States on v = conj(u), a little off it, and far off it."""
    for offset in (0.0, 1e-3, 0.5):
        for _ in range(count):
            u = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            noise = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            yield np.concatenate([u, np.conj(u) + offset * noise])


class TestKernel:
    @pytest.mark.parametrize("two_j", [1, 5, 10, 40])
    @pytest.mark.parametrize("name", sorted(_KERNEL_MODELS))
    def test_matches_scatter_oracle(self, name, two_j):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        model = _KERNEL_MODELS[name](sys)
        rng = np.random.default_rng(two_j)
        out = np.empty(20, dtype=complex)
        for y in _kernel_points(rng):
            field, jac = _scatter_field_and_jacobian(sys, model, y)
            got_field, got_jac = field_and_jacobian(sys, model, y)
            assert np.max(np.abs(got_field - field)) <= 1e-14 * np.max(np.abs(field))
            assert np.max(np.abs(got_jac - jac)) <= 1e-14 * np.max(np.abs(jac))
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rhs = _field_and_stability(sys, model, np.concatenate([y, m.ravel()]), out)
            assert rhs is out
            dm = jac @ m
            assert np.max(np.abs(rhs[:4] - field)) <= 1e-14 * np.max(np.abs(field))
            assert np.max(np.abs(rhs[4:].reshape(4, 4) - dm)) <= 1e-14 * np.max(np.abs(dm))

    def test_chart_singularity_message(self):
        sys, _, model = _pc()
        y = np.array([1j, 0.3, 1j, 0.3])  # 1 + (1j)(1j) = 0
        message = r"\|1 \+ u_k v_k\| = 0\.000e\+00 below 1e-12"
        with pytest.raises(ChartSingularity, match=message):
            field_and_jacobian(sys, model, y)
        with pytest.raises(ChartSingularity, match=message):
            _field_and_stability(sys, model, np.concatenate([y, np.eye(4).ravel()]),
                                 np.empty(20, dtype=complex))
        traj = Trajectory(ts=np.array([0.0, 0.1]), ys=np.array([[0.3, 0.3, 0.3, 0.3], y]),
                          energy=np.zeros(2, dtype=complex))
        with pytest.raises(ChartSingularity, match=message):
            ss.action_integrals(sys, model, traj, +1)


class TestIntegrateTrajectory:
    def test_zero_time(self):
        sys, _, model = _pc()
        s0 = ss.CoherentLabel(0.3, 0.5j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.0, CFG)
        assert len(traj) == 1
        assert np.allclose(traj.ys[0], [0.3, 0.5j, 0.3, -0.5j])
        # a zero span takes the same path as any other: samples past it fail
        with pytest.raises(ValueError, match="samples must lie within t_span"):
            ss.integrate_trajectory(sys, model, s0, 0.0, CFG, sample_times=[0.0, 0.5])

    def test_phase_coupling_closed_form(self):
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        traj = ss.integrate_trajectory(sys, model, s0, 0.5, CFG)
        ref = pc_trajectory(params, s0, 0.5, num_samples=2)
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
        ref = pc_stability(params, s0, 0.35)
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
        # one max_step for both integrators, so that they see one config
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=t_final / 32)
        traj = ss.integrate_trajectory(sys, model, s0, t_final, cfg, sample_times=times)

        def rhs(t, y):
            dy, jac = _scatter_field_and_jacobian(sys, model, y[:4])
            return np.concatenate([dy, (jac @ y[4:].reshape(4, 4)).ravel()])

        y0 = np.concatenate([traj.ys[0], np.eye(4).ravel()])
        ref = landing_rk_dp5(rhs, y0, cfg, times)
        ref_ys, ref_ms = ref[:, :4], ref[:, 4:].reshape(-1, 4, 4)
        assert np.max(np.abs(traj.ys - ref_ys)) <= 1e-9 * np.max(np.abs(ref_ys))
        assert np.max(np.abs(traj.ms - ref_ms)) <= 1e-9 * np.max(np.abs(ref_ms))

    def test_field_evaluations_do_not_depend_on_sample_count(self):
        # the accepted steps are the reference loop's, whatever the samples;
        # a step with a sample before its end costs the extension's 3 stages
        # more, however many samples it holds. max_step = 0.5 / 32 makes the
        # steps many and short
        sys, _, model = _pc(two_j=10)
        counting = _CountingModel(model)
        s0 = ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j)
        cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=0.5 / 32)
        y0 = np.concatenate([[s0.sx, s0.sy, np.conj(s0.sx), np.conj(s0.sy)],
                             np.eye(4).ravel()])
        grid, _, rejected = reference_rk_dop853(
            lambda t, y: _field_and_stability(sys, counting, y, np.empty(20, dtype=complex)),
            y0, 0.5, cfg)
        grid_calls = counting.calls
        steps = np.diff(grid)
        evals = {}
        for n in (63, 1000, 4000):
            counting.calls = 0
            times = np.linspace(0.0, 0.5, n)
            traj = ss.integrate_trajectory(sys, counting, s0, 0.5, cfg, sample_times=times)
            record = traj.integrator
            assert (record.accepted_steps, record.rejected_steps) == (steps.size, rejected)
            assert record.min_step == pytest.approx(steps.min(), rel=1e-12)
            assert record.max_step == pytest.approx(steps.max(), rel=1e-12)
            holding = np.count_nonzero(np.searchsorted(times, grid[1:])
                                       - np.searchsorted(times, grid[:-1], side="right"))
            assert counting.calls == record.field_evals == grid_calls + 3 * holding
            evals[n] = counting.calls
        # of 1000 or 4000 samples, every step holds one before its end but
        # the first (1e-4 long) and the last (a sliver that ends on t1); 63
        # samples, 0.008 apart, miss the next two steps of the ramp too
        assert evals[1000] == evals[4000] == grid_calls + 3 * (steps.size - 2)
        assert evals[63] == evals[1000] - 3 * 2

    def test_closed_forms_at_4000_samples(self):
        sys, params, model = _pc()
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        t_final = 0.35
        times = np.linspace(0.0, t_final, 4000)
        traj = ss.integrate_trajectory(sys, model, s0, t_final, CFG, sample_times=times)
        ref = pc_trajectory(params, s0, t_final, num_samples=4000)
        assert np.array_equal(traj.ts, ref.ts)
        assert np.max(np.abs(traj.ys - ref.ys)) < 1e-9
        assert np.max(np.abs(traj.ms[-1] - pc_stability(params, s0, t_final).m)) < 1e-8

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
        traj = pc_trajectory(params, ss.CoherentLabel(0.4, 0.2j), 0.3)
        assert traj.ms is None
        with pytest.raises(ValueError):
            ss.integrate_stability(sys, model, traj, CFG)


# seed-0 labels 0-2 of the benchmark's label draw
_LABELS = [
    ss.CoherentLabel(0.589162207071752 + 0.1551186170334857j,
                     0.5146591039827678 + 0.05363834185771081j),
    ss.CoherentLabel(-0.512079451876481 - 0.4057073685663083j,
                     -0.08712750991646735 - 0.6725689357931776j),
    ss.CoherentLabel(0.2355718736362402 - 0.5364625090724819j,
                     0.6836668889588055 + 0.011764678136563952j),
]


@pytest.mark.parametrize("model_of, two_j, t_max, num_points, counts", [
    (lambda sys: ss.exchange_coupling_model(sys, 1.0), 10, 0.5, 100, [247, 277, 314]),
    (_phase_coupling, 40, 0.05, 100, [103, 103, 103]),
    (_phase_coupling, 10, 0.5, 4000, [234, 208, 219]),
])
def test_field_evaluation_counts_are_pinned(model_of, two_j, t_max, num_points, counts):
    # the benchmark workloads' curves at the default integrator settings
    sys = ss.SpinSystem(two_j=two_j)
    counting = _CountingModel(model_of(sys))
    times = np.linspace(0.0, t_max, num_points)
    got = []
    for label in _LABELS:
        counting.calls = 0
        ss.integrate_trajectory(sys, counting, label, t_max, ss.IntegratorConfig(),
                                sample_times=times)
        got.append(counting.calls)
    assert got == counts


@pytest.mark.parametrize("sampled", [False, True])
def test_record_counts_the_models_derivs_calls(sampled):
    # each field evaluation is one derivs call of the model
    sys = ss.SpinSystem(two_j=10)
    counting = _CountingModel(ss.exchange_coupling_model(sys, 1.0))
    times = np.linspace(0.0, 0.5, 100) if sampled else None
    traj = ss.integrate_trajectory(sys, counting, _LABELS[2], 0.5, ss.IntegratorConfig(),
                                   sample_times=times)
    record = traj.integrator
    assert record.method == "DOP853"
    assert record.field_evals == counting.calls
    if not sampled:
        # the default grid is DEFAULT_SAMPLES uniform times, integrated as
        # if they were requested
        uniform = np.linspace(0.0, 0.5, DEFAULT_SAMPLES)
        assert np.array_equal(traj.ts, uniform)
        calls, counting.calls = counting.calls, 0
        requested = ss.integrate_trajectory(sys, counting, _LABELS[2], 0.5,
                                            ss.IntegratorConfig(), sample_times=uniform)
        assert requested.integrator == record and counting.calls == calls
        assert np.array_equal(requested.ys, traj.ys) and np.array_equal(requested.ms, traj.ms)
    assert 0.0 < record.min_step <= record.max_step


class TestStepCap:
    """No call caps the step: the output grid is the requested samples, or
    DEFAULT_SAMPLES uniform ones, read off the continuous extension of the
    steps that error control alone picks."""

    def _large_spin(self):
        # exact_large_spin's settings: phase coupling, two_j=40, t_max=0.05
        sys = ss.SpinSystem(two_j=40)
        return sys, _phase_coupling(sys), ss.IntegratorConfig()

    def test_sampled_call_is_not_capped(self):
        sys, model, cfg = self._large_spin()
        times = np.linspace(0.0, 0.05, 100)
        traj = ss.integrate_trajectory(sys, model, _LABELS[0], 0.05, cfg, sample_times=times)
        assert traj.integrator.accepted_steps < 32
        assert traj.integrator.max_step > 0.05 / 32
        assert np.array_equal(traj.ts, times)

    def test_default_grid_keeps_the_floor(self):
        # the grid, not the step, keeps at least 33 samples
        sys, model, cfg = self._large_spin()
        traj = ss.integrate_trajectory(sys, model, _LABELS[0], 0.05, cfg)
        assert len(traj) == DEFAULT_SAMPLES >= 33
        assert np.array_equal(traj.ts, np.linspace(0.0, 0.05, DEFAULT_SAMPLES))

    def test_default_grid_is_not_capped(self):
        sys, model, cfg = self._large_spin()
        default = ss.integrate_trajectory(sys, model, _LABELS[0], 0.05, cfg).integrator
        times = np.linspace(0.0, 0.05, 100)
        sampled = ss.integrate_trajectory(sys, model, _LABELS[0], 0.05, cfg,
                                          sample_times=times).integrator
        assert (default.accepted_steps, default.rejected_steps, default.min_step,
                default.max_step) == (sampled.accepted_steps, sampled.rejected_steps,
                                      sampled.min_step, sampled.max_step)
        assert default.max_step > 0.05 / 32

    def test_endpoint_call_costs_less_than_the_old_cap(self):
        # criterion 2's calls (exchange, two_j=6, t = 1/j) read only the
        # endpoint; 32 capped steps cost at least 12 evaluations each
        sys = ss.SpinSystem(two_j=6)
        counting = _CountingModel(ss.exchange_coupling_model(sys, 1.0))
        traj = ss.integrate_trajectory(sys, counting, ss.CoherentLabel(0.4 - 0.2j, 0.3 + 0.5j),
                                       1.0 / sys.j, CFG)
        assert traj.integrator.field_evals == counting.calls < 12 * 32
