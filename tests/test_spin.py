import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsemi as ss
from spinsemi import spin
from spinsemi.errors import NotHermitian, ScaleOverflow
from spinsemi.models import _term_factors
from spinsemi.spin import binom_sqrt_weights, derivs_from_factors


def _j1_j2(sys):
    jp, jm, _ = ss.build_spin_operators(sys)
    return (jp + jm) / 2.0, (jp - jm) / 2j


labels = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


class TestSpinOperators:
    def test_spin_half_ladder(self):
        sys = ss.SpinSystem(two_j=1)
        jp, jm, j3 = ss.build_spin_operators(sys)
        assert np.allclose(j3, np.diag([-0.5, 0.5]))
        assert np.allclose(jp, [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(jm, jp.T)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 10, 40])
    def test_commutation_relations(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        jp, jm, j3 = ss.build_spin_operators(sys)
        j1, j2 = _j1_j2(sys)
        assert np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * j3)) < 1e-12
        assert np.max(np.abs(j2 @ j3 - j3 @ j2 - 1j * j1)) < 1e-12
        assert np.max(np.abs(j3 @ j1 - j1 @ j3 - 1j * j2)) < 1e-12

    def test_raising_coefficient(self):
        # J+ |-j> has coefficient sqrt(2j) on |-j+1>
        sys = ss.SpinSystem(two_j=4)
        jp, _, _ = ss.build_spin_operators(sys)
        lowest = np.zeros(sys.dim)
        lowest[0] = 1.0
        out = jp @ lowest
        assert out[1] == pytest.approx(np.sqrt(4.0))
        assert np.allclose(np.delete(out, 1), 0.0)


class TestCoherentStates:
    def test_lowest_state(self):
        sys = ss.SpinSystem(two_j=5)
        vec = ss.coherent_vector(sys, 0.0)
        expected = np.zeros(sys.dim)
        expected[0] = 1.0
        assert np.allclose(vec, expected)

    @given(s=labels, two_j=st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_unit_norm(self, s, two_j):
        vec = ss.coherent_vector(ss.SpinSystem(two_j=two_j), s)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_matches_exponential_construction(self):
        # exp(s J+)|-j>, normalized, via a truncated series (exact: nilpotent)
        sys = ss.SpinSystem(two_j=7)
        s = 0.6 - 1.1j
        jp, _, _ = ss.build_spin_operators(sys)
        lowest = np.zeros(sys.dim, dtype=complex)
        lowest[0] = 1.0
        term = lowest.copy()
        total = lowest.copy()
        for k in range(1, sys.dim + 2):
            term = (s / k) * (jp @ term)
            total += term
        total /= np.linalg.norm(total)
        assert np.max(np.abs(total - ss.coherent_vector(sys, s))) < 1e-10

    def test_scale_overflow_guard(self):
        with pytest.raises(ScaleOverflow):
            ss.coherent_vector(ss.SpinSystem(two_j=60), 1e6)

    def test_self_overlap(self):
        sys = ss.SpinSystem(two_j=9)
        assert ss.coherent_overlap(sys, 0.4 + 0.2j, 0.4 + 0.2j) == pytest.approx(1.0)

    def test_overlap_with_lowest(self):
        sys = ss.SpinSystem(two_j=6)
        s = 0.8 - 0.3j
        expected = (1.0 + abs(s) ** 2) ** (-sys.j)
        assert ss.coherent_overlap(sys, 0.0, s) == pytest.approx(expected)

    @given(se=labels, sm=labels, two_j=st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_overlap_equals_inner_product(self, se, sm, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        ov = ss.coherent_overlap(sys, se, sm)
        dot = np.vdot(ss.coherent_vector(sys, se), ss.coherent_vector(sys, sm))
        assert abs(ov - dot) < 1e-12

    def test_product_state(self):
        sys = ss.SpinSystem(two_j=3)
        vec = ss.product_coherent(sys, ss.CoherentLabel(0.0, 0.0))
        expected = np.zeros(sys.joint_dim)
        expected[0] = 1.0
        assert np.allclose(vec, expected)
        vec2 = ss.product_coherent(sys, ss.CoherentLabel(0.5 + 0.1j, -1.2j))
        assert abs(np.linalg.norm(vec2) - 1.0) < 1e-12

    def test_product_state_is_unentangled(self):
        sys = ss.SpinSystem(two_j=4)
        vec = ss.product_coherent(sys, ss.CoherentLabel(0.7, 0.2 - 0.4j))
        rho = ss.reduced_density(vec, "x", sys.dim)
        assert ss.purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_label_excludes_pole(self):
        with pytest.raises(ValueError):
            ss.CoherentLabel(complex("inf"), 0.0)

    def test_minimum_uncertainty_saturation(self):
        # coherent states saturate the Schrodinger-Robertson bound for (J1, J2)
        for two_j in (1, 4, 11):
            sys = ss.SpinSystem(two_j=two_j)
            j1, j2 = _j1_j2(sys)
            for s in (0.3, 1.0, 0.5 - 1.2j):
                psi = ss.coherent_vector(sys, s)
                ev = lambda op: np.vdot(psi, op @ psi)
                d1 = j1 - ev(j1) * np.eye(sys.dim)
                d2 = j2 - ev(j2) * np.eye(sys.dim)
                gap = (
                    ev(d1 @ d1).real * ev(d2 @ d2).real
                    - 0.25 * abs(ev(j1 @ j2 - j2 @ j1)) ** 2
                    - 0.25 * abs(ev(d1 @ d2 + d2 @ d1)) ** 2
                )
                assert abs(gap) < 1e-9


class TestHtildeFromOperator:
    def test_free_hamiltonian_real_point(self):
        sys = ss.SpinSystem(two_j=5)
        jp, jm, j3 = ss.build_spin_operators(sys)
        ident = np.eye(sys.dim)
        h = np.kron(j3, ident) + np.kron(ident, j3)
        model = ss.htilde_from_operator(sys, h)
        sx, sy = 0.6 + 0.2j, -0.8 + 0.5j
        u = np.array([sx, sy])
        val = model.htilde(u, np.conj(u))
        j = sys.j
        expected = j * (abs(sx) ** 2 - 1) / (abs(sx) ** 2 + 1) + j * (abs(sy) ** 2 - 1) / (
            abs(sy) ** 2 + 1
        )
        assert abs(val - expected) < 1e-10

    def test_phase_coupling_closed_form(self):
        sys = ss.SpinSystem(two_j=4)
        params = ss.PhaseCouplingParams(lam=0.7, sys=sys)
        closed = ss.phase_coupling_model(params)
        generic = ss.htilde_from_operator(sys, closed.operator)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            j = sys.j
            expected = (
                params.lam * sys.hbar * j * j
                * (1 - u[0] * v[0]) / (1 + u[0] * v[0])
                * (1 - u[1] * v[1]) / (1 + u[1] * v[1])
            )
            assert abs(generic.htilde(u, v) - expected) < 1e-10 * max(1.0, abs(expected))

    def test_gradient_matches_finite_differences(self):
        sys = ss.SpinSystem(two_j=3)
        model = ss.exchange_coupling_model(sys, 0.9)
        rng = np.random.default_rng(4)
        step = 1e-5
        for _ in range(5):
            u = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            v = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            grad = model.grad(u, v)
            for idx in range(4):
                du = np.zeros(2, dtype=complex)
                dv = np.zeros(2, dtype=complex)
                if idx < 2:
                    du[idx] = step
                else:
                    dv[idx - 2] = step
                fd = (model.htilde(u + du, v + dv) - model.htilde(u - du, v - dv)) / (2 * step)
                assert abs(fd - grad[idx]) < 1e-6 * max(1.0, abs(grad[idx]))

    def test_reality_on_real_points(self):
        sys = ss.SpinSystem(two_j=6)
        model = ss.exchange_coupling_model(sys, 1.3)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            val = model.htilde(u, np.conj(u))
            assert abs(val.imag) <= 1e-10 * max(1.0, abs(val))

    def test_hessian_symmetry(self):
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 0.8)
        rng = np.random.default_rng(12)
        u = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        h = model.hess(u, v)
        assert np.max(np.abs(h - h.T)) < 1e-8

    def test_rejects_non_hermitian(self):
        sys = ss.SpinSystem(two_j=2)
        bad = np.zeros((sys.joint_dim, sys.joint_dim), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            ss.htilde_from_operator(sys, bad)


def test_operator_is_built_once_on_first_read():
    calls = []

    def make_operator():
        calls.append(1)
        return np.eye(4)

    model = ss.HamiltonianModel(lambda u, v: (0.0, np.zeros(4), np.zeros((4, 4))),
                                make_operator, label="probe")
    assert calls == []
    first = model.operator
    assert model.operator is first
    assert calls == [1]
    assert first.dtype == complex and model.label == "probe"


def test_binom_weights_match_exact():
    from math import comb

    for two_j in (0, 1, 5, 17, 40):
        w = binom_sqrt_weights(two_j)
        exact = np.sqrt([comb(two_j, n) for n in range(two_j + 1)])
        assert np.max(np.abs(w - exact) / exact) < 1e-13


# Terms with powers and complex coefficients; the J3 (x) J+- pair keeps the
# function non-constant at two_j = 1, where J+^2 vanishes and J3^2 is 1/4.
OPERATOR_TERMS = [
    ss.OperatorTerm(0.3 + 0.7j, ("J+", 2), ("J-", 2)),
    ss.OperatorTerm(0.3 - 0.7j, ("J-", 2), ("J+", 2)),
    ss.OperatorTerm(1.1, ("J3", 2), ("I", 0)),
    ss.OperatorTerm(0.4 - 0.2j, ("J3", 1), ("J+", 1)),
    ss.OperatorTerm(0.4 + 0.2j, ("J3", 1), ("J-", 1)),
]

FACTORED_MODELS = {
    "exchange": lambda sys: ss.exchange_coupling_model(sys, 0.9),
    "free_precession": lambda sys: ss.free_precession_model(sys, 0.7),
    "operator_terms": lambda sys: ss.build_operator_model(sys, OPERATOR_TERMS),
}


def _near_real_points(rng, count, radius=0.5, spread=0.05):
    """Non-real (u, v) pairs close to the real submanifold v = conj(u).

    Trajectories live on that submanifold. Far from it (v|H|u) is a sum of
    terms much larger than itself, and neither path holds 1e-12 there.
    """
    for _ in range(count):
        u = radius * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = np.conj(u) + spread * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        yield u, v


def _rel_errors(got, want):
    """Error of each of (h, grad, hess) relative to its largest entry."""
    return [np.max(np.abs(np.asarray(g) - np.asarray(w))) / np.max(np.abs(w))
            for g, w in zip(got, want)]


class TestFactoredDerivs:
    @pytest.mark.parametrize("two_j", [1, 2, 5, 10, 40])
    @pytest.mark.parametrize("name", sorted(FACTORED_MODELS))
    def test_matches_dense_oracle(self, name, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        model = FACTORED_MODELS[name](sys)
        oracle = ss.htilde_from_operator(sys, model.operator)
        rng = np.random.default_rng(two_j)
        for u, v in _near_real_points(rng, 6):
            assert max(_rel_errors(model.derivs(u, v), oracle.derivs(u, v))) <= 1e-12

    def test_views_equal_derivs(self):
        sys = ss.SpinSystem(two_j=5)
        models = [
            FACTORED_MODELS["operator_terms"](sys),
            ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.8, sys=sys)),
            ss.htilde_from_operator(sys, ss.exchange_coupling_model(sys, 1.0).operator),
        ]
        rng = np.random.default_rng(5)
        for model in models:
            for u, v in _near_real_points(rng, 3):
                h, grad, hess = model.derivs(u, v)
                assert model.htilde(u, v) == h
                assert np.array_equal(model.grad(u, v), grad)
                assert np.array_equal(model.hess(u, v), hess)

    def test_empty_term_list_derivs_vanish(self):
        sys = ss.SpinSystem(two_j=3)
        h, grad, hess = ss.build_operator_model(sys, []).derivs(
            np.array([0.4 + 0.1j, -0.3]), np.array([0.4 - 0.1j, -0.3]))
        assert h == 0.0
        assert not np.any(grad) and not np.any(hess)

    def test_large_spin_stays_finite_and_matches_closed_form(self):
        # unnormalized, (v|J3 (x) J3|u) is about (1 + |s|^2)^{4j} ~ 1e430 here
        sys = ss.SpinSystem(two_j=1000)
        j3 = np.diag(np.arange(sys.dim) - sys.j).astype(complex)
        derivs = derivs_from_factors(sys, [(1.0, j3, j3)])
        closed = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
        rng = np.random.default_rng(1000)
        for _ in range(4):
            u = 0.8 * np.exp(2j * np.pi * rng.random(2))
            v = np.conj(u) * (1.0 + 0.01 * (rng.standard_normal(2)
                                            + 1j * rng.standard_normal(2)))
            got = derivs(u, v)
            assert all(np.all(np.isfinite(x)) for x in got)
            assert max(_rel_errors(got, closed.derivs(u, v))) <= 1e-12


def _point_phase_coupling_derivs(lam, sys):
    """The phase-coupling closed forms as written for one point only,
    unpacking u and v entry by entry (numpy scalar arithmetic)."""
    j = sys.j
    amp = lam * sys.hbar * j * j

    def derivs(u, v):
        ux, uy, vx, vy = u[0], u[1], v[0], v[1]
        wx, wy = ux * vx, uy * vy
        gx, gy = (1.0 - wx) / (1.0 + wx), (1.0 - wy) / (1.0 + wy)
        dx, dy = -2.0 / (1.0 + wx) ** 2, -2.0 / (1.0 + wy) ** 2
        d2x, d2y = 4.0 / (1.0 + wx) ** 3, 4.0 / (1.0 + wy) ** 3
        grad = np.array([gy * dx * vx, gx * dy * vy, gy * dx * ux, gx * dy * uy])
        h = np.empty((4, 4), dtype=complex)
        h[0, 0] = gy * d2x * vx * vx
        h[1, 1] = gx * d2y * vy * vy
        h[2, 2] = gy * d2x * ux * ux
        h[3, 3] = gx * d2y * uy * uy
        h[0, 1] = h[1, 0] = dx * vx * dy * vy
        h[0, 2] = h[2, 0] = gy * (d2x * ux * vx + dx)
        h[0, 3] = h[3, 0] = dx * vx * dy * uy
        h[1, 2] = h[2, 1] = dy * vy * dx * ux
        h[1, 3] = h[3, 1] = gx * (d2y * uy * vy + dy)
        h[2, 3] = h[3, 2] = dx * ux * dy * uy
        return amp * gx * gy, amp * grad, amp * h

    return derivs


def _point_factored_derivs(sys, terms):
    """derivs_from_factors as written for one point only: no leading axis."""
    d, two_j = sys.dim, sys.two_j
    coefficients = np.array([c for c, _, _ in terms], dtype=complex)
    factors = np.array([[a for _, a, _ in terms], [b for _, _, b in terms]],
                       dtype=complex).reshape(2, -1, d, d)
    spec = spin._derivative_rows_spec(two_j)

    def derivs(u, v):
        args = np.concatenate([u, v]).astype(complex)
        partners = np.concatenate([v, u]).astype(complex)
        rows = spin._centered_rows(spec, args, partners, two_j)
        kets, bras = rows[:2, None], rows[2:, None]
        tables = bras @ (factors @ kets.transpose(0, 1, 3, 2))
        mixed = two_j / (1.0 + args[:2] * partners[:2]) ** 2
        tables[:, :, 1, 1] -= mixed[:, None] * tables[:, :, 0, 0]
        tx, ty = tables.reshape(2, -1, 9)
        g = (coefficients[:, None] * tx).T @ ty
        return (g[0, 0], g[spin._ROW_STEP, spin._COL_STEP],
                g[spin._HESS_ROWS, spin._HESS_COLS])

    return derivs


def _series_points(rng, n):
    u, v = zip(*_near_real_points(rng, n))
    return np.array(u), np.array(v)


SERIES_MODELS = {
    "phase_coupling": lambda sys: ss.phase_coupling_model(
        ss.PhaseCouplingParams(lam=0.8, sys=sys)),
    "dense_oracle": lambda sys: ss.htilde_from_operator(
        sys, ss.build_operator_model(sys, OPERATOR_TERMS).operator),
    **FACTORED_MODELS,
}


class TestSeriesContract:
    @pytest.mark.parametrize("two_j", [1, 4, 10])
    @pytest.mark.parametrize("name", sorted(SERIES_MODELS))
    def test_series_rows_match_point_calls(self, name, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        model = SERIES_MODELS[name](sys)
        rng = np.random.default_rng(two_j)
        for n in (1, 2, 7):
            u, v = _series_points(rng, n)
            series = model.derivs(u, v)
            assert [x.shape for x in series] == [(n,), (n, 4), (n, 4, 4)]
            for i in range(n):
                point = model.derivs(u[i], v[i])
                if name == "phase_coupling":
                    # numpy rounds complex products of arrays (fused
                    # multiply-add) and of scalars differently
                    assert max(_rel_errors([x[i] for x in series], point)) <= 1e-12
                else:
                    assert all(np.array_equal(x[i], p) for x, p in zip(series, point))

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_single_point_keeps_the_point_arithmetic(self, two_j):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        pairs = [
            (ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.8, sys=sys)).derivs,
             _point_phase_coupling_derivs(0.8, sys)),
            (ss.build_operator_model(sys, OPERATOR_TERMS).derivs,
             _point_factored_derivs(sys, _term_factors(sys, OPERATOR_TERMS))),
        ]
        rng = np.random.default_rng(two_j)
        for derivs, point in pairs:
            for u, v in _near_real_points(rng, 5):
                got, want = derivs(u, v), point(u, v)
                assert type(got[0]) is type(want[0])
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
