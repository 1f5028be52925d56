import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spinsemi as ss
from oracles import (
    assemble_operator,
    build_spin_operators,
    factor_matrix,
    htilde_from_operator,
    monomial_derivs,
    nonzero_entries,
    pc_derivs,
    term_factors,
)
from spinsemi import models
from spinsemi.errors import NotHermitian, ScaleOverflow
from spinsemi.spin import _factor_band, binom_sqrt_weights, derivs_from_terms


def _j1_j2(sys):
    jp, jm, _ = build_spin_operators(sys)
    return (jp + jm) / 2.0, (jp - jm) / 2j


labels = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


@pytest.mark.parametrize("two_j", [10.0, True, 2.5, -1])
def test_spin_system_rejects_non_integer_two_j(two_j):
    with pytest.raises(ValueError):
        ss.SpinSystem(two_j=two_j)


@pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf, 0.0, -1.0, True])
def test_spin_system_rejects_hbar_that_is_not_positive_and_finite(hbar):
    # nan <= 0 is False, so the check must be written to fail on nan
    with pytest.raises(ValueError, match="hbar must be a positive finite number"):
        ss.SpinSystem(two_j=4, hbar=hbar)


def test_spin_system_stores_numpy_integer_as_int():
    sys = ss.SpinSystem(two_j=np.int64(4))
    assert type(sys.two_j) is int and sys.two_j == 4 and sys.dim == 5


class TestSpinOperators:
    def test_spin_half_ladder(self):
        sys = ss.SpinSystem(two_j=1)
        jp, jm, j3 = build_spin_operators(sys)
        assert np.allclose(j3, np.diag([-0.5, 0.5]))
        assert np.allclose(jp, [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(jm, jp.T)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 10, 40])
    def test_commutation_relations(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        jp, jm, j3 = build_spin_operators(sys)
        j1, j2 = _j1_j2(sys)
        assert np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * j3)) < 1e-12
        assert np.max(np.abs(j2 @ j3 - j3 @ j2 - 1j * j1)) < 1e-12
        assert np.max(np.abs(j3 @ j1 - j1 @ j3 - 1j * j2)) < 1e-12

    def test_raising_coefficient(self):
        # J+ |-j> has coefficient sqrt(2j) on |-j+1>
        sys = ss.SpinSystem(two_j=4)
        jp, _, _ = build_spin_operators(sys)
        lowest = np.zeros(sys.dim)
        lowest[0] = 1.0
        out = jp @ lowest
        assert out[1] == pytest.approx(np.sqrt(4.0))
        assert np.allclose(np.delete(out, 1), 0.0)


class TestFactorBands:
    @pytest.mark.parametrize("two_j", [0, 1, 2, 5, 10, 40, 200])
    def test_bands_match_dense_factor_matrices(self, two_j):
        ops = build_spin_operators(ss.SpinSystem(two_j=two_j))
        for kind in ("J+", "J-", "J3", "I"):
            for power in range(5):
                offset, values = _factor_band(two_j, kind, power)
                dense = factor_matrix(ops, kind, power)
                step = 0 if kind in ("J3", "I") or power == 0 else power
                assert offset == (-step if kind == "J-" else step)
                diagonal = np.diagonal(dense, -offset)
                # the band holds every entry of the matrix, all real
                assert values.dtype == float and not np.any(diagonal.imag)
                assert np.count_nonzero(dense) == np.count_nonzero(diagonal)
                if kind in ("J+", "J-") and power > two_j:
                    assert values.size == 0 and not np.any(dense)
                elif kind in ("J3", "I") or power <= 2:
                    assert np.array_equal(values, diagonal.real), (kind, power)
                else:
                    # J+^p multiplies its ladder coefficients in another order
                    rel = np.abs(values - diagonal.real) / np.abs(diagonal.real)
                    assert np.max(rel) <= 1e-15, (kind, power)


# a term that reaches J3's zero at m = 0 for integer j
J3_CUBED_TERMS = [ss.OperatorTerm(0.3 + 0.7j, ("J3", 3), ("J+", 2)),
                  ss.OperatorTerm(0.3 - 0.7j, ("J3", 3), ("J-", 2))]


@pytest.mark.parametrize("two_j", [1, 2, 5, 10, 40])
def test_term_entries_match_nonzero_entries_of_factor_matrices(two_j):
    sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
    built_in = [ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.9, sys=sys)),
                ss.exchange_coupling_model(sys, -0.8), ss.free_precession_model(sys, 1.1)]
    term_lists = [model.terms for model in built_in]
    if two_j % 2 == 0:
        term_lists.append(J3_CUBED_TERMS)
    # no position is reached by more than two terms of a list here
    for terms in term_lists:
        keys, values = models._term_entries(sys, terms)
        want_keys, want_values = nonzero_entries(sys, terms)
        assert keys.dtype == want_keys.dtype and np.array_equal(keys, want_keys)
        assert np.array_equal(values, want_values)
    # J3's zero at m = 0 is dropped: no entry has the x index nx = j
    if two_j % 2 == 0:
        reached = ss.build_operator_model(sys, J3_CUBED_TERMS).entries[0]
        assert not np.any(reached // sys.joint_dim // sys.dim == two_j // 2)


def test_term_entries_sum_in_term_order():
    # three or seven products on each reached position, of magnitudes 1e-8
    # to 1e8: every entry is their term-by-term sum, to the bit
    sys = ss.SpinSystem(two_j=4)
    rng = np.random.default_rng(0)
    for n in [3] * 200 + [7] * 200:
        coefficients = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        terms = [ss.OperatorTerm(float(c), ("J3", 1), ("I", 0)) for c in coefficients]
        keys, values = models._term_entries(sys, terms)
        want_keys, want_values = nonzero_entries(sys, terms)
        assert keys.tobytes() == want_keys.tobytes()
        assert values.tobytes() == want_values.tobytes()


def test_oracles_import_nothing_they_check():
    # the oracles must not share the paths they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names
    assert not names & {"_term_entries", "_entries_at", "_factor_band", "derivs_from_terms",
                        "_factor_polynomial", "_polynomial_partials", "_side_partials",
                        "adaptive_rk", "_stage", "_continuous_extension", "_first_step",
                        "aux_determinants", "_minor", "purity_sc_evaluate",
                        "integrate_trajectory", "_hamilton_at", "hamilton_equations",
                        "build_operator_model", "phase_coupling_model"}


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
        jp, _, _ = build_spin_operators(sys)
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
        jp, jm, j3 = build_spin_operators(sys)
        ident = np.eye(sys.dim)
        h = np.kron(j3, ident) + np.kron(ident, j3)
        derivs = htilde_from_operator(sys, h)
        sx, sy = 0.6 + 0.2j, -0.8 + 0.5j
        u = np.array([sx, sy])
        val = derivs(u, np.conj(u))[0]
        j = sys.j
        expected = j * (abs(sx) ** 2 - 1) / (abs(sx) ** 2 + 1) + j * (abs(sy) ** 2 - 1) / (
            abs(sy) ** 2 + 1
        )
        assert abs(val - expected) < 1e-10

    def test_phase_coupling_closed_form(self):
        sys = ss.SpinSystem(two_j=4)
        params = ss.PhaseCouplingParams(lam=0.7, sys=sys)
        closed = ss.phase_coupling_model(params)
        generic = htilde_from_operator(sys, assemble_operator(sys, closed.terms))
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
            assert abs(generic(u, v)[0] - expected) < 1e-10 * max(1.0, abs(expected))

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
            htilde_from_operator(sys, bad)


def test_operator_is_built_once_on_first_read(monkeypatch):
    # a term model builds neither its dense operator nor its sectors at
    # build time; the operator is scattered from the entries on its first
    # read and kept
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(models, "_scatter", counting("operator", models._scatter))
    monkeypatch.setattr(models, "connected_sectors",
                        counting("sectors", models.connected_sectors))
    sys = ss.SpinSystem(two_j=1)
    for build in (lambda: ss.exchange_coupling_model(sys, 0.8),
                  lambda: ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.9, sys=sys))):
        calls.clear()
        model = build()
        assert calls == []
        first = model.operator
        assert model.operator is first
        assert calls == ["operator"]
        assert first.dtype == complex and first.shape == (sys.joint_dim, sys.joint_dim)
        assert np.array_equal(first, assemble_operator(sys, model.terms))
        model.sectors
        assert calls == ["operator", "sectors"]


def _dense_derivs_model(model):
    """model with its derivs replaced by the dense oracle of its operator,
    whose htilde is its first entry."""
    dense = htilde_from_operator(model.sys, assemble_operator(model.sys, model.terms))
    dense.htilde = lambda u, v: dense(u, v)[0]
    model.derivs = dense
    return model


def test_binom_weights_match_exact():
    from math import comb

    for two_j in (0, 1, 5, 17, 40):
        w = binom_sqrt_weights(two_j)
        exact = np.sqrt([comb(two_j, n) for n in range(two_j + 1)])
        assert np.max(np.abs(w - exact) / exact) < 1e-13


# Terms with powers and complex coefficients; the J3 (x) J+- pair keeps the
# function non-constant at two_j = 1, where J+^2 and J-^3 vanish (powers
# above 2j) and J3^2 is 1/4.
OPERATOR_TERMS = [
    ss.OperatorTerm(0.3 + 0.7j, ("J+", 2), ("J-", 2)),
    ss.OperatorTerm(0.3 - 0.7j, ("J-", 2), ("J+", 2)),
    ss.OperatorTerm(1.1, ("J3", 2), ("I", 0)),
    ss.OperatorTerm(0.4 - 0.2j, ("J3", 1), ("J+", 1)),
    ss.OperatorTerm(0.4 + 0.2j, ("J3", 1), ("J-", 1)),
    ss.OperatorTerm(-0.6, ("I", 0), ("J3", 3)),
    ss.OperatorTerm(0.2 - 0.5j, ("J-", 3), ("J3", 1)),
    ss.OperatorTerm(0.2 + 0.5j, ("J+", 3), ("J3", 1)),
]

# Repeated chart kinds on one side: x holds J3^2, J3 and a constant, y holds
# J+^2 and J+ (and, for Hermiticity, J-^2 and J-), so several slots of one
# spin share a chart; a polynomial slot comes first, so a slot that took
# the one before it instead of its own chart would show
REPEATED_KIND_TERMS = [
    ss.OperatorTerm(0.3 + 0.6j, ("J3", 2), ("J+", 2)),
    ss.OperatorTerm(0.3 - 0.6j, ("J3", 2), ("J-", 2)),
    ss.OperatorTerm(0.4 - 0.2j, ("J3", 1), ("J+", 1)),
    ss.OperatorTerm(0.4 + 0.2j, ("J3", 1), ("J-", 1)),
    ss.OperatorTerm(-0.7 + 0.1j, ("I", 0), ("J+", 1)),
    ss.OperatorTerm(-0.7 - 0.1j, ("I", 0), ("J-", 1)),
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
    @pytest.mark.parametrize("two_j", [1, 2, 4, 5, 10, 40])
    @pytest.mark.parametrize("name", sorted(FACTORED_MODELS))
    def test_matches_dense_oracle(self, name, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        model = FACTORED_MODELS[name](sys)
        oracle = htilde_from_operator(sys, assemble_operator(sys, model.terms))
        rng = np.random.default_rng(two_j)
        for u, v in _near_real_points(rng, 6):
            assert max(_rel_errors(model.derivs(u, v), oracle(u, v))) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 5, 10])
    def test_repeated_chart_kinds_match_dense_oracle(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        model = ss.build_operator_model(sys, REPEATED_KIND_TERMS)
        oracle = htilde_from_operator(sys, assemble_operator(sys, model.terms))
        rng = np.random.default_rng(two_j)
        for u, v in _near_real_points(rng, 6):
            entries = model.point_derivs(*u.tolist(), *v.tolist())
            got = entries[0], entries[1:5], np.reshape(entries[5:], (4, 4))
            assert max(_rel_errors(got, oracle(u, v))) <= 1e-12
            assert np.array(model.htilde(u, v)).tobytes() == np.array(entries[0]).tobytes()

    def test_views_equal_derivs(self):
        sys = ss.SpinSystem(two_j=5)
        models = [
            FACTORED_MODELS["operator_terms"](sys),
            ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.8, sys=sys)),
            _dense_derivs_model(ss.exchange_coupling_model(sys, 1.0)),
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
        derivs = derivs_from_terms(sys, [ss.OperatorTerm(1.0, ("J3", 1), ("J3", 1))])
        closed = pc_derivs(ss.PhaseCouplingParams(lam=1.0, sys=sys))
        rng = np.random.default_rng(1000)
        for _ in range(4):
            u = 0.8 * np.exp(2j * np.pi * rng.random(2))
            v = np.conj(u) * (1.0 + 0.01 * (rng.standard_normal(2)
                                            + 1j * rng.standard_normal(2)))
            got = derivs(u, v)
            assert all(np.all(np.isfinite(x)) for x in got)
            assert max(_rel_errors(got, closed(u, v))) <= 1e-12


def _centered_rows(spec, a, b, two_j):
    """Derivative rows in a of the normalized kets |a) / (1 + a b)^j.

    a and b are 1-d arrays of arguments and their partners. Row r is
    d^r/da^r of the ket together with its share (1 + a b)^-j of the
    normalization; its component n is binom(2j,n)^{1/2} a^(n-r) D_r(n),
    with D_r a polynomial in the distance n - <n> from the mean
    <n> = 2j a b / (1 + a b). Writing the rows in n - <n> keeps the large
    terms that cancel near the mean out of the sums over n, and the
    division keeps two_j in the hundreds inside double range.
    """
    coef, powers = spec
    n = np.arange(coef.shape[1])
    p = 1.0 + a * b
    lg = two_j * b / p              # d/da of ln (1 + a b)^{2j}
    curv = two_j * b * b / (p * p)  # minus its second derivative
    delta = n - (lg * a)[:, None]
    poly = np.empty((a.size,) + coef.shape, dtype=a.dtype)
    poly[:, 0] = 1.0
    poly[:, 1] = delta
    poly[:, 2] = delta * delta - n + (curv * a * a)[:, None]
    # components n < r, where the power of a is clipped at 0
    poly[:, 1, 0] = -lg
    poly[:, 2, 0] = lg * lg + curv
    if n.size > 1:
        poly[:, 2, 1] = (lg * lg + curv) * a - 2.0 * lg
    rows = coef[0] * a[:, None, None] ** powers * poly
    return rows / (p ** (0.5 * two_j))[:, None, None]


def _point_factored_derivs(sys, terms):
    """The factored path: derivs of sum_t c_t A_t (x) B_t at one point from
    the d x d factor matrices, contracted with (2j+1)-long centred
    derivative rows. It never forms the joint matrix, so it is the oracle of
    derivs_from_terms at spins the dense path cannot reach. It runs in
    extended precision: in doubles its own rounding grows with j, to 1e-10
    of the Hessian at two_j = 1000 near the real submanifold.

    terms is a sequence of (c_t, A_t, B_t), as oracles.term_factors gives.
    """
    d, two_j = sys.dim, sys.two_j
    coefficients = np.array([c for c, _, _ in terms], dtype=np.clongdouble)
    factors = np.array([[a for _, a, _ in terms], [b for _, _, b in terms]],
                       dtype=np.clongdouble).reshape(2, -1, d, d)
    n = np.arange(d)
    ratios = (two_j - n[:-1]).astype(np.longdouble) / (n[:-1] + 1)
    weights = np.cumprod(np.sqrt(np.concatenate([[np.longdouble(1.0)], ratios])))
    spec = (np.array([weights, weights * n, weights * n * (n - 1)]),
            np.maximum(n - np.arange(3)[:, None], 0))

    def derivs(u, v):
        args = np.concatenate([u, v]).astype(np.clongdouble)
        partners = np.concatenate([v, u]).astype(np.clongdouble)
        rows = _centered_rows(spec, args, partners, two_j)
        kets, bras = rows[:2, None], rows[2:, None]
        tables = bras @ (factors @ kets.transpose(0, 1, 3, 2))
        # the mixed partial also differentiates the bra's normalization in u
        mixed = two_j / (1.0 + args[:2] * partners[:2]) ** 2
        tables[:, :, 1, 1] -= mixed[:, None] * tables[:, :, 0, 0]
        tx, ty = tables.reshape(2, -1, 9)
        g = ((coefficients[:, None] * tx).T @ ty).astype(complex)
        return (g[0, 0], g[oracles._ROW_STEP, oracles._COL_STEP],
                g[oracles._HESS_ROWS, oracles._HESS_COLS])

    return derivs


def _series_points(rng, n):
    u, v = zip(*_near_real_points(rng, n))
    return np.array(u), np.array(v)


SERIES_MODELS = {
    "phase_coupling": lambda sys: ss.phase_coupling_model(
        ss.PhaseCouplingParams(lam=0.8, sys=sys)),
    "dense_oracle": lambda sys: _dense_derivs_model(
        ss.build_operator_model(sys, OPERATOR_TERMS)),
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
                if name == "dense_oracle":
                    assert all(np.array_equal(x[i], p) for x, p in zip(series, point))
                else:
                    # numpy's complex products of arrays (fused
                    # multiply-add) and Python's of scalars round differently
                    assert max(_rel_errors([x[i] for x in series], point)) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_single_point_keeps_the_point_arithmetic(self, two_j):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        terms = ss.build_operator_model(sys, OPERATOR_TERMS).derivs
        factored = _point_factored_derivs(sys, term_factors(sys, OPERATOR_TERMS))
        rng = np.random.default_rng(two_j)
        for u, v in _near_real_points(rng, 5):
            # the symbols' arithmetic differs from the factored path's
            got, want = terms(u, v), factored(u, v)
            assert type(got[0]) is type(want[0])
            assert max(_rel_errors(got, want)) <= 1e-12


def _explicit_symbol(sys, kind, power, u, v):
    """(v|A|u) / (1 + uv)^{2j} for A = kind^power as a (2j+1)-term sum."""
    weights = binom_sqrt_weights(sys.two_j)
    n = np.arange(sys.dim)
    bra, ket = weights * v ** n, weights * u ** n
    matrix = factor_matrix(build_spin_operators(sys), kind, power)
    return bra @ matrix @ ket / (1.0 + u * v) ** sys.two_j


class TestSymbols:
    FACTORS = ([("J3", p) for p in range(6)] + [("J+", a) for a in range(4)]
               + [("J-", a) for a in range(4)] + [("I", 0)])

    @pytest.mark.parametrize("two_j", [1, 2, 6, 11])
    def test_factor_symbols_match_explicit_sums(self, two_j):
        # |uv| <= 0.25 keeps the explicit sums well conditioned, with v
        # independent of u, off the real submanifold v = conj(u)
        sys = ss.SpinSystem(two_j=two_j)
        rng = np.random.default_rng(two_j)
        for kind, power in self.FACTORS:
            derivs = derivs_from_terms(sys, [ss.OperatorTerm(1.0, (kind, power), ("I", 0))])
            for _ in range(4):
                u, v = 0.5 * rng.uniform(0.1, 1.0, 2) * np.exp(2j * np.pi * rng.random(2))
                h = derivs(np.array([u, 0.3]), np.array([v, -0.2j]))[0]
                want = _explicit_symbol(sys, kind, power, u, v)
                if kind != "J3" and power > two_j:
                    assert h == 0.0 and abs(want) == 0.0
                else:
                    assert abs(h - want) <= 1e-12 * abs(want), (kind, power)

    @pytest.mark.parametrize("two_j", [1, 10, 40, 1000])
    def test_j3_j3_matches_phase_coupling_off_the_submanifold(self, two_j):
        # the factored and dense paths lose all accuracy at such points
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        derivs = derivs_from_terms(sys, [ss.OperatorTerm(1.3 * sys.hbar, ("J3", 1), ("J3", 1))])
        closed = pc_derivs(ss.PhaseCouplingParams(lam=1.3, sys=sys))
        rng = np.random.default_rng(two_j)
        for _ in range(10):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert max(_rel_errors(derivs(u, v), closed(u, v))) <= 1e-12
        # a series as long as dense_sampling's energy samples, each row
        # against its own largest entry of h, grad and hess
        n = 4000
        u, v = rng.standard_normal((2, n, 2)) + 1j * rng.standard_normal((2, n, 2))
        got, want = (np.hstack([x.reshape(n, -1) for x in xs]) for xs in (derivs(u, v), closed(u, v)))
        scale = np.max(np.abs(want), axis=1)
        assert np.max(np.max(np.abs(got - want), axis=1) / scale) <= 1e-12

    def test_exchange_at_large_spin_matches_factored_oracle(self):
        # a joint matrix of this spin would take 16 TB
        sys = ss.SpinSystem(two_j=1000)
        c = 0.4 - 0.3j
        terms = [ss.OperatorTerm(c, ("J+", 1), ("J-", 1)),
                 ss.OperatorTerm(np.conj(c), ("J-", 1), ("J+", 1))]
        derivs = derivs_from_terms(sys, terms)
        factored = _point_factored_derivs(sys, term_factors(sys, terms))
        rng = np.random.default_rng(1000)
        for u, v in _near_real_points(rng, 3):
            assert max(_rel_errors(derivs(u, v), factored(u, v))) <= 1e-12


def _points(rng, n, on_submanifold):
    """(n, 2) arrays u and v with |u|, |v| <= 0.6: v = conj(u) on the real
    submanifold, an independent draw off it."""
    u = 0.6 * rng.uniform(0.05, 1.0, (n, 2)) * np.exp(2j * np.pi * rng.random((n, 2)))
    if on_submanifold:
        return u, np.conj(u)
    return u, 0.6 * rng.uniform(0.05, 1.0, (n, 2)) * np.exp(2j * np.pi * rng.random((n, 2)))


class TestChainRuleKernel:
    """derivs_from_terms against the monomial-table oracle it replaced."""

    FACTORS = [(kind, power) for kind in ("J+", "J-", "J3", "I") for power in range(6)]

    @staticmethod
    def _terms(factor):
        # the factor on each side, beside a chart factor and beside I, after
        # a term that does not vanish
        return [ss.OperatorTerm(0.5, ("J-", 1), ("J3", 1)),
                ss.OperatorTerm(0.7 - 0.2j, factor, ("J+", 1)),
                ss.OperatorTerm(-0.4 + 0.1j, ("J3", 2), factor),
                ss.OperatorTerm(0.3, factor, ("I", 0)),
                ss.OperatorTerm(-1.2j, ("I", 0), factor)]

    @pytest.mark.parametrize("two_j", [1, 2, 6, 11, 40, 1000])
    @pytest.mark.parametrize("on_submanifold", [True, False])
    def test_every_factor_matches_the_monomial_oracle(self, two_j, on_submanifold):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        rng = np.random.default_rng(two_j)
        for factor in self.FACTORS:
            terms = self._terms(factor)
            derivs, oracle = derivs_from_terms(sys, terms), monomial_derivs(sys, terms)
            u, v = _points(rng, 7, on_submanifold)
            assert max(_rel_errors(derivs(u, v), oracle(u, v))) <= 1e-12, factor
            for a, b in zip(u[:3], v[:3]):
                got, want = derivs(a, b), oracle(a, b)
                assert type(got[0]) is np.complex128
                assert max(_rel_errors(got, want)) <= 1e-12, factor

    @pytest.mark.parametrize("n", [1, 7, 4000])
    @pytest.mark.parametrize("two_j", [6, 1000])
    def test_series_match_the_monomial_oracle(self, n, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        derivs = derivs_from_terms(sys, OPERATOR_TERMS)
        oracle = monomial_derivs(sys, OPERATOR_TERMS)
        rng = np.random.default_rng(n)
        for on_submanifold in (True, False):
            u, v = _points(rng, n, on_submanifold)
            got = derivs(u, v)
            assert [x.shape for x in got] == [(n,), (n, 4), (n, 4, 4)]
            assert all(x.dtype == complex for x in got)
            # each row against its own largest entry of h, grad and hess
            got, want = (np.hstack([x.reshape(n, -1) for x in xs]) for xs in (got, oracle(u, v)))
            scale = np.max(np.abs(want), axis=1)
            assert np.max(np.max(np.abs(got - want), axis=1) / scale) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 6])
    def test_vanishing_terms_give_exact_zeros(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        above = [ss.OperatorTerm(1.0, ("J+", two_j + 1), ("J3", 1)),
                 ss.OperatorTerm(0.5j, ("J3", 2), ("J-", two_j + 2)),
                 ss.OperatorTerm(2.0, ("J-", two_j + 1), ("I", 0))]
        rng = np.random.default_rng(two_j)
        for terms in ([], above):
            derivs = derivs_from_terms(sys, terms)
            u, v = _points(rng, 5, False)
            for got, shapes in ((derivs(u, v), [(5,), (5, 4), (5, 4, 4)]),
                                (derivs(u[0], v[0]), [(), (4,), (4, 4)])):
                assert [x.shape for x in got] == shapes
                assert all(x.dtype == complex and not np.any(x) for x in got)

    def test_point_types_give_identical_results(self):
        sys = ss.SpinSystem(two_j=5)
        derivs = derivs_from_terms(sys, OPERATOR_TERMS)
        u, v = np.array([0.3 + 0.1j, -0.2]), np.array([0.3 - 0.1j, -0.2 + 0.05j])
        want = derivs(u, v)
        assert type(want[0]) is np.complex128
        for convert in (list, tuple, lambda a: [complex(x) for x in a]):
            got = derivs(convert(u), convert(v))
            assert type(got[0]) is np.complex128
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
