import json
import tracemalloc

import numpy as np
import pytest

import spinsemi as ss
from oracles import (
    add_at_entries,
    assemble_operator,
    build_spin_operators,
    htilde_from_operator,
    pc_derivs,
    pc_purity_sc_printed,
    pc_slin_short_time,
    pc_stability,
    pc_trajectory,
)
from spinsemi import models
from spinsemi.config import MODELS, build_model, parse_config
from spinsemi.errors import NotHermitian, ValidationError
from spinsemi.models import _binomial_probabilities
from spinsemi.numerics import require_hermitian
from spinsemi.spin import derivs_from_terms

CFG = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


def _params(two_j=4, lam=1.0, hbar=1.0):
    sys = ss.SpinSystem(two_j=two_j, hbar=hbar)
    return sys, ss.PhaseCouplingParams(lam=lam, sys=sys)


def brute_force_pc_purity(two_j, lam, sx, sy, t):
    """Direct four-index evaluation of the binomial purity sum."""
    from math import comb

    j = two_j / 2.0
    norm4 = ((1 + abs(sx) ** 2) ** j * (1 + abs(sy) ** 2) ** j) ** 4
    total = 0.0 + 0.0j
    for nx in range(two_j + 1):
        for nxp in range(two_j + 1):
            for ny in range(two_j + 1):
                for nyp in range(two_j + 1):
                    w = comb(two_j, nx) * comb(two_j, nxp) * comb(two_j, ny) * comb(two_j, nyp)
                    total += (
                        w
                        * abs(sx) ** (2 * (nx + nxp))
                        * abs(sy) ** (2 * (ny + nyp))
                        * np.exp(-1j * lam * t * (nx - nxp) * (ny - nyp))
                    )
    return (total / norm4).real


class TestPhaseCouplingModel:
    def test_equator_energy_vanishes(self):
        sys, params = _params()
        model = ss.phase_coupling_model(params)
        u = np.array([np.exp(0.3j), np.exp(-1.1j)])  # |s| = 1 on both
        assert abs(model.htilde(u, np.conj(u))) < 1e-12

    def test_poles_give_maximal_energy(self):
        sys, params = _params(two_j=6, lam=0.7)
        model = ss.phase_coupling_model(params)
        zero = np.zeros(2, dtype=complex)
        expected = params.lam * sys.hbar * sys.j ** 2
        assert model.htilde(zero, zero) == pytest.approx(expected)

    def test_closed_form_equals_generic_path(self):
        sys, params = _params(two_j=3, lam=1.4)
        closed = pc_derivs(params)
        generic = htilde_from_operator(
            sys, assemble_operator(sys, ss.phase_coupling_model(params).terms))
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h, grad, hess = generic(u, v)
            closed_h, closed_grad, closed_hess = closed(u, v)
            assert abs(closed_h - h) < 1e-10
            assert np.max(np.abs(closed_grad - grad)) < 1e-10
            assert np.max(np.abs(closed_hess - hess)) < 1e-10

    def test_large_spin_builds_no_joint_matrix(self):
        # the (2j+1)^2 joint matrix at two_j=1000 would take 16 TB
        sys, params = _params(two_j=1000, lam=0.7)
        model = ss.phase_coupling_model(params)
        zero = np.zeros(2, dtype=complex)
        assert model.htilde(zero, zero) == pytest.approx(params.lam * sys.j ** 2)


class TestPcTrajectory:
    def test_static_when_uncoupled(self):
        sys, params = _params(lam=0.0)
        traj = pc_trajectory(params, ss.CoherentLabel(0.4, 0.8j), 1.0)
        assert np.max(np.abs(traj.ys - traj.ys[0])) < 1e-14

    def test_real_data_preserves_moduli(self):
        sys, params = _params()
        traj = pc_trajectory(params, ss.CoherentLabel(0.7 + 0.2j, -0.5), 2.0)
        mods = np.abs(traj.ys[:, :2])
        assert np.max(np.abs(mods - mods[0])) < 1e-12

    def test_products_exactly_conserved(self):
        sys, params = _params()
        traj = pc_trajectory(params, ss.CoherentLabel(0.3 - 0.6j, 1.1), 1.5)
        prods = traj.ys[:, :2] * traj.ys[:, 2:]
        assert np.max(np.abs(prods - prods[0])) < 1e-13

    @pytest.mark.parametrize("two_j", [1, 10, 1000])
    def test_energy_is_the_closed_form_without_a_model_build(self, monkeypatch, two_j):
        sys, params = _params(two_j=two_j, lam=0.7, hbar=0.6)
        s0 = ss.CoherentLabel(0.3 - 0.6j, 1.1)
        u0 = np.array([s0.sx, s0.sy])
        want = pc_derivs(params)(u0, np.conj(u0))[0]

        def fail(*args, **kwargs):
            raise AssertionError("term entries built for a closed-form trajectory")
        monkeypatch.setattr(models, "_term_entries", fail)
        traj = pc_trajectory(params, s0, 1.5)
        assert traj.energy.shape == (129,)
        assert all(e == want for e in traj.energy)


class TestPcStability:
    def test_zero_time_is_identity(self):
        sys, params = _params()
        m = pc_stability(params, ss.CoherentLabel(0.4, 0.9j), 0.0)
        assert np.allclose(m, np.eye(4))

    def test_unit_determinant_for_real_data(self):
        sys, params = _params(two_j=7, lam=1.2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            s0 = ss.CoherentLabel(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            )
            m = pc_stability(params, s0, float(rng.uniform(0.0, 1.0)))
            assert abs(np.linalg.det(m) - 1.0) < 1e-9

    def test_matches_variational_integration(self):
        sys, params = _params(two_j=6)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.7 + 0.3j, -0.4 + 0.9j)
        t_final = 0.3
        traj = ss.integrate_trajectory(model, s0, t_final, CFG)
        m_num = ss.integrate_stability(traj)[-1]
        m_ref = pc_stability(params, s0, t_final)
        assert np.max(np.abs(m_num - m_ref)) < 1e-8

    def test_regular_at_equator(self):
        # |s| = 1 makes the printed factored entries 0/0; the product form
        # must stay finite and match the variational result
        sys, params = _params(two_j=4)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(1.0, 1.0)
        t_final = 0.2
        m_ref = pc_stability(params, s0, t_final)
        assert np.all(np.isfinite(m_ref.view(float)))
        traj = ss.integrate_trajectory(model, s0, t_final, CFG)
        m_num = ss.integrate_stability(traj)[-1]
        assert np.max(np.abs(m_num - m_ref)) < 1e-8


class TestPcPurity:
    def test_zero_coupling_time(self):
        sys, params = _params()
        assert ss.pc_purity_sc(params, ss.CoherentLabel(0.5, 0.5), 0.0) == 1.0

    def test_spin_half_value(self):
        sys, params = _params(two_j=1, lam=0.9)
        for t in (0.3, 1.0):
            expected = (1 + (0.9 * t) ** 2 / 4) ** -0.5
            assert ss.pc_purity_sc(params, ss.CoherentLabel(1.0, 1.0), t) == pytest.approx(
                expected, rel=1e-12
            )

    def test_printed_form_matches_regular_form(self):
        sys, params = _params(two_j=5, lam=1.1)
        for s0 in (ss.CoherentLabel(0.5, 0.7j), ss.CoherentLabel(0.3 - 0.4j, 1.8)):
            for t in (0.1, 0.4):
                raw = pc_purity_sc_printed(params, s0, t)
                reg = ss.pc_purity_sc(params, s0, t)
                assert abs(raw - reg) < 1e-10

    def test_matches_pipeline(self):
        sys, params = _params(two_j=6, lam=0.8)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.6 - 0.1j, 0.4 + 0.7j)
        t_final = 0.25
        traj = ss.integrate_trajectory(model, s0, t_final, CFG)
        assert abs(ss.purity_sc(traj) - ss.pc_purity_sc(params, s0, t_final)) < 1e-9


class TestPcExactPurity:
    def test_initial_value(self):
        sys, params = _params()
        assert ss.pc_exact_purity(params, ss.CoherentLabel(0.4, 1.2), 0.0) == pytest.approx(1.0)

    def test_spin_half_closed_form(self):
        sys, params = _params(two_j=1, lam=1.0)
        for t in (0.5, 1.7, 3.0):
            got = ss.pc_exact_purity(params, ss.CoherentLabel(1.0, 1.0), t)
            assert got == pytest.approx((3 + np.cos(t)) / 4, abs=1e-12)

    @pytest.mark.parametrize("two_j", [1, 3, 6])
    def test_matches_brute_force_sum(self, two_j):
        sys, params = _params(two_j=two_j, lam=0.9)
        sx, sy = 0.7, 1.3
        for t in (0.4, 1.1):
            fast = ss.pc_exact_purity(params, ss.CoherentLabel(sx, sy), t)
            slow = brute_force_pc_purity(two_j, 0.9, sx, sy, t)
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("two_j", [1, 4, 10])
    def test_matches_quantum_engine(self, two_j):
        sys, params = _params(two_j=two_j, lam=1.0)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.8, 0.5 - 0.3j)
        times = np.linspace(0.0, 1.5, 7)
        engine = ss.exact_purity_curve(sys, model, s0, times)
        analytic = np.array([ss.pc_exact_purity(params, s0, t) for t in times])
        assert np.max(np.abs(engine - analytic) / analytic) < 1e-9

    def test_exchange_symmetry_exact(self):
        sys, params = _params(two_j=5)
        a = ss.pc_exact_purity(params, ss.CoherentLabel(0.4, 1.1), 0.8)
        b = ss.pc_exact_purity(params, ss.CoherentLabel(1.1, 0.4), 0.8)
        assert a == pytest.approx(b, rel=1e-14)

    def test_periodic_in_coupling_angle(self):
        sys, params = _params(two_j=3, lam=1.0)
        s0 = ss.CoherentLabel(0.6, 0.9)
        for t in (0.3, 1.2):
            assert ss.pc_exact_purity(params, s0, t) == pytest.approx(
                ss.pc_exact_purity(params, s0, t + 2 * np.pi), abs=1e-10
            )


def phase_matrix_pc_purity(params, s0, t_final):
    """Oracle of pc_exact_purity: the autocorrelation form summed over every
    x pair (n, n'), through the (2j+1) x (2j+1)^2 phase matrix."""
    two_j = params.sys.two_j
    wx = _binomial_probabilities(two_j, abs(s0.sx) ** 2)
    wy = _binomial_probabilities(two_j, abs(s0.sy) ** 2)
    n = np.arange(two_j + 1)
    deltas = (n[:, None] - n[None, :]).ravel()
    phi = wy @ np.exp(-1j * params.lam * t_final * np.outer(n, deltas))
    return float(np.outer(wx, wx).ravel() @ (np.abs(phi) ** 2))


@pytest.mark.parametrize("two_j", [1, 10, 40, 160])
def test_pc_exact_purity_matches_phase_matrix_sum(two_j):
    sys, params = _params(two_j=two_j, lam=0.9, hbar=0.7)
    for s0 in (ss.CoherentLabel(0.7, 1.3j), ss.CoherentLabel(0.4 - 0.2j, 0.9)):
        for t in (0.0, 0.03, 0.4, 2.0):
            want = phase_matrix_pc_purity(params, s0, t)
            assert abs(ss.pc_exact_purity(params, s0, t) - want) <= 1e-12 * want


class TestShortTimeLaw:
    def test_pole_state_never_entangles(self):
        sys, params = _params()
        assert pc_slin_short_time(params, ss.CoherentLabel(0.0, 0.7), 1.0) == 0.0

    def test_spin_half_coefficient(self):
        sys, params = _params(two_j=1, lam=1.0)
        t = 0.37
        assert pc_slin_short_time(params, ss.CoherentLabel(1.0, 1.0), t) == pytest.approx(
            t ** 2 / 8
        )

    def test_large_spin_limit(self):
        zx, zy = 1.0, 0.5 + 0.5j
        lam_t = 0.31
        target = 2 * abs(zx) ** 2 * abs(zy) ** 2 * lam_t ** 2
        vals = []
        for two_j in (16, 64, 256):
            sys, params = _params(two_j=two_j, lam=1.0)
            s0 = ss.CoherentLabel(zx / np.sqrt(two_j), zy / np.sqrt(two_j))
            vals.append(pc_slin_short_time(params, s0, lam_t))
        errs = [abs(v - target) for v in vals]
        # first-order contraction: error falls ~4x per 4x in j
        assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0
        assert errs[2] < 0.02 * target

    def test_end_to_end_short_time_discrepancy(self):
        # semiclassical vs exact linear entropy stays within 2% relative
        # for lam*j*T = 0.05 across spins
        lam = 1.0
        for two_j in (1, 2, 5, 10, 20):
            sys, params = _params(two_j=two_j, lam=lam)
            for s0 in (
                ss.CoherentLabel(1.0, 1.0),
                ss.CoherentLabel(0.5, 0.8j),
                ss.CoherentLabel(0.3, 2.0),
            ):
                t = 0.05 / (lam * sys.j)
                slin_sc = 1 - ss.pc_purity_sc(params, s0, t)
                slin_ex = 1 - ss.pc_exact_purity(params, s0, t)
                assert abs(slin_sc - slin_ex) / slin_ex < 0.02


# one parameter set per built-in model: a model added to config.MODELS
# without one here fails test_every_model_runs_the_term_path
MODEL_PARAMS = {
    "phase_coupling": {"lambda": 0.9},
    "free_precession": {"b3": 1.1},
    "exchange_coupling": {"lambda": -0.8},
    "operator_terms": {"terms": [ss.OperatorTerm(0.4 - 0.2j, ("J3", 2), ("J+", 1)),
                                 ss.OperatorTerm(0.4 + 0.2j, ("J3", 2), ("J-", 1)),
                                 ss.OperatorTerm(0.6, ("J3", 1), ("J3", 1))]},
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_model_runs_the_term_path(name):
    # every model's classical function is derivs_from_terms of its term
    # list, to the bit, at one point and on a series
    sys = ss.SpinSystem(two_j=5, hbar=0.7)
    model = MODELS[name][2](sys, MODEL_PARAMS[name])
    terms_path = derivs_from_terms(sys, model.terms)
    rng = np.random.default_rng(7)
    u = 0.5 * (rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
    v = np.conj(u) + 0.05 * (rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
    for args in ((u[0], v[0]), (u, v)):
        for got, want in zip(model.derivs(*args), terms_path(*args)):
            assert type(got) is type(want) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# J3^2 and ladder powers on both sides, which no built-in model has
_LADDER_POWER_TERMS = [
    ss.OperatorTerm(0.3 + 0.7j, ("J+", 2), ("J-", 2)),
    ss.OperatorTerm(0.3 - 0.7j, ("J-", 2), ("J+", 2)),
    ss.OperatorTerm(1.1, ("J3", 2), ("I", 0)),
    ss.OperatorTerm(0.2 - 0.5j, ("J-", 3), ("J3", 2)),
    ss.OperatorTerm(0.2 + 0.5j, ("J+", 3), ("J3", 2)),
]


@pytest.mark.parametrize("name", [*sorted(MODELS), "ladder_powers"])
def test_point_derivs_is_derivs_unpacked(name):
    # the ODE kernel's 21 Python complex entries are derivs' arrays, to the bit
    sys = ss.SpinSystem(two_j=5, hbar=0.7)
    if name == "ladder_powers":
        model = ss.build_operator_model(sys, _LADDER_POWER_TERMS)
    else:
        model = MODELS[name][2](sys, MODEL_PARAMS[name])
    rng = np.random.default_rng(11)
    for _ in range(6):
        u = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v = np.conj(u) + 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        entries = model.point_derivs(*u.tolist(), *v.tolist())
        assert len(entries) == 21 and all(type(e) is complex for e in entries)
        h, grad, hess = model.derivs(u, v)
        want = np.concatenate([[h], grad, hess.ravel()])
        assert np.array(entries).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [*sorted(MODELS), "ladder_powers"])
def test_htilde_is_the_first_derivs_entry(name):
    # the value-only path gives derivs' h to the bit, at points and on series
    sys = ss.SpinSystem(two_j=5, hbar=0.7)
    if name == "ladder_powers":
        model = ss.build_operator_model(sys, _LADDER_POWER_TERMS)
    else:
        model = MODELS[name][2](sys, MODEL_PARAMS[name])
    rng = np.random.default_rng(13)
    u = 0.5 * (rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
    v = np.conj(u) + 0.05 * (rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
    for args in [(u[i], v[i]) for i in range(len(u))] + [(u, v), (u[:1], v[:1])]:
        got, want = model.htilde(*args), model.derivs(*args)[0]
        assert type(got) is type(want) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_term_entries_match_the_add_at_reduction():
    # random term lists of up to 6 terms over few kinds reach many
    # positions from several terms; coefficients with signed zero parts
    # make -0.0 parts, whose sign must survive the sum
    sys = ss.SpinSystem(two_j=3)
    factors = [("J3", 1), ("J3", 2), ("I", 0), ("J+", 1), ("J-", 1), ("J+", 2), ("J-", 2)]
    parts = [-1.5, -0.0, 0.0, 0.25, 2.0]
    rng = np.random.default_rng(4)
    for _ in range(300):
        terms = [ss.OperatorTerm(complex(*rng.choice(parts, 2)),
                                 factors[rng.integers(len(factors))],
                                 factors[rng.integers(len(factors))])
                 for _ in range(rng.integers(1, 7))]
        keys, values = models._term_entries(sys, terms)
        want_keys, want_values = add_at_entries(sys, terms)
        assert keys.tobytes() == want_keys.tobytes()
        assert values.tobytes() == want_values.tobytes()


class TestOperatorModels:
    def test_single_term_reproduces_phase_coupling(self):
        sys, params = _params(two_j=3, lam=1.3)
        built = ss.build_operator_model(
            sys, [ss.OperatorTerm(1.3 * sys.hbar, ("J3", 1), ("J3", 1))]
        )
        assert np.max(np.abs(built.operator - ss.phase_coupling_model(params).operator)) < 1e-12
        rng = np.random.default_rng(6)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(built.htilde(u, v) - pc_derivs(params)(u, v)[0]) < 1e-10

    def test_empty_term_list_is_free(self):
        sys = ss.SpinSystem(two_j=2)
        model = ss.build_operator_model(sys, [])
        assert np.max(np.abs(model.operator)) == 0.0
        traj = ss.integrate_trajectory(model, ss.CoherentLabel(0.5, 0.2j), 0.7, CFG)
        assert ss.purity_sc(traj) == pytest.approx(1.0)

    def test_exchange_conserves_total_j3(self):
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 1.0)
        jp, jm, j3 = build_spin_operators(sys)
        ident = np.eye(sys.dim)
        total_j3 = np.kron(j3, ident) + np.kron(ident, j3)
        comm = model.operator @ total_j3 - total_j3 @ model.operator
        assert np.max(np.abs(comm)) < 1e-12

    def test_rejects_non_hermitian_term_list(self):
        sys = ss.SpinSystem(two_j=2)
        with pytest.raises(NotHermitian):
            ss.build_operator_model(sys, [ss.OperatorTerm(1.0, ("J+", 1), ("I", 0))])

    @pytest.mark.parametrize("two_j", [1, 5, 10, 40])
    def test_rejects_non_hermitian_term_list_at_any_spin(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        with pytest.raises(NotHermitian):
            ss.build_operator_model(sys, [ss.OperatorTerm(1.0, ("J+", 1), ("I", 0))])

    def test_non_hermitian_term_list_is_a_config_error(self):
        doc = {
            "system": {"two_j": 5},
            "hamiltonian": {"model": "operator_terms",
                            "terms": [{"coefficient": 1.0, "x": ["J+", 1], "y": ["I", 0]}]},
            "initial_state": {"sx": [0.5, 0.0], "sy": [0.3, 0.1]},
            "time": {"t_max": 1.0, "num_points": 5},
            "outputs": {"path": "out.csv"},
        }
        with pytest.raises(ValidationError) as excinfo:
            build_model(parse_config(json.dumps(doc)))
        assert excinfo.value.key == "hamiltonian.terms"

    @pytest.mark.parametrize("two_j", [1, 2, 5])
    def test_term_check_is_the_whole_matrix_check(self, two_j):
        # lists whose summed entries are Hermitian, off by a defect above or
        # below the 1e-12 bound, or off in pattern: the check on the term
        # entries and the check on the assembled matrix agree
        sys = ss.SpinSystem(two_j=two_j)
        c = 0.3 + 0.2j
        lists = [
            [ss.OperatorTerm(c, ("J+", 2), ("J-", 1)), ss.OperatorTerm(np.conj(c), ("J-", 2), ("J+", 1))],
            [ss.OperatorTerm(c, ("J+", 1), ("J-", 1)), ss.OperatorTerm(c, ("J-", 1), ("J+", 1))],
            [ss.OperatorTerm(0.5, ("J+", 1), ("J3", 1)), ss.OperatorTerm(0.5 + 1e-9, ("J-", 1), ("J3", 1))],
            [ss.OperatorTerm(0.5, ("J+", 1), ("J3", 1)), ss.OperatorTerm(0.5 + 1e-15, ("J-", 1), ("J3", 1))],
            [ss.OperatorTerm(0.5, ("J+", 1), ("I", 0)), ss.OperatorTerm(0.5, ("J-", 1), ("I", 0)),
             ss.OperatorTerm(1e-13j, ("J3", 1), ("I", 0))],
            [ss.OperatorTerm(1.0, ("J+", 1), ("J+", 1)), ss.OperatorTerm(-1.0, ("J+", 1), ("J+", 1))],
            [ss.OperatorTerm(1.0, ("J3", 2), ("J-", 1))],
            [ss.OperatorTerm(2.0j, ("I", 0), ("I", 0))],
        ]
        for terms in lists:
            try:
                require_hermitian(assemble_operator(sys, terms))
            except NotHermitian:
                with pytest.raises(NotHermitian):
                    ss.build_operator_model(sys, terms)
            else:
                ss.build_operator_model(sys, terms)

    def test_large_spin_term_model_builds_without_joint_matrix(self):
        # the (2j+1)^2 joint matrix at two_j=1000 would take 14.6 TiB; the
        # Hermiticity check works on the 10^6 term entries instead
        sys = ss.SpinSystem(two_j=1000, hbar=0.7)
        tracemalloc.start()
        try:
            model = ss.build_operator_model(sys, [ss.OperatorTerm(0.9 * sys.hbar, ("J3", 1), ("J3", 1))])
            with pytest.raises(NotHermitian):
                ss.build_operator_model(sys, [ss.OperatorTerm(1.0, ("J+", 1), ("J3", 1))])
            u = np.array([0.3 + 0.1j, -0.2 + 0.05j])
            h, grad, hess = model.derivs(u, np.conj(u))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 20
        closed = pc_derivs(ss.PhaseCouplingParams(lam=0.9, sys=sys))
        for got, want in zip((h, grad, hess), closed(u, np.conj(u))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_term_list_is_read_once(self):
        # sectors and operator are built later, from the list given at build
        sys = ss.SpinSystem(two_j=3)
        terms = [ss.OperatorTerm(0.5, ("J+", 1), ("J-", 1)),
                 ss.OperatorTerm(0.5, ("J-", 1), ("J+", 1))]
        model = ss.build_operator_model(sys, iter(terms))
        terms.append(ss.OperatorTerm(1.0, ("J3", 1), ("I", 0)))
        want = ss.exchange_coupling_model(sys, 1.0)
        assert np.array_equal(model.operator, want.operator)
        for got, ref in zip(model.sectors.blocks, want.sectors.blocks):
            assert np.array_equal(got, ref)
        u = np.array([0.3 + 0.1j, -0.2])
        assert model.htilde(u, np.conj(u)) == want.htilde(u, np.conj(u))

    def test_term_validation(self):
        with pytest.raises(ValueError):
            ss.OperatorTerm(1.0, ("JZ", 1), ("I", 0))
        with pytest.raises(ValueError):
            ss.OperatorTerm(1.0, ("J3", -1), ("I", 0))

    @pytest.mark.parametrize("coefficient", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0),
                                             complex(0.0, np.nan), complex(1.0, np.inf)])
    def test_term_coefficient_must_be_finite(self, coefficient):
        with pytest.raises(ValueError):
            ss.OperatorTerm(coefficient, ("J3", 1), ("I", 0))

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_raises_at_build(self, coupling):
        sys = ss.SpinSystem(two_j=3)
        with pytest.raises(ValueError):
            ss.exchange_coupling_model(sys, coupling)
        with pytest.raises(ValueError):
            ss.free_precession_model(sys, coupling)
        with pytest.raises(ValueError):
            ss.phase_coupling_model(ss.PhaseCouplingParams(lam=coupling, sys=sys))

    @pytest.mark.parametrize("lam", [1j, 0.5 + 0.1j])
    def test_complex_phase_coupling_is_not_hermitian_at_build(self, lam):
        # checked on the term entries at build, as for every term model,
        # not first inside the exact engine
        sys = ss.SpinSystem(two_j=3)
        with pytest.raises(NotHermitian):
            ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys))
        with pytest.raises(NotHermitian):
            ss.exchange_coupling_model(sys, lam)

    @pytest.mark.parametrize("power", [2.0, True])
    def test_term_power_must_be_an_int(self, power):
        # as in a config file, where [kind, power] needs an integer power
        with pytest.raises(ValueError):
            ss.OperatorTerm(1.0, ("J3", power), ("I", 0))
        with pytest.raises(ValueError):
            ss.OperatorTerm(1.0, ("I", 0), ("J+", power))

    def test_assemble_powers(self):
        sys = ss.SpinSystem(two_j=2)
        jp, jm, j3 = build_spin_operators(sys)
        op = assemble_operator(sys, [ss.OperatorTerm(1.0, ("J3", 2), ("I", 0))])
        assert np.max(np.abs(op - np.kron(j3 @ j3, np.eye(sys.dim)))) < 1e-12

    @pytest.mark.parametrize("lam", [1.0, 0.37])
    @pytest.mark.parametrize("two_j", [1, 10, 40])
    def test_phase_coupling_operator_is_the_assembled_term(self, two_j, lam):
        # the kron of scaled J3 matrices the term list replaced, as oracle
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        _, _, j3 = build_spin_operators(sys)
        op = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys)).operator
        assert np.array_equal(op, np.kron(lam * sys.hbar * j3, j3))
