import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsemi as ss
from oracles import assemble_operator, dense_sectors, evolve_state, invariant_sectors
from spinsemi import models, quantum
from spinsemi.config import build_model, parse_config
from spinsemi.errors import DimensionMismatch, NotHermitian
from spinsemi.quantum import CHUNK, Sectors, SpectralPropagator, connected_sectors, time_chunks
from spinsemi.runner import compute_curve


def _random_state(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


class TestEvolveState:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        h = np.diag([1.0, 2.0, 3.0])
        psi = _random_state(rng, 3)
        assert np.allclose(evolve_state(h, psi, 0.0), psi)

    def test_diagonal_phases(self):
        h = np.diag([0.5, -1.5])
        psi = np.array([0.6, 0.8], dtype=complex)
        out = evolve_state(h, psi, 2.0, hbar=1.0)
        expected = psi * np.exp(-1j * np.array([0.5, -1.5]) * 2.0)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_forward_backward_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a + a.conj().T
        psi = _random_state(rng, 6)
        fwd = evolve_state(h, psi, 1.7)
        back = evolve_state(h, fwd, -1.7)
        assert np.max(np.abs(back - psi)) < 1e-10

    def test_norm_preserved_long_time(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = a + a.conj().T
        t = 1e3 / np.linalg.norm(h, 2)
        psi = _random_state(rng, 8)
        out = evolve_state(h, psi, t)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestReducedDensity:
    def test_product_state_rank_one(self):
        vx = np.array([1.0, 1j]) / np.sqrt(2)
        vy = np.array([0.6, 0.8])
        rho = ss.reduced_density(np.kron(vx, vy), "x", 2)
        assert np.max(np.abs(rho - np.outer(vx, vx.conj()))) < 1e-12
        assert ss.purity(rho) == pytest.approx(1.0)

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        for sub in ("x", "y"):
            rho = ss.reduced_density(bell, sub, 2)
            assert np.max(np.abs(rho - 0.5 * np.eye(2))) < 1e-12
        assert ss.purity(ss.reduced_density(bell, "x", 2)) == pytest.approx(0.5)

    @given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_unit_trace(self, dim, seed):
        psi = _random_state(np.random.default_rng(seed), dim * dim)
        rho = ss.reduced_density(psi, "x", dim)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ss.reduced_density(np.ones(5), "x", 2)

    @given(dim=st.integers(min_value=2, max_value=6), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_purity_symmetry(self, dim, seed):
        psi = _random_state(np.random.default_rng(seed), dim * dim)
        px = ss.purity(ss.reduced_density(psi, "x", dim))
        py = ss.purity(ss.reduced_density(psi, "y", dim))
        assert abs(px - py) < 1e-10

    def test_purity_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            psi = _random_state(rng, dim * dim)
            assert ss.purity(ss.reduced_density(psi, "x", dim)) >= 1.0 / dim - 1e-12

    def test_linear_entropy(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        # the linear entropy 1 - P, as a purity curve forms it
        p = np.array([ss.purity(ss.reduced_density(bell, "x", 2))])
        zero = np.zeros(1)
        curve = ss.PurityCurve(times=zero, p_exact=p, p_sc=p, residual_detM=zero,
                               residual_energy=zero, residual_im_psc=zero)
        assert curve.slin_exact[0] == pytest.approx(0.5)
        assert curve.slin_sc[0] == pytest.approx(0.5)


class TestPurityCurve:
    def _columns(self, n):
        rng = np.random.default_rng(3)
        return dict(times=np.linspace(0.0, 1.0, n), p_exact=rng.uniform(size=n),
                    p_sc=rng.uniform(size=n), residual_detM=np.zeros(n),
                    residual_energy=np.zeros(n), residual_im_psc=np.zeros(n))

    def test_linear_entropies_follow_purities(self):
        cols = self._columns(7)
        curve = ss.PurityCurve(**cols)
        assert np.array_equal(curve.slin_exact, 1.0 - cols["p_exact"])
        assert np.array_equal(curve.slin_sc, 1.0 - cols["p_sc"])

    @pytest.mark.parametrize("name", ["p_exact", "p_sc", "residual_detM",
                                      "residual_energy", "residual_im_psc"])
    def test_misaligned_column_rejected(self, name):
        cols = self._columns(7)
        cols[name] = cols[name][:-1]
        with pytest.raises(DimensionMismatch):
            ss.PurityCurve(**cols)


class TestExactPurityCurve:
    def test_initial_point_is_one(self):
        sys = ss.SpinSystem(two_j=2)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
        curve = ss.exact_purity_curve(sys, model, ss.CoherentLabel(0.3, 0.7j), [0.0])
        assert curve[0] == pytest.approx(1.0, abs=1e-12)

    def test_noninteracting_stays_one(self):
        sys = ss.SpinSystem(two_j=3)
        model = ss.free_precession_model(sys, 1.1)
        times = np.linspace(0.0, 3.0, 7)
        curve = ss.exact_purity_curve(sys, model, ss.CoherentLabel(0.9, -0.4 + 0.2j), times)
        assert np.max(np.abs(curve - 1.0)) < 1e-10

    def test_spin_half_closed_form(self):
        # j = 1/2, s0 = (1, 1): P(T) = (3 + cos(lam T)) / 4
        sys = ss.SpinSystem(two_j=1)
        lam = 1.3
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys))
        times = np.linspace(0.0, 4.0, 9)
        curve = ss.exact_purity_curve(sys, model, ss.CoherentLabel(1.0, 1.0), times)
        assert np.max(np.abs(curve - (3.0 + np.cos(lam * times)) / 4.0)) < 1e-12

    def test_symmetry_between_subsystems(self):
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.5 + 0.1j, -0.7)
        times = np.linspace(0.0, 1.0, 5)
        cx = ss.exact_purity_curve(sys, model, s0, times, subsystem="x")
        cy = ss.exact_purity_curve(sys, model, s0, times, subsystem="y")
        assert np.max(np.abs(cx - cy)) < 1e-10

    def test_matches_analytic_sum(self):
        sys = ss.SpinSystem(two_j=6)
        lam = 0.9
        params = ss.PhaseCouplingParams(lam=lam, sys=sys)
        model = ss.phase_coupling_model(params)
        s0 = ss.CoherentLabel(0.8, 0.5 - 0.3j)
        times = np.linspace(0.0, 2.0, 11)
        curve = ss.exact_purity_curve(sys, model, s0, times)
        analytic = np.array([ss.pc_exact_purity(params, s0, t) for t in times])
        assert np.max(np.abs(curve - analytic) / analytic) < 1e-9


    @pytest.mark.parametrize("other", [ss.SpinSystem(two_j=10, hbar=0.5),
                                       ss.SpinSystem(two_j=20)])
    def test_system_other_than_the_models_is_rejected(self, other):
        # the scale hbar*j and the dimension are the model's: a curve for
        # another system would be silently wrong (hbar) or fail late (dim)
        model = ss.exchange_coupling_model(ss.SpinSystem(two_j=10), 1.0)
        with pytest.raises(ValueError, match="not the model's"):
            ss.exact_purity_curve(other, model, ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j),
                                  [0.5])

    @pytest.mark.parametrize("times", [
        [0.0, np.nan, 0.2], [np.nan, 0.1], [0.0, 0.1, np.inf], [np.inf], [-np.inf, 0.0, 0.1],
        [0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [-0.1, 0.2],
    ], ids=["nan_inside", "nan_first", "inf_last", "inf_alone", "minus_inf_first",
            "descending", "repeated", "negative"])
    def test_times_that_are_not_finite_ascending_and_non_negative_are_rejected(self, times):
        # nan compares False both ways, so the check must be written to fail
        # on it: [0, nan, 0.2] used to give [1, nan, 0.983]
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 0.8)
        with pytest.raises(ValueError, match="finite, ascending and non-negative"):
            ss.exact_purity_curve(sys, model, ss.CoherentLabel(0.5, -0.3j), times)


class TestExactPropagatorOverlap:
    def test_zero_time_factorizes(self):
        sys = ss.SpinSystem(two_j=3)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
        se = ss.CoherentLabel(0.4, -0.2 + 0.6j)
        s0 = ss.CoherentLabel(-0.1 + 0.3j, 0.9)
        val = ss.exact_propagator_overlap(model, se, s0, 0.0)
        expected = ss.coherent_overlap(sys, se.sx, s0.sx) * ss.coherent_overlap(
            sys, se.sy, s0.sy
        )
        assert abs(val - expected) < 1e-12

    def test_bounded_by_one(self):
        sys = ss.SpinSystem(two_j=5)
        model = ss.exchange_coupling_model(sys, 1.2)
        rng = np.random.default_rng(9)
        for _ in range(5):
            se = ss.CoherentLabel(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            s0 = ss.CoherentLabel(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            val = ss.exact_propagator_overlap(model, se, s0, 0.7)
            assert abs(val) <= 1.0 + 1e-12

    def test_unitarity_reversal(self):
        # <e|U|0> = conj(<0|U^dagger|e>)
        sys = ss.SpinSystem(two_j=4)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.8, sys=sys))
        se = ss.CoherentLabel(0.4 + 0.1j, -0.2)
        s0 = ss.CoherentLabel(0.7, 0.3j)
        fwd = ss.exact_propagator_overlap(model, se, s0, 1.1, xi=+1)
        rev = ss.exact_propagator_overlap(model, s0, se, 1.1, xi=-1)
        assert abs(fwd - np.conj(rev)) < 1e-10

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_rejected(self, t):
        # nan used to come back as nan+nanj without an error
        sys = ss.SpinSystem(two_j=4)
        model = ss.exchange_coupling_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.5, -0.3j)
        with pytest.raises(ValueError, match="t must be finite"):
            ss.exact_propagator_overlap(model, s0, s0, t)


def test_spectral_propagator_reuses_decomposition():
    sys = ss.SpinSystem(two_j=2)
    model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
    prop = SpectralPropagator(model.sectors, sys.hbar)
    psi = ss.product_coherent(sys, ss.CoherentLabel(0.5, 0.5))
    one = prop.apply(psi, 0.3)
    two = evolve_state(assemble_operator(sys, model.terms), psi, 0.3, sys.hbar)
    assert np.max(np.abs(one - two)) < 1e-12


def _dense_oracle(h, hbar):
    """(psi, t, xi) -> e^{-i xi H t / hbar} psi, from one whole-matrix eigh.

    A real H is decomposed as a real symmetric matrix, which is several
    times faster at dimension 1681.
    """
    w, v = np.linalg.eigh(h if np.any(h.imag) else h.real)
    return lambda psi, t, xi: v @ (np.exp(-1j * xi * w * t / hbar) * (v.conj().T @ psi))


def _operator_terms_model(sys):
    # quartic and quadratic terms scaled by 1/j^2 and 1/j, so that |H| t, and
    # with it the rounding of the eigenphases, grows like the other models'
    c = (0.3 + 0.2j) / sys.j ** 2
    return ss.build_operator_model(sys, [
        ss.OperatorTerm(c, ("J+", 2), ("J-", 2)),
        ss.OperatorTerm(np.conj(c), ("J-", 2), ("J+", 2)),
        ss.OperatorTerm(0.6 / sys.j, ("J3", 2), ("I", 0)),
    ])


SECTOR_MODELS = {
    "phase_coupling": lambda sys: ss.phase_coupling_model(
        ss.PhaseCouplingParams(lam=0.9, sys=sys)),
    "exchange_coupling": lambda sys: ss.exchange_coupling_model(sys, 0.8),
    "free_precession": lambda sys: ss.free_precession_model(sys, 1.1),
    "operator_terms": _operator_terms_model,
}


def _sector_sizes(h):
    """Size of every sector of h, smallest first."""
    return [idx.shape[1] for idx in invariant_sectors(h) for _ in idx]


def _bfs_sectors(h):
    """Oracle: connected components by breadth-first search, as sorted tuples."""
    adjacent = (h != 0) | (h != 0).T
    unseen = set(range(h.shape[0]))
    sectors = []
    while unseen:
        frontier = [min(unseen)]
        unseen.discard(frontier[0])
        sector = []
        while frontier:
            i = frontier.pop()
            sector.append(i)
            for j in np.flatnonzero(adjacent[i]):
                if j in unseen:
                    unseen.discard(j)
                    frontier.append(j)
        sectors.append(tuple(sorted(sector)))
    return sorted(sectors)


class TestSectorEngine:
    @pytest.mark.parametrize("two_j", [1, 2, 5, 10, 40])
    @pytest.mark.parametrize("name", list(SECTOR_MODELS))
    def test_matches_dense_oracle(self, name, two_j):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        model = SECTOR_MODELS[name](sys)
        psi = ss.product_coherent(sys, ss.CoherentLabel(0.6 - 0.2j, -0.4 + 0.5j))
        prop = SpectralPropagator(model.sectors, sys.hbar)
        oracle = _dense_oracle(assemble_operator(sys, model.terms), sys.hbar)
        t = 1.3 / sys.j
        for xi in (+1, -1):
            assert np.max(np.abs(prop.apply(psi, xi * t) - oracle(psi, t, xi))) <= 1e-12

    def test_dense_hamiltonian_is_one_sector(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        h = a + a.conj().T
        assert _sector_sizes(h) == [30]
        prop = SpectralPropagator(dense_sectors(h), 1.0)
        psi = _random_state(rng, 30)
        oracle = _dense_oracle(h, 1.0)
        for xi in (+1, -1):
            assert np.max(np.abs(prop.apply(psi, xi * 0.9) - oracle(psi, 0.9, xi))) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_phase_coupling_sectors_are_single_states(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        model = SECTOR_MODELS["phase_coupling"](sys)
        assert _sector_sizes(assemble_operator(sys, model.terms)) == [1] * sys.dim ** 2

    def test_exchange_sectors_follow_total_j3(self):
        sys = ss.SpinSystem(two_j=40)
        sizes = _sector_sizes(assemble_operator(sys, SECTOR_MODELS["exchange_coupling"](sys).terms))
        assert len(sizes) == 81
        assert max(sizes) == 41
        assert sum(sizes) == sys.dim ** 2

    @pytest.mark.parametrize("seed", range(6))
    def test_sectors_match_breadth_first_search(self, seed):
        # random sparse patterns, most nonzeros one-sided
        rng = np.random.default_rng(seed)
        n = 40
        h = np.where(rng.random((n, n)) < 0.03, 1.0 + 0.5j, 0.0)
        np.fill_diagonal(h, rng.standard_normal(n))
        groups = invariant_sectors(h)
        found = sorted(tuple(row) for idx in groups for row in idx.tolist())
        assert found == _bfs_sectors(h)
        sizes = [idx.shape[1] for idx in groups]
        assert sizes == sorted(set(sizes))

    def test_one_sided_entry_is_not_hermitian(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h[0, 2] = 0.5
        with pytest.raises(NotHermitian):
            SpectralPropagator(dense_sectors(h))

    def test_nan_entry_is_not_hermitian(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h[1, 3] = h[3, 1] = np.nan
        with pytest.raises(NotHermitian):
            SpectralPropagator(dense_sectors(h))
        h = np.diag([1.0, np.nan, 3.0, 4.0]).astype(complex)
        with pytest.raises(NotHermitian):
            SpectralPropagator(dense_sectors(h))

    def test_defect_inside_a_sector_is_not_hermitian(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h[1, 3] = 0.25
        h[3, 1] = 0.25 + 1e-9j
        with pytest.raises(NotHermitian):
            SpectralPropagator(dense_sectors(h))

    def test_defect_below_tolerance_is_accepted(self):
        # the whole-matrix check's 1e-12 bound, not a stricter one
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        h[0, 1] = 1e-13
        assert _sector_sizes(h) == [1, 2]
        SpectralPropagator(dense_sectors(h))

    def test_wrong_state_length(self):
        with pytest.raises(DimensionMismatch):
            SpectralPropagator(dense_sectors(np.eye(4))).apply(np.ones(3), 0.1)


def _per_time_apply(prop, psi, t):
    """The per-time evolution the whole-grid apply replaced: one
    matrix-vector rotation into and out of the eigenbases per sector size
    and time."""
    x = psi[prop.perm]
    y = np.empty_like(x)
    phases = np.exp((-1j * t / prop.hbar) * prop.w)
    for span, v in prop.blocks:
        shape = v.shape[:2] + (1,)
        coeffs = np.conj(v.swapaxes(1, 2) @ x[span].conj().reshape(shape))
        coeffs *= phases[span].reshape(shape)
        np.matmul(v, coeffs, out=y[span].reshape(shape))
    out = np.empty_like(psi)
    out[prop.perm] = y
    return out


def _oracle_purities(states, subsystem, dim):
    """Oracle of purity(reduced_density(...)): the partial trace written out
    per subsystem, and the sum of |rho_ab|^2."""
    mats = states.reshape(-1, dim, dim)
    if subsystem == "x":
        rhos = mats @ mats.conj().swapaxes(1, 2)
    else:
        rhos = mats.swapaxes(1, 2) @ mats.conj()
    return np.sum(np.abs(rhos) ** 2, axis=(1, 2))


def _dense_terms_model(sys):
    # the J+- terms on each side connect every basis state: one sector
    return ss.build_operator_model(sys, [
        ss.OperatorTerm(0.4 / sys.j, ("J+", 1), ("I", 0)),
        ss.OperatorTerm(0.4 / sys.j, ("J-", 1), ("I", 0)),
        ss.OperatorTerm(0.3j / sys.j, ("I", 0), ("J+", 1)),
        ss.OperatorTerm(-0.3j / sys.j, ("I", 0), ("J-", 1)),
        ss.OperatorTerm(0.9 / sys.j, ("J3", 1), ("J3", 1)),
    ])


CURVE_MODELS = dict(SECTOR_MODELS, operator_terms=_dense_terms_model)


def _prime_above(n):
    while any(n % k == 0 for k in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


class TestWholeCurve:
    @pytest.mark.parametrize("two_j", [4, 10, 40])
    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    def test_chunked_curve_matches_per_time_loop(self, name, two_j):
        # the chunks of np.linspace grids take the phase table, forward and
        # backward in time; the per-time oracle calls np.exp once per time
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        prop = SpectralPropagator(CURVE_MODELS[name](sys).sectors, sys.hbar)
        psi0 = ss.product_coherent(sys, ss.CoherentLabel(0.6 - 0.2j, -0.4 + 0.5j))
        # a prime number of times spanning three chunks, the last one
        # partial and ending at the grid's stop, and two times
        n = _prime_above(2 * (CHUNK // sys.joint_dim) + 1)
        assert len(time_chunks(n, sys.joint_dim)) == 3
        for times in (np.linspace(0.0, 1.3 / sys.j, n), np.array([0.0, 0.9 / sys.j])):
            for xi in (+1, -1):
                states = np.concatenate([prop.apply(psi0, xi * times[rows])
                                         for rows in time_chunks(times.size, sys.joint_dim)])
                want = np.array([_per_time_apply(prop, psi0, xi * t) for t in times])
                assert np.max(np.abs(states - want)) <= 1e-12
                for sub in ("x", "y"):
                    got = np.concatenate([
                        ss.purity(ss.reduced_density(states[rows], sub, sys.dim))
                        for rows in time_chunks(times.size, sys.joint_dim)
                    ])
                    oracle = _oracle_purities(want, sub, sys.dim)
                    assert np.max(np.abs(got - oracle) / oracle) <= 1e-12

    def test_exact_purity_curve_is_the_chunked_evaluation(self):
        sys = ss.SpinSystem(two_j=10)
        model = ss.exchange_coupling_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.5 + 0.1j, -0.3j)
        times = np.linspace(0.0, 0.6, 1201)
        prop = SpectralPropagator(model.sectors, sys.hbar)
        psi0 = ss.product_coherent(sys, s0)
        for sub in ("x", "y"):
            want = np.concatenate([
                ss.purity(ss.reduced_density(prop.apply(psi0, times[rows]), sub, sys.dim))
                for rows in time_chunks(times.size, sys.joint_dim)
            ])
            assert np.array_equal(ss.exact_purity_curve(sys, model, s0, times, sub), want)

    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    def test_apply_on_a_grid_matches_per_time_apply(self, name):
        sys = ss.SpinSystem(two_j=6, hbar=0.7)
        prop = SpectralPropagator(CURVE_MODELS[name](sys).sectors, sys.hbar)
        psi = ss.product_coherent(sys, ss.CoherentLabel(0.3 + 0.4j, -0.7))
        times = np.array([0.0, 0.2, 0.9, 2.5])
        for xi in (+1, -1):
            states = prop.apply(psi, xi * times)
            assert states.shape == (times.size, sys.joint_dim)
            for t, state in zip(times, states):
                oracle = _per_time_apply(prop, psi, xi * t)
                assert np.max(np.abs(state - oracle)) <= 1e-12
                assert np.array_equal(prop.apply(psi, xi * t), prop.apply(psi, [xi * t])[0])
        assert prop.apply(psi, 0.4).shape == (sys.joint_dim,)
        assert prop.apply(psi, np.array([])).shape == (0, sys.joint_dim)
        with pytest.raises(ValueError):
            prop.apply(psi, np.zeros((2, 2)))

    @pytest.mark.parametrize("name", sorted(CURVE_MODELS))
    def test_apply_returns_contiguous_time_major_states(self, name):
        sys = ss.SpinSystem(two_j=6, hbar=0.7)
        prop = SpectralPropagator(CURVE_MODELS[name](sys).sectors, sys.hbar)
        psi = ss.product_coherent(sys, ss.CoherentLabel(0.3 + 0.4j, -0.7))
        for times in (0.4, np.array([0.4]), np.array([0.0, 0.2, 0.9]),
                      np.linspace(0.0, 1.1, 30), -np.linspace(0.0, 1.1, 30)):
            states = prop.apply(psi, times)
            assert states.shape == np.shape(times) + (sys.joint_dim,)
            assert states.flags.c_contiguous

    def test_stacks_of_states_and_density_matrices(self):
        rng = np.random.default_rng(12)
        dim = 4
        psis = np.array([_random_state(rng, dim * dim) for _ in range(6)]).reshape(2, 3, -1)
        for sub in ("x", "y"):
            rhos = ss.reduced_density(psis, sub, dim)
            assert rhos.shape == (2, 3, dim, dim)
            purities = ss.purity(rhos)
            assert purities.shape == (2, 3)
            for i in range(2):
                for k in range(3):
                    rho = ss.reduced_density(psis[i, k], sub, dim)
                    assert np.array_equal(rhos[i, k], rho)
                    assert type(ss.purity(rho)) is float
                    assert purities[i, k] == pytest.approx(ss.purity(rho), rel=1e-14)
        with pytest.raises(DimensionMismatch):
            ss.reduced_density(np.ones((3, 5)), "x", 2)

    def test_chunks_bound_the_rows_per_call(self):
        # the benchmark's dense_sampling (two_j = 10) and exact_large_spin
        # (two_j = 40) grids
        chunks = time_chunks(4000, 121)
        assert [c.stop - c.start for c in chunks[:-1]] == [270] * 14
        assert chunks[-1] == slice(3780, 4050)
        assert len(time_chunks(100, 1681)) == 6
        assert time_chunks(100, 1681)[0] == slice(0, 19)
        assert time_chunks(5, CHUNK + 1) == [slice(i, i + 1) for i in range(5)]
        assert time_chunks(0, 121) == []


class TestPhaseTable:
    """The phases of arithmetic grids come from a coarse x fine table of
    exponentials; every other grid takes one np.exp per entry. Either way
    they come time-major, (t.size, w.size), times one coefficient per
    eigenvalue, and the exponentials are taken of the distinct eigenvalues
    (levels) only. The table's states and purities are checked against the
    per-time oracle in TestWholeCurve."""

    @staticmethod
    def _spectrum_and_coefficients():
        sys = ss.SpinSystem(two_j=10, hbar=0.7)
        prop = SpectralPropagator(ss.exchange_coupling_model(sys, 0.8).sectors, sys.hbar)
        coeffs = _random_state(np.random.default_rng(27), prop.w.size)
        return sys, prop, coeffs

    @pytest.mark.parametrize("two_j", [10, 40])
    @pytest.mark.parametrize("name", ["phase_coupling", "exchange_coupling"])
    def test_levels_are_the_distinct_eigenvalues(self, name, two_j):
        # both spectra are degenerate: fewer levels than eigenvalues
        sys = ss.SpinSystem(two_j=two_j)
        sectors = SECTOR_MODELS[name](sys).sectors
        prop = SpectralPropagator(sectors, sys.hbar)
        assert np.all(np.diff(prop.levels) > 0)
        assert prop.levels.size < prop.w.size == sys.joint_dim
        assert np.array_equal(prop.w, np.concatenate([
            np.linalg.eigh(block)[0].ravel() for block in sectors.blocks]))

    @pytest.mark.parametrize("times", [
        0.37,
        [0.0, 0.37],
        np.linspace(0.0, 0.37, 7),
        np.linspace(0.0, 0.37, 100) + np.where(np.arange(100) == 41, 1e-9, 0.0),
        -np.linspace(0.0, 0.37, 100) + np.where(np.arange(100) == 99, 1e-9, 0.0),
    ], ids=["scalar", "two_points", "short", "one_time_moved", "backward_one_time_moved"])
    def test_other_grids_take_the_direct_exponentials(self, times):
        assert quantum.TABLE_MIN > 7
        sys, prop, coeffs = self._spectrum_and_coefficients()
        t = np.asarray(times, dtype=float).ravel()
        direct = np.exp(np.multiply.outer(-1j * t / sys.hbar, prop.w))
        for c, want in ((np.ones(prop.w.size), direct), (coeffs, direct * coeffs)):
            got = quantum._phases(prop.levels, prop.level_of, t, sys.hbar, c)
            assert np.array_equal(got, want)

    def test_linspace_grids_take_the_table(self):
        sys, prop, coeffs = self._spectrum_and_coefficients()
        for t in (np.linspace(0.0, 0.37, 100), -np.linspace(0.2, 0.37, 100),
                  np.linspace(0.0, 0.37, 99)):  # 99 = 9 * 10 + 9: a partial last block
            direct = np.exp(np.multiply.outer(-1j * t / sys.hbar, prop.w))
            for c in (np.ones(prop.w.size), coeffs):
                got = quantum._phases(prop.levels, prop.level_of, t, sys.hbar, c)
                assert got.shape == (t.size, prop.w.size)
                assert got.flags.c_contiguous
                assert not np.array_equal(got, direct * c)
                assert np.max(np.abs(got - direct * c)) <= 1e-14

    @pytest.mark.parametrize("model, two_j, t_max, num_points", [
        ("phase_coupling", 10, 0.5, 4000),  # dense_sampling
        ("phase_coupling", 40, 0.05, 100),  # exact_large_spin
        ("exchange_coupling", 10, 0.5, 100),  # exchange_sweep
    ])
    def test_benchmark_grids_take_the_table(self, monkeypatch, model, two_j, t_max, num_points):
        sys = ss.SpinSystem(two_j=two_j)
        prop = SpectralPropagator(SECTOR_MODELS[model](sys).sectors, sys.hbar)
        psi0 = ss.product_coherent(sys, ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j))
        times = np.linspace(0.0, t_max, num_points)
        counter = _CountingExponentials()
        monkeypatch.setattr(quantum, "np", counter)
        for rows in time_chunks(times.size, prop.dim):
            n = times[rows].size
            counter.entries = 0
            prop.apply(psi0, times[rows])
            # per distinct eigenvalue, and so at most that per eigenvalue
            per_level = counter.entries / prop.levels.size
            if n < quantum.TABLE_MIN:  # a short last chunk: one per time
                assert per_level == n
            else:
                assert 2 <= per_level <= 2 * math.ceil(math.sqrt(n)) + 1


class _CountingExponentials:
    """Stands in for numpy inside quantum and counts the entries that np.exp
    and np.cos evaluate: one complex exponential is either one np.exp entry
    or one np.cos entry (with its np.sin)."""

    def __init__(self):
        self.entries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.entries += np.size(x)
        return np.exp(x, *args, **kwargs)

    def cos(self, x, *args, **kwargs):
        self.entries += np.size(x)
        return np.cos(x, *args, **kwargs)


class TestPurity:
    def _stack(self):
        rng = np.random.default_rng(26)
        psis = np.array([_random_state(rng, 49) for _ in range(12)])
        return ss.reduced_density(psis, "x", 7)

    def test_matches_sum_of_absolute_squares(self):
        rhos = self._stack()
        for rho in (rhos, rhos[3], rhos.transpose(0, 2, 1), rhos[::2, :, 1:]):
            want = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
            got = ss.purity(rho)
            assert np.max(np.abs(got - want) / want) <= 1e-14
            assert np.all(got >= 0.0)
        assert not rhos.transpose(0, 2, 1).flags.c_contiguous

    def test_one_matrix_gives_a_float(self):
        rho = self._stack()[5]
        assert type(ss.purity(rho)) is float
        assert type(ss.purity(rho.T)) is float
        assert ss.purity(np.eye(3) / 3) == pytest.approx(1 / 3, rel=1e-15)
        assert ss.purity(np.zeros((2, 2))) == 0.0


def test_propagator_keeps_one_copy_of_the_eigenvectors():
    sys = ss.SpinSystem(two_j=40)
    sectors = ss.exchange_coupling_model(sys, 0.8).sectors
    tracemalloc.start()
    try:
        prop = SpectralPropagator(sectors, sys.hbar)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * sum(v.nbytes for _, v in prop.blocks)


@pytest.mark.parametrize("name", ["phase_coupling", "free_precession"])
def test_apply_writes_the_phases_into_the_states_it_returns(name):
    # every sector one state, in basis order: the permutation is the
    # identity, and apply's peak is its result plus the tables (about
    # 2 sqrt(n_t) rows) or, off the table, plus the exponentials of the
    # distinct eigenvalues (29 and 31 of 121 here); a second result-sized buffer
    # would double it
    sys = ss.SpinSystem(two_j=10)
    sectors = SECTOR_MODELS[name](sys).sectors
    assert np.array_equal(np.concatenate([idx.ravel() for idx in sectors.indices]),
                          np.arange(sys.joint_dim))
    prop = SpectralPropagator(sectors, sys.hbar)
    psi0 = ss.product_coherent(sys, ss.CoherentLabel(0.5 + 0.2j, -0.3 + 0.4j))
    grid = np.linspace(0.0, 0.5, 400)
    for times in (grid, grid + np.where(np.arange(400) == 7, 1e-9, 0.0)):
        tracemalloc.start()
        try:
            states = prop.apply(psi0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.nbytes == times.size * sys.joint_dim * 16
        assert peak <= 1.5 * states.nbytes


def _term_list_models(sys):
    """Operator-term lists beyond the built-in models: complex coefficients,
    J+^2 / J-^2, J3^2, an I (x) I term, the empty list, hopping terms that
    join what the first (diagonal) term leaves apart, and a list whose
    terms cancel (its term sectors are coarser than the matrix's)."""
    c = (0.3 + 0.2j) / sys.j ** 2
    lists = {
        "complex_quartic": [
            ss.OperatorTerm(c, ("J+", 2), ("J-", 2)),
            ss.OperatorTerm(np.conj(c), ("J-", 2), ("J+", 2)),
            ss.OperatorTerm(0.6 / sys.j, ("J3", 2), ("I", 0)),
            ss.OperatorTerm(-0.4, ("I", 0), ("I", 0)),
        ],
        "mixed": [
            ss.OperatorTerm(0.7j / sys.j, ("J+", 1), ("J3", 1)),
            ss.OperatorTerm(-0.7j / sys.j, ("J-", 1), ("J3", 1)),
            ss.OperatorTerm(0.2 / sys.j, ("J3", 1), ("J3", 2)),
        ],
        "empty": [],
        "hopping_after_diagonal": [
            ss.OperatorTerm(0.9 / sys.j, ("J3", 1), ("J3", 1)),
            ss.OperatorTerm(0.4 / sys.j, ("J+", 1), ("I", 0)),
            ss.OperatorTerm(0.4 / sys.j, ("J-", 1), ("I", 0)),
            ss.OperatorTerm(0.3j / sys.j, ("I", 0), ("J+", 1)),
            ss.OperatorTerm(-0.3j / sys.j, ("I", 0), ("J-", 1)),
        ],
        "cancelling": [
            ss.OperatorTerm(0.5, ("J+", 1), ("I", 0)),
            ss.OperatorTerm(-0.5, ("J+", 1), ("I", 0)),
            ss.OperatorTerm(0.5, ("J-", 1), ("I", 0)),
            ss.OperatorTerm(-0.5, ("J-", 1), ("I", 0)),
            ss.OperatorTerm(0.9 / sys.j, ("J3", 1), ("J3", 1)),
        ],
    }
    return {name: ss.build_operator_model(sys, terms) for name, terms in lists.items()}


BUILT_IN_MODELS = {
    "phase_coupling": SECTOR_MODELS["phase_coupling"],
    "exchange_coupling": SECTOR_MODELS["exchange_coupling"],
    "free_precession": SECTOR_MODELS["free_precession"],
}


def _rows(indices):
    return [tuple(row) for idx in indices for row in idx.tolist()]


def _assert_blocks_match(sectors, h):
    """Each block of sectors equals h gathered at its indices, to 1e-12
    relative, and h has no entry outside the blocks."""
    assert sectors.dim == h.shape[0]
    scale = max(np.max(np.abs(h)), 1e-300)
    inside = np.zeros(h.shape, dtype=bool)
    for idx, block in zip(sectors.indices, sectors.blocks):
        assert block.shape == idx.shape + idx.shape[-1:]
        want = h[idx[:, :, None], idx[:, None, :]]
        assert np.max(np.abs(block - want), initial=0.0) <= 1e-12 * scale
        inside[idx[:, :, None], idx[:, None, :]] = True
    assert not np.any(h[~inside])


def _assert_propagators_match(sys, sectors, h):
    psi = ss.product_coherent(sys, ss.CoherentLabel(0.6 - 0.2j, -0.4 + 0.5j))
    times = np.linspace(-1.3 / sys.j, 1.3 / sys.j, 7)
    got = SpectralPropagator(sectors, sys.hbar).apply(psi, times)
    want = SpectralPropagator(dense_sectors(h), sys.hbar).apply(psi, times)
    assert np.max(np.abs(got - want)) <= 1e-12


class TestTermSectors:
    @pytest.mark.parametrize("two_j", [1, 5, 10, 40])
    @pytest.mark.parametrize("name", sorted(BUILT_IN_MODELS))
    def test_built_in_models_match_dense_sectors(self, name, two_j):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        model = BUILT_IN_MODELS[name](sys)
        h = assemble_operator(sys, model.terms)
        dense = dense_sectors(h)
        assert len(model.sectors.indices) == len(dense.indices)
        for got, want in zip(model.sectors.indices, dense.indices):
            assert np.array_equal(got, want)
        _assert_blocks_match(model.sectors, h)
        _assert_propagators_match(sys, model.sectors, h)

    @pytest.mark.parametrize("two_j", [1, 5, 10, 40])
    def test_term_lists_refine_into_term_sectors(self, two_j):
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        for name, model in _term_list_models(sys).items():
            h = assemble_operator(sys, model.terms)
            term_rows = _rows(model.sectors.indices)
            assert sorted(i for row in term_rows for i in row) == list(range(sys.joint_dim))
            home = {i: k for k, row in enumerate(term_rows) for i in row}
            for row in _rows(invariant_sectors(h)):
                assert len({home[i] for i in row}) == 1, name
            _assert_blocks_match(model.sectors, h)
            # the hopping list is one sector of every state; at two_j=40
            # its two 1681-state eigendecompositions would take seconds
            if name != "hopping_after_diagonal" or two_j <= 10:
                _assert_propagators_match(sys, model.sectors, h)

    def test_cancelling_terms_give_coarser_sectors(self):
        sys = ss.SpinSystem(two_j=5)
        model = _term_list_models(sys)["cancelling"]
        assert [idx.shape[1] for idx in invariant_sectors(assemble_operator(sys, model.terms))] == [1]
        assert [idx.shape[1] for idx in model.sectors.indices] == [sys.dim]

    def test_empty_list_is_all_single_states(self):
        sys = ss.SpinSystem(two_j=4)
        sectors = ss.build_operator_model(sys, []).sectors
        assert [idx.shape for idx in sectors.indices] == [(sys.joint_dim, 1)]
        assert not np.any(sectors.blocks[0])

    def test_dense_front_end_is_connected_sectors_of_the_pattern(self):
        rng = np.random.default_rng(3)
        h = np.where(rng.random((30, 30)) < 0.04, 1.0, 0.0)
        rows, cols = np.nonzero(h)
        for got, want in zip(invariant_sectors(h), connected_sectors(rows, cols, 30)):
            assert np.array_equal(got, want)
        # no edges: every state its own sector
        assert [idx.shape for idx in connected_sectors(np.array([], int), np.array([], int), 4)] == [(4, 1)]

    def test_propagator_takes_sectors(self):
        # a dense matrix goes through the oracle's sector split
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        h[0, 2] = h[2, 0] = 0.5
        psi = np.array([0.6, 0.0, 0.8j])
        sectors = Sectors(3, [np.array([[1]]), np.array([[0, 2]])],
                          [np.array([[[2.0]]], dtype=complex),
                           np.array([[[1.0, 0.5], [0.5, 3.0]]], dtype=complex)])
        from_dense = SpectralPropagator(dense_sectors(h)).apply(psi, 0.7)
        from_sectors = SpectralPropagator(sectors).apply(psi, 0.7)
        assert np.array_equal(from_dense, from_sectors)
        with pytest.raises(ValueError):
            dense_sectors(np.ones((2, 3)))
        with pytest.raises(NotHermitian):
            bad = Sectors(2, [np.array([[0, 1]])], [np.array([[[1.0, 1.0], [0.0, 1.0]]])])
            SpectralPropagator(bad)


@pytest.mark.parametrize("two_j", [1, 5, 10, 40])
@pytest.mark.parametrize("name", sorted(BUILT_IN_MODELS))
def test_exact_overlap_on_sectors_equals_dense_path(name, two_j):
    # the overlap through model.sectors against the dense matrix's own
    # sector split, bitwise
    sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
    model = BUILT_IN_MODELS[name](sys)
    s_eta = ss.CoherentLabel(0.3 + 0.4j, -0.5)
    s0 = ss.CoherentLabel(0.6 - 0.2j, -0.4 + 0.5j)
    for xi in (+1, -1):
        t = 1.3 / sys.j
        dense = complex(np.vdot(ss.product_coherent(sys, s_eta),
                                evolve_state(assemble_operator(sys, model.terms),
                                             ss.product_coherent(sys, s0), xi * t, sys.hbar)))
        assert ss.exact_propagator_overlap(model, s_eta, s0, t, xi) == dense


def _no_dense_operator(monkeypatch):
    """Make the dense joint-space matrix, model.operator, raise on read."""
    def fail(*args, **kwargs):
        raise AssertionError("dense joint-space matrix on the run path")
    monkeypatch.setattr(models.HamiltonianModel, "operator", property(fail))


@pytest.mark.parametrize("name", ["phase_coupling", "exchange_coupling",
                                  "free_precession", "operator_terms"])
def test_run_path_reads_no_dense_operator(monkeypatch, name):
    _no_dense_operator(monkeypatch)
    hamiltonian = {
        "phase_coupling": {"lambda": 0.9},
        "exchange_coupling": {"lambda": 0.8},
        "free_precession": {"b3": 1.1},
        "operator_terms": {"terms": [
            {"coefficient": [0.3, 0.2], "x": ["J+", 2], "y": ["J-", 2]},
            {"coefficient": [0.3, -0.2], "x": ["J-", 2], "y": ["J+", 2]},
            {"coefficient": 0.6, "x": ["J3", 2], "y": ["I", 0]},
        ]},
    }[name]
    doc = {
        "system": {"two_j": 6},
        "hamiltonian": dict(model=name, **hamiltonian),
        "initial_state": {"sx": [0.5, 0.1], "sy": [-0.3, 0.4]},
        "time": {"t_max": 0.2, "num_points": 5},
        "outputs": {"path": "out.csv"},
    }
    cfg = parse_config(json.dumps(doc))
    curve, _, _ = compute_curve(cfg)
    assert curve.p_exact[0] == pytest.approx(1.0, abs=1e-12)
    model = build_model(cfg)
    s0 = cfg.initial_state
    assert ss.exact_propagator_overlap(model, s0, s0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(ss.exact_propagator_overlap(model, s0, s0, 0.2)) <= 1.0 + 1e-12


def test_exchange_curve_at_large_spin_stays_small(monkeypatch):
    # the joint matrix at two_j=100 alone would take 1.7 GB; the sectors
    # (sizes up to 101) hold 0.7 M entries
    _no_dense_operator(monkeypatch)
    sys = ss.SpinSystem(two_j=100)
    s0 = ss.CoherentLabel(0.5 + 0.1j, -0.3j)
    times = np.linspace(0.0, 0.5 / sys.j, 20)
    tracemalloc.start()
    try:
        model = ss.exchange_coupling_model(sys, 1.0)
        curve = ss.exact_purity_curve(sys, model, s0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20
    assert curve[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all((curve > 1.0 / sys.dim) & (curve <= 1.0 + 1e-12))
    assert curve[-1] < 1.0 - 1e-4
    other = ss.exact_purity_curve(sys, model, s0, times, subsystem="y")
    assert np.max(np.abs(curve - other)) < 1e-10
