import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsemi as ss
from spinsemi.errors import DimensionMismatch, NotHermitian
from spinsemi.quantum import CHUNK, SpectralPropagator, invariant_sectors, time_chunks


def _random_state(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


class TestEvolveState:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        h = np.diag([1.0, 2.0, 3.0])
        psi = _random_state(rng, 3)
        assert np.allclose(ss.evolve_state(h, psi, 0.0), psi)

    def test_diagonal_phases(self):
        h = np.diag([0.5, -1.5])
        psi = np.array([0.6, 0.8], dtype=complex)
        out = ss.evolve_state(h, psi, 2.0, hbar=1.0)
        expected = psi * np.exp(-1j * np.array([0.5, -1.5]) * 2.0)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_forward_backward_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a + a.conj().T
        psi = _random_state(rng, 6)
        fwd = ss.evolve_state(h, psi, 1.7)
        back = ss.evolve_state(h, fwd, 1.7, xi=-1)
        assert np.max(np.abs(back - psi)) < 1e-10

    def test_norm_preserved_long_time(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = a + a.conj().T
        t = 1e3 / np.linalg.norm(h, 2)
        psi = _random_state(rng, 8)
        out = ss.evolve_state(h, psi, t)
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
        rho = ss.reduced_density(bell, "x", 2)
        assert ss.linear_entropy(rho) == pytest.approx(0.5)


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


class TestExactPropagatorOverlap:
    def test_zero_time_factorizes(self):
        sys = ss.SpinSystem(two_j=3)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
        se = ss.CoherentLabel(0.4, -0.2 + 0.6j)
        s0 = ss.CoherentLabel(-0.1 + 0.3j, 0.9)
        val = ss.exact_propagator_overlap(sys, model.operator, se, s0, 0.0)
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
            val = ss.exact_propagator_overlap(sys, model.operator, se, s0, 0.7)
            assert abs(val) <= 1.0 + 1e-12

    def test_unitarity_reversal(self):
        # <e|U|0> = conj(<0|U^dagger|e>)
        sys = ss.SpinSystem(two_j=4)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=0.8, sys=sys))
        se = ss.CoherentLabel(0.4 + 0.1j, -0.2)
        s0 = ss.CoherentLabel(0.7, 0.3j)
        fwd = ss.exact_propagator_overlap(sys, model.operator, se, s0, 1.1, xi=+1)
        rev = ss.exact_propagator_overlap(sys, model.operator, s0, se, 1.1, xi=-1)
        assert abs(fwd - np.conj(rev)) < 1e-10


def test_spectral_propagator_reuses_decomposition():
    sys = ss.SpinSystem(two_j=2)
    model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys))
    prop = SpectralPropagator(model.operator, sys.hbar)
    psi = ss.product_coherent(sys, ss.CoherentLabel(0.5, 0.5))
    one = prop.apply(psi, 0.3)
    two = ss.evolve_state(model.operator, psi, 0.3, sys.hbar)
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
        h = SECTOR_MODELS[name](sys).operator
        psi = ss.product_coherent(sys, ss.CoherentLabel(0.6 - 0.2j, -0.4 + 0.5j))
        prop = SpectralPropagator(h, sys.hbar)
        oracle = _dense_oracle(h, sys.hbar)
        t = 1.3 / sys.j
        for xi in (+1, -1):
            assert np.max(np.abs(prop.apply(psi, t, xi) - oracle(psi, t, xi))) <= 1e-12

    def test_dense_hamiltonian_is_one_sector(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        h = a + a.conj().T
        assert _sector_sizes(h) == [30]
        prop = SpectralPropagator(h, 1.0)
        psi = _random_state(rng, 30)
        oracle = _dense_oracle(h, 1.0)
        for xi in (+1, -1):
            assert np.max(np.abs(prop.apply(psi, 0.9, xi) - oracle(psi, 0.9, xi))) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 4, 40])
    def test_phase_coupling_sectors_are_single_states(self, two_j):
        sys = ss.SpinSystem(two_j=two_j)
        h = SECTOR_MODELS["phase_coupling"](sys).operator
        assert _sector_sizes(h) == [1] * sys.dim ** 2

    def test_exchange_sectors_follow_total_j3(self):
        sys = ss.SpinSystem(two_j=40)
        sizes = _sector_sizes(SECTOR_MODELS["exchange_coupling"](sys).operator)
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
            SpectralPropagator(h)

    def test_defect_inside_a_sector_is_not_hermitian(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h[1, 3] = 0.25
        h[3, 1] = 0.25 + 1e-9j
        with pytest.raises(NotHermitian):
            SpectralPropagator(h)

    def test_defect_below_tolerance_is_accepted(self):
        # the whole-matrix check's 1e-12 bound, not a stricter one
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        h[0, 1] = 1e-13
        assert _sector_sizes(h) == [1, 2]
        SpectralPropagator(h)

    def test_wrong_state_length(self):
        with pytest.raises(DimensionMismatch):
            SpectralPropagator(np.eye(4)).apply(np.ones(3), 0.1)


def _per_time_apply(prop, psi, t):
    """The per-time evolution the whole-grid apply replaced: one
    matrix-vector rotation into and out of the eigenbases per sector size
    and time."""
    x = psi[prop.perm]
    y = np.empty_like(x)
    phases = np.exp((-1j * t / prop.hbar) * prop.w)
    for span, v, vh in prop.blocks:
        shape = v.shape[:2] + (1,)
        coeffs = vh @ x[span].reshape(shape)
        coeffs *= phases[span].reshape(shape)
        np.matmul(v, coeffs, out=y[span].reshape(shape))
    out = np.empty_like(psi)
    out[prop.perm] = y
    return out


def _per_time_purities(prop, psi0, times, subsystem, dim):
    """Oracle of the chunked curve: a scalar loop over the times, with the
    single-state partial trace and purity."""
    out = []
    for t in times:
        mat = _per_time_apply(prop, psi0, t).reshape(dim, dim)
        rho = mat @ mat.conj().T if subsystem == "x" else mat.T @ mat.conj()
        out.append(np.sum(np.abs(rho) ** 2))
    return np.array(out)


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
        sys = ss.SpinSystem(two_j=two_j, hbar=0.7)
        prop = SpectralPropagator(CURVE_MODELS[name](sys).operator, sys.hbar)
        psi0 = ss.product_coherent(sys, ss.CoherentLabel(0.6 - 0.2j, -0.4 + 0.5j))
        # a prime number of times spanning three chunks, and two times
        n = _prime_above(2 * (CHUNK // sys.joint_dim) + 1)
        assert len(time_chunks(n, sys.joint_dim)) == 3
        for times in (np.linspace(0.0, 1.3 / sys.j, n), np.array([0.0, 0.9 / sys.j])):
            for sub in ("x", "y"):
                got = np.concatenate([
                    ss.purity(ss.reduced_density(prop.apply(psi0, times[rows]), sub, sys.dim))
                    for rows in time_chunks(times.size, sys.joint_dim)
                ])
                want = _per_time_purities(prop, psi0, times, sub, sys.dim)
                assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_exact_purity_curve_is_the_chunked_evaluation(self):
        sys = ss.SpinSystem(two_j=10)
        model = ss.exchange_coupling_model(sys, 0.8)
        s0 = ss.CoherentLabel(0.5 + 0.1j, -0.3j)
        times = np.linspace(0.0, 0.6, 1201)
        prop = SpectralPropagator(model.operator, sys.hbar)
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
        prop = SpectralPropagator(CURVE_MODELS[name](sys).operator, sys.hbar)
        psi = ss.product_coherent(sys, ss.CoherentLabel(0.3 + 0.4j, -0.7))
        times = np.array([0.0, 0.2, 0.9, 2.5])
        for xi in (+1, -1):
            states = prop.apply(psi, times, xi)
            assert states.shape == (times.size, sys.joint_dim)
            for t, state in zip(times, states):
                oracle = _per_time_apply(prop, psi, xi * t)
                assert np.max(np.abs(state - oracle)) <= 1e-12
                assert np.array_equal(prop.apply(psi, t, xi), prop.apply(psi, [t], xi)[0])
        assert prop.apply(psi, 0.4).shape == (sys.joint_dim,)
        assert prop.apply(psi, np.array([])).shape == (0, sys.joint_dim)
        with pytest.raises(ValueError):
            prop.apply(psi, np.zeros((2, 2)))

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
        assert [c.stop - c.start for c in chunks[:-1]] == [541] * 7
        assert chunks[-1] == slice(3787, 4328)
        assert len(time_chunks(100, 1681)) == 3
        assert time_chunks(100, 1681)[0] == slice(0, 38)
        assert time_chunks(5, CHUNK + 1) == [slice(i, i + 1) for i in range(5)]
        assert time_chunks(0, 121) == []
