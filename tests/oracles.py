"""Test oracles: the dense joint-space layer that src/spinsemi never forms,
closed forms that only check the package, and the integrators it replaced.

Each function here is the independent check of a package path: the factor
matrices of the bands (spin._factor_band), the np.kron sum and np.nonzero
entries of the term entries (models._term_entries), the dense-matrix and
monomial-table derivative paths of derivs_from_terms, and the sector split
of a dense matrix of model.sectors. They use none of the code they check;
tests/test_spin.py::test_oracles_import_nothing_they_check guards that.

The closed forms are steps of the purity's derivation that no run needs:
the phase-coupling trajectory, stability matrix and short-time linear
entropy (pc_trajectory, pc_stability, pc_slin_short_time) and the printed
phase-coupling purity, singular where models.pc_purity_sc is regular; the
permuted-block identity, the harmonic-limit purity and the saddle-point
Gaussian coefficients of a stability matrix, from its own row-permuted
2x2 determinants (permuted_dets); the action Hessians of a stability
matrix and their inverse.

The Dormand-Prince 5(4) integrator that numerics.adaptive_rk replaced is
here too, as the oracle of its states: reference_rk_dp5 on the accepted-step
grid and landing_rk_dp5 on requested samples. reference_rk_dop853 is
adaptive_rk's own step loop written out over the same DOP853 tableau: its
accepted-step grid is the one adaptive_rk takes whatever it samples.
"""

import math

import numpy as np

from spinsemi.errors import DimensionMismatch
from spinsemi.flow import DEFAULT_SAMPLES, StabilityMatrix, Trajectory
from spinsemi.models import _pc_derivs
from spinsemi.numerics import (
    _A,
    _B,
    _C,
    _E3,
    _E5,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    FIRST_STEP,
    det2,
    require_hermitian,
)
from spinsemi.quantum import Sectors, SpectralPropagator, connected_sectors
from spinsemi.spin import _range_guard, binom_sqrt_weights


def build_spin_operators(sys):
    """Ladder and J3 matrices for one spin-j subsystem.

    Jplus[n+1, n] = sqrt((2j-n)(n+1)); J3 = diag(-j, ..., +j).
    """
    d = sys.dim
    j = sys.j
    j3 = np.diag(np.arange(d) - j).astype(complex)
    jplus = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        jplus[n + 1, n] = math.sqrt((sys.two_j - n) * (n + 1))
    return jplus, jplus.conj().T, j3


def factor_matrix(ops, kind, power):
    """The d x d matrix of kind^power, from build_spin_operators' ops."""
    jplus, _, j3 = ops
    if kind == "J-":
        # the adjoint of J+^power to the last bit, so that a term list closed
        # under conjugation assembles to an exactly Hermitian matrix
        return factor_matrix(ops, "J+", power).conj().T
    base = {"J+": jplus, "J3": j3, "I": np.eye(j3.shape[0], dtype=complex)}
    return np.linalg.matrix_power(base[kind], power)


def term_factors(sys, terms):
    """(coefficient, x factor, y factor) of each term, as d x d matrices."""
    ops = build_spin_operators(sys)
    return [
        (complex(term.coefficient), factor_matrix(ops, *term.factor_x),
         factor_matrix(ops, *term.factor_y))
        for term in terms
    ]


def assemble_operator(sys, terms):
    """Dense joint-space matrix for a list of OperatorTerms: the np.kron
    products summed in place onto the first term's product, in term order."""
    products = (np.kron(c * mx, my) for c, mx, my in term_factors(sys, terms))
    total = next(products, None)
    if total is None:
        return np.zeros((sys.joint_dim, sys.joint_dim), dtype=complex)
    for product in products:
        total += product
    return total


def nonzero_entries(sys, terms):
    """(keys, values): the sorted flat positions r * n + c that a term
    reaches through np.nonzero of its factor matrices, and the np.kron
    products (c Ax)[nx, mx] Ay[ny, my] there, summed in term order."""
    n, d = sys.joint_dim, sys.dim
    total = {}
    for c, mx, my in term_factors(sys, terms):
        (rx, cx), (ry, cy) = np.nonzero(mx), np.nonzero(my)
        keys = ((rx * d)[:, None] + ry) * n + (cx * d)[:, None] + cy
        values = (c * mx)[rx, cx][:, None] * my[ry, cy]
        for key, value in zip(keys.ravel().tolist(), values.ravel().tolist()):
            total[key] = total[key] + value if key in total else value
    keys = sorted(total)
    return (np.array(keys, dtype=np.intp),
            np.array([total[key] for key in keys], dtype=complex))


def htilde_from_operator(sys, h_op):
    """Classical derivs of a joint-space Hermitian operator, the dense oracle.

    Returns derivs(u, v) -> (h, grad, hess), the kind of function
    derivs_from_terms returns for a term list, of
    htilde(u, v) = (v|H|u) / prod_k (1 + u_k v_k)^{2j}, where |u) is the
    unnormalized polynomial ket and (v| the matching bra row built from the
    v powers without conjugation. Gradients and Hessians are assembled from
    explicit derivative component vectors, exactly. This dense path works
    for any joint operator and is the oracle of derivs_from_terms near the
    real submanifold; far from it, (v|H|u) is a sum of terms much larger
    than itself and the path loses its accuracy as j grows.
    """
    h_op = np.asarray(h_op, dtype=complex)
    if h_op.shape != (sys.joint_dim, sys.joint_dim):
        raise DimensionMismatch(
            f"operator shape {h_op.shape}, expected {(sys.joint_dim, sys.joint_dim)}"
        )
    require_hermitian(h_op)
    two_j = sys.two_j
    # row r of the polynomial ket's value and first two derivatives has
    # component n = coef[r, n] a^powers[r, n]: sqrt(binomial(2j, n)) times
    # 1, n and n(n-1), with the power clipped at 0 where coef vanishes
    n = np.arange(two_j + 1)
    w = binom_sqrt_weights(two_j)
    coef = np.array([w, w * n, w * n * (n - 1)])
    powers = np.maximum(n - np.arange(3)[:, None], 0)
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def pieces(u, v):
        args = np.array([u[0], u[1], v[0], v[1]], dtype=complex)
        for a in args:
            _range_guard(sys, a)
        kx, ky, bx, by = coef * args[:, None, None] ** powers
        # bras by derivative order (cx, cy); H times kets by (ax, ay)
        bras = {(a, b): np.kron(bx[a], by[b]) for a, b in orders}
        hk = {(a, b): h_op @ np.kron(kx[a], ky[b]) for a, b in orders}
        return bras, hk

    def log_norm_derivs(u, v):
        """First and second partials of ln prod (1+u_k v_k)^{2j}."""
        ux, uy = u
        vx, vy = v
        px, py = 1.0 + ux * vx, 1.0 + uy * vy
        l1 = np.array([two_j * vx / px, two_j * vy / py,
                       two_j * ux / px, two_j * uy / py])
        l2 = np.zeros((4, 4), dtype=complex)
        l2[0, 0] = -two_j * vx ** 2 / px ** 2
        l2[1, 1] = -two_j * vy ** 2 / py ** 2
        l2[2, 2] = -two_j * ux ** 2 / px ** 2
        l2[3, 3] = -two_j * uy ** 2 / py ** 2
        l2[0, 2] = l2[2, 0] = two_j / px ** 2
        l2[1, 3] = l2[3, 1] = two_j / py ** 2
        return l1, l2

    # variable index -> (bra order, ket order) increment
    _BUMP = {0: ((0, 0), (1, 0)), 1: ((0, 0), (0, 1)),
             2: ((1, 0), (0, 0)), 3: ((0, 1), (0, 0))}

    def f_derivs(bras, hk):
        def f(bra_key, ket_key):
            return bras[bra_key] @ hk[ket_key]

        f0 = f((0, 0), (0, 0))
        f1 = np.array([f(*_BUMP[a]) for a in range(4)], dtype=complex)
        f2 = np.empty((4, 4), dtype=complex)
        for a in range(4):
            for b in range(a, 4):
                ba, ka = _BUMP[a]
                bb, kb = _BUMP[b]
                bra_key = (ba[0] + bb[0], ba[1] + bb[1])
                ket_key = (ka[0] + kb[0], ka[1] + kb[1])
                f2[a, b] = f2[b, a] = f(bra_key, ket_key)
        return f0, f1, f2

    def point_derivs(u, v):
        f0, f1, f2 = f_derivs(*pieces(u, v))
        l1, l2 = log_norm_derivs(u, v)
        nrm = ((1.0 + u[0] * v[0]) * (1.0 + u[1] * v[1])) ** two_j
        hess = (
            f2
            - np.outer(f1, l1)
            - np.outer(l1, f1)
            - f0 * l2
            + f0 * np.outer(l1, l1)
        )
        return f0 / nrm, (f1 - f0 * l1) / nrm, hess / nrm

    def derivs(u, v):
        if np.ndim(u) == 1:
            return point_derivs(u, v)
        # a series of (n, 2) points, point by point: the oracle keeps the
        # arithmetic of its single-point evaluation
        h, g, hss = zip(*(point_derivs(a, b) for a, b in zip(u, v)))
        return np.array(h), np.array(g), np.array(hss)

    return derivs


# Variable (ux, uy, vx, vy) -> the derivative order it raises, as a flat
# offset into the 9 x 9 table g[(cx, ax), (cy, ay)] of bra orders c and
# ket orders a: ux raises ax, uy raises ay, vx raises cx, vy raises cy.
_ROW_STEP = np.array([1, 0, 3, 0])
_COL_STEP = np.array([0, 1, 0, 3])
_HESS_ROWS = _ROW_STEP[:, None] + _ROW_STEP[None, :]
_HESS_COLS = _COL_STEP[:, None] + _COL_STEP[None, :]


def _factor_symbol(two_j, kind, power):
    """Symbol (v|A|u) / (v|u) of A = kind^power on one spin, in closed form.

    Returned as {(a, b, c, e): coefficient} over the monomials
    u^a v^b r^c z^e, with r = 1 / (1 + uv) and z = (uv - 1) / (uv + 1).
    J+^p gives (2j)_p v^p r^p and J-^p gives (2j)_p u^p r^p, with (2j)_p the
    falling factorial (zero for p > 2j). J3^p gives the p-th moment s_p of
    n - j for n binomial(2j, (1 + z) / 2), by the recursion
    s_{p+1} = j z s_p + (1 - z^2) / 2 ds_p/dz from s_0 = 1. I gives 1.
    """
    if kind == "J3":
        s = np.ones(1)  # coefficients of z^0, z^1, ...
        for _ in range(power):
            ds = np.arange(1, len(s)) * s[1:]
            s = np.pad(0.5 * two_j * s, (1, 0)) + 0.5 * (np.pad(ds, (0, 2)) - np.pad(ds, (2, 0)))
        return {(0, 0, 0, e): c for e, c in enumerate(s) if c}
    if kind == "I":
        return {(0, 0, 0, 0): 1.0}
    scale = float(math.prod(range(two_j, two_j - power, -1)))
    return {(0, power, power, 0) if kind == "J+" else (power, 0, power, 0): scale}


def _partial(poly, var):
    """d/du (var 0) or d/dv (var 1) of a symbol polynomial. r and z depend
    on uv alone: dr/d(uv) = -r^2 and dz/d(uv) = 2 r^2."""
    out = {}
    for (a, b, c, e), k in poly.items():
        own = (a - 1 + var, b - var)  # the explicit power, lowered
        via = (a + var, b + 1 - var)  # times d(uv)/du = v or d(uv)/dv = u
        for weight, mono in (((a, b)[var], own + (c, e)),
                             (-c, via + (c + 1, e)),
                             (2 * e, via + (c + 2, e - 1))):
            if weight:
                out[mono] = out.get(mono, 0.0) + weight * k
    return out


def _symbol_partials(poly):
    """The 9 partials d^c/dv^c d^a/du^a (c, a <= 2) of a symbol, at flat
    index 3 c + a."""
    out = [poly, _partial(poly, 0)]
    out.append(_partial(out[1], 0))
    for i in range(6):  # d/dv of the entry one bra order lower
        out.append(_partial(out[i], 1))
    return out


def monomial_derivs(sys, terms):
    """Classical derivs of sum_t c_t A_t (x) B_t from a monomial table, the
    oracle of spin.derivs_from_terms.

    Each factor's symbol (_factor_symbol) is a polynomial in the monomials
    u^a v^b r^c z^e of its spin; its 9 partials in (u_k, v_k) are
    differentiated once, here, into one coefficient table over shared
    monomials. A call raises each point's (u, v, r, z) to the table's powers
    and contracts the monomials with that table into the 9 x 9 table of
    products of x and y partials, so its cost does not depend on j either.
    """
    # partials[k][9 t + 3 c + a]: d^c/dv_k^c d^a/du_k^a of phi_t^k
    partials = [[p for factor in factors
                 for p in _symbol_partials(_factor_symbol(sys.two_j, *factor))]
                for factors in ([t.factor_x for t in terms], [t.factor_y for t in terms])]
    monomials = sorted({mono for side in partials for p in side for mono in p})
    index = {mono: i for i, mono in enumerate(monomials)}
    # powers[q, 0, 0, i]: exponent of variable q = u, v, r, z in monomial i
    powers = np.array(monomials, dtype=int).reshape(-1, 4).T.reshape(4, 1, 1, -1)
    # coefficients[k, i, col]: monomial i in partials[k][col], times c_t on x
    coefficients = np.zeros((2, len(monomials), 9 * len(terms)), dtype=complex)
    for k, side in enumerate(partials):
        for col, partial in enumerate(side):
            for mono, coef in partial.items():
                coefficients[k, index[mono], col] = coef
    coefficients[0] *= np.repeat([complex(t.coefficient) for t in terms], 9)

    def derivs(u, v):
        # m points, m = 1 for a single one
        point = np.ndim(u) == 1
        u = np.asarray(u, dtype=complex).reshape(-1, 2)
        v = np.asarray(v, dtype=complex).reshape(-1, 2)
        w = u * v
        r = 1.0 / (1.0 + w)
        # values[i, k, l]: monomial l at (u_k, v_k) of point i
        values = (np.array([u, v, r, (w - 1.0) * r])[..., None] ** powers).prod(axis=0)
        # tables[i, k, t, 3 c + a]: d^c/dv_k^c d^a/du_k^a of c_t phi_t^k
        tables = (values[:, :, None] @ coefficients).reshape(len(u), 2, -1, 9)
        g = tables[:, 0].transpose(0, 2, 1) @ tables[:, 1]
        h, grad, hess = g[:, 0, 0], g[:, _ROW_STEP, _COL_STEP], g[:, _HESS_ROWS, _HESS_COLS]
        if point:
            return h[0], grad[0], hess[0]
        return h, grad, hess

    return derivs


def invariant_sectors(h):
    """Basis indices of the sectors of h, grouped by sector size.

    The sectors are the connected components (connected_sectors) of the
    graph with an edge i - j wherever h[i, j] or h[j, i] is nonzero
    (compared with exact zero), so h has no entry, in either triangle,
    between two sectors.
    """
    n = h.shape[0]
    rows, cols = divmod(np.flatnonzero(h != 0), n)
    return connected_sectors(rows, cols, n)


def dense_sectors(h):
    """Sectors of a dense square matrix h: invariant_sectors(h) and its
    blocks gathered from h."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ValueError("expected a non-empty square matrix")
    indices = invariant_sectors(h)
    return Sectors(h.shape[0], indices,
                   [h[idx[:, :, None], idx[:, None, :]] for idx in indices])


def evolve_state(h, psi0, t, hbar=1.0):
    """Evolve psi0 under a dense Hermitian h for time t (a negative t
    reverses time), through the sectors of h."""
    return SpectralPropagator(dense_sectors(h), hbar).apply(np.asarray(psi0, dtype=complex), t)


def _endpoint_weights(sys, start, end, xi):
    """Diagonal endpoint matrices entering the action-Hessian relations."""
    scale = -2j * sys.hbar_j
    pp = (1.0 + start.u * start.v) ** 2
    pq = (1.0 + end.u * end.v) ** 2
    if xi == +1:
        a = np.diag(scale * start.v ** 2 / pp)
        b = np.diag(scale / pp)
        c = np.diag(scale * end.u ** 2 / pq)
        d = np.diag(scale / pq)
    else:
        a = np.diag(scale * end.v ** 2 / pq)
        b = np.diag(scale / pq)
        c = np.diag(scale * start.u ** 2 / pp)
        d = np.diag(scale / pp)
    return a, b, c, d


def action_hessians_from_stability(sys, stab, start, end, xi=+1):
    """Second derivatives of the action expressed through stability blocks.

    For xi=+1 returns (S_u'u', S_u'v'', S_v''u', S_v''v''); for xi=-1 the
    (S_u''u'', S_u''v', S_v'u'', S_v'v') set. Inverting the returned blocks
    through the companion relations reconstructs the stability matrix.
    """
    a, b, c, d = _endpoint_weights(sys, start, end, xi)
    if xi == +1:
        m_vv_inv = np.linalg.inv(stab.m_vv)
        s_uu = -b @ m_vv_inv @ stab.m_vu - a
        s_uv = b @ m_vv_inv
        s_vu = d @ (stab.m_uu - stab.m_uv @ m_vv_inv @ stab.m_vu)
        s_vv = d @ stab.m_uv @ m_vv_inv - c
    elif xi == -1:
        m_uu_inv = np.linalg.inv(stab.m_uu)
        s_uu = b @ stab.m_vu @ m_uu_inv - a
        s_uv = b @ (stab.m_vv - stab.m_vu @ m_uu_inv @ stab.m_uv)
        s_vu = d @ m_uu_inv
        s_vv = -d @ m_uu_inv @ stab.m_uv - c
    else:
        raise ValueError("xi must be +1 or -1")
    return s_uu, s_uv, s_vu, s_vv


def stability_from_action_hessians(sys, hessians, start, end, xi=+1):
    """Inverse of action_hessians_from_stability: the stability matrix
    rebuilt from the action's second derivatives, the round trip's other
    half."""
    s_uu, s_uv, s_vu, s_vv = hessians
    a, b, c, d = _endpoint_weights(sys, start, end, xi)
    at = s_uu + a
    ct = s_vv + c
    if xi == +1:
        s_uv_inv = np.linalg.inv(s_uv)
        d_inv = np.linalg.inv(d)
        m_uu = d_inv @ (s_vu - ct @ s_uv_inv @ at)
        m_uv = d_inv @ ct @ s_uv_inv @ b
        m_vu = -s_uv_inv @ at
        m_vv = s_uv_inv @ b
    else:
        s_vu_inv = np.linalg.inv(s_vu)
        b_inv = np.linalg.inv(b)
        m_uu = s_vu_inv @ d
        m_uv = -s_vu_inv @ ct
        m_vu = b_inv @ at @ s_vu_inv @ d
        m_vv = b_inv @ (s_uv - at @ s_vu_inv @ ct)
    return StabilityMatrix(np.block([[m_uu, m_uv], [m_vu, m_vv]]))


def permuted_dets(m, perm):
    """det A, det B, det C, det D of the 4x4 matrix m with its rows
    permuted by perm: the top-left, bottom-right, bottom-left and top-right
    2x2 blocks. The row order (0, 3, 2, 1) gives the plain determinants
    det_a ... det_d, (0, 2, 1, 3) the primed ones det_ap ... det_dp."""
    q = np.asarray(m)[list(perm)]
    return det2(q[:2, :2]), det2(q[2:, 2:]), det2(q[2:, :2]), det2(q[:2, 2:])


def block_identity_defect(m, aux):
    """Defect of the permuted-determinant block identities
    M_uv M_vv^-1 = [[D, -D'], [B', B]] / det M_vv and
    M_vu M_uu^-1 = [[C, A'], [-C', A]] / det M_uu of the 4x4 matrix m, with
    the determinants taken from aux (the package's AuxDeterminants of m):
    the larger of the two blocks' largest entry differences, each relative
    to the larger of 1 and its left side's largest entry."""
    m = np.asarray(m)
    d_vv, d_uu = det2(m[2:, 2:]), det2(m[:2, :2])
    pairs = ((m[:2, 2:] @ np.linalg.inv(m[2:, 2:]),
              np.array([[aux.det_d, -aux.det_dp], [aux.det_bp, aux.det_b]]) / d_vv),
             (m[2:, :2] @ np.linalg.inv(m[:2, :2]),
              np.array([[aux.det_c, aux.det_ap], [-aux.det_cp, aux.det_a]]) / d_uu))
    return max(float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))))
               for lhs, rhs in pairs)


def canonical_purity(stab):
    """Harmonic-limit purity of one stability matrix, from its own permuted
    determinants; complex, so that the tests can assert that it lies in
    (0, 1].

    Valid when the endpoint factor has contracted to 1 (large-spin scaled
    labels); then it coincides with the stability-matrix purity.
    """
    det_a, det_b, det_c, det_d = permuted_dets(stab.m, (0, 3, 2, 1))
    det_ap, det_bp, _, _ = permuted_dets(stab.m, (0, 2, 1, 3))
    mm = det2(stab.m_uu) * det2(stab.m_vv)
    e_prime = -4.0 * (mm * det_ap * det_bp) ** 2
    e_dprime = (det_ap ** 2 * det_b * det_d - (det_ap * det_bp) ** 2
                + det_bp ** 2 * det_a * det_c)
    e_full = e_prime + ((mm - det_a * det_b) * (mm - det_c * det_d) - e_dprime) ** 2
    return complex(e_full ** -0.5 * mm)


def gaussian_a1a2(stab):
    """Coefficients of the saddle-point Gaussian integral, from block ratios.

    The integral evaluates to (a1^2 - a2^2)^(-1/2); the pair also satisfies
    a1 * det M_uu * det M_vv = d - d' and a2 * det M_uu * det M_vv = d''.
    """
    m_uu, m_vv = stab.m_uu, stab.m_vv
    m_uv, m_vu = stab.m_uv, stab.m_vu
    x = m_vu @ np.linalg.inv(m_uu)
    y = m_uv @ np.linalg.inv(m_vv)
    a1 = (
        1.0
        + det2(m_vu) / det2(m_uu) * det2(m_uv) / det2(m_vv)
        - x[0, 0] * y[0, 0]
        - x[1, 1] * y[1, 1]
    )
    a2 = x[0, 1] * y[1, 0] + x[1, 0] * y[0, 1]
    return complex(a1), complex(a2)


def _pc_rates(params, u0, v0):
    """Exponential rates lam_x, lam_y fixed by the conserved products."""
    j = params.sys.j
    lam_x = 1j * params.lam * j * (1.0 - u0[1] * v0[1]) / (1.0 + u0[1] * v0[1])
    lam_y = 1j * params.lam * j * (1.0 - u0[0] * v0[0]) / (1.0 + u0[0] * v0[0])
    return lam_x, lam_y


def pc_trajectory(params, s0, t_final, num_samples=DEFAULT_SAMPLES):
    """Closed-form phase-coupling trajectory: u_k(t) = u'_k e^{lam_k t}."""
    u0 = np.array([s0.sx, s0.sy], dtype=complex)
    v0 = np.conj(u0)
    lam_x, lam_y = _pc_rates(params, u0, v0)
    ts = np.linspace(0.0, t_final, num_samples if t_final > 0 else 1)
    ys = np.empty((ts.size, 4), dtype=complex)
    ys[:, 0] = u0[0] * np.exp(lam_x * ts)
    ys[:, 1] = u0[1] * np.exp(lam_y * ts)
    ys[:, 2] = v0[0] * np.exp(-lam_x * ts)
    ys[:, 3] = v0[1] * np.exp(-lam_y * ts)
    energy = np.full(ts.size, _pc_derivs(params)(u0, v0)[0])
    return Trajectory(ts=ts, ys=ys, energy=energy)


def pc_stability(params, s0, t_final):
    """Closed-form phase-coupling stability matrix M1 M2, written in
    regularized form.

    The printed factored entries are 0/0 at |u'v'| = 1; the product only
    involves 2 lam_k t / (1 - (u'v')^2) = 2 i lam j t / (1 + u'v')^2, which
    is regular there, so the equator is an ordinary point.
    """
    u0 = np.array([s0.sx, s0.sy], dtype=complex)
    v0 = np.conj(u0)
    lam_x, lam_y = _pc_rates(params, u0, v0)
    j = params.sys.j
    t = t_final
    gx = 2j * params.lam * j * t / (1.0 + u0[1] * v0[1]) ** 2
    gy = 2j * params.lam * j * t / (1.0 + u0[0] * v0[0]) ** 2
    ex, ey = np.exp(lam_x * t), np.exp(lam_y * t)
    m = np.array([
        [ex, -gx * ex * u0[0] * v0[1], 0.0, -gx * ex * u0[0] * u0[1]],
        [-gy * ey * u0[1] * v0[0], ey, -gy * ey * u0[1] * u0[0], 0.0],
        [0.0, gx / ex * v0[0] * v0[1], 1.0 / ex, gx / ex * v0[0] * u0[1]],
        [gy / ey * v0[1] * v0[0], 0.0, gy / ey * v0[1] * u0[0], 1.0 / ey],
    ])
    return StabilityMatrix(m)


def pc_slin_short_time(params, s0, t_final):
    """Leading short-time linear entropy of the phase coupling."""
    j = params.sys.j
    ax, ay = abs(s0.sx), abs(s0.sy)
    val = math.sqrt(8.0) * ax * ay * j * params.lam * t_final
    val /= (1.0 + ax ** 2) * (1.0 + ay ** 2)
    return val ** 2


def pc_purity_sc_printed(params, s0, t_final):
    """The raw printed phase-coupling purity expression, singular at
    |u'v'| = 1: the check of the regular form models.pc_purity_sc away from
    the equator.
    """
    u0 = np.array([s0.sx, s0.sy], dtype=complex)
    v0 = np.conj(u0)
    lam_x, lam_y = _pc_rates(params, u0, v0)
    wx, wy = u0[0] * v0[0], u0[1] * v0[1]
    val = 1.0 - 16.0 * wx * wy * lam_x * lam_y * t_final ** 2 / (
        (1.0 - wx ** 2) * (1.0 - wy ** 2)
    )
    return complex(val) ** -0.5


# Dormand-Prince 5(4) tableau and its PI step control.
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
DP_E = DP_B5 - DP_B4
DP_MIN_FACTOR, DP_MAX_FACTOR, DP_SAFETY = 0.2, 5.0, 0.9
DP_PI_ALPHA, DP_PI_BETA = 0.7 / 5.0, 0.4 / 5.0


def _dp5_step(field, t, y, h, k, cfg):
    """One Dormand-Prince 5(4) attempt from (t, y) with k[0] = field(t, y):
    the fifth-order state and the RMS error ratio."""
    for i in range(1, 7):
        k[i] = field(t + DP_C[i] * h, y + h * (DP_A[i] @ k[:i]))
    y_new = y + h * (DP_B5 @ k)
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    return y_new, np.sqrt(np.mean(np.abs(h * (DP_E @ k) / scale) ** 2))


def _dp5_next_step(h, err, err_prev):
    """The PI step after an accepted step with error ratio err."""
    err = max(err, 1e-10)
    factor = DP_SAFETY * err ** (-DP_PI_ALPHA) * err_prev ** DP_PI_BETA
    return h * min(DP_MAX_FACTOR, max(DP_MIN_FACTOR, factor)), err


def reference_rk_dp5(field, y0, t1, cfg):
    """Dormand-Prince 5(4) with PI step control from t = 0 to t1; returns
    the accepted-step grid, the states and the number of rejected steps."""
    t, y = 0.0, np.array(y0, dtype=complex)
    h = min(FIRST_STEP, cfg.max_step, t1)
    err_prev = 1.0
    rejected = 0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = field(t, y)
    ts, ys = [t], [y]
    while t < t1 - 1e-14 * max(1.0, t1):
        h_try = min(h, cfg.max_step, t1 - t)
        y_new, err = _dp5_step(field, t, y, h_try, k, cfg)
        if err > 1.0:
            rejected += 1
            h = h_try * max(DP_MIN_FACTOR, DP_SAFETY * err ** (-DP_PI_ALPHA))
            continue
        t, y = t + h_try, y_new
        ts.append(t)
        ys.append(y)
        k[0] = k[6]
        h, err_prev = _dp5_next_step(h_try, err, err_prev)
    ts[-1] = t1
    return np.asarray(ts), np.asarray(ys), rejected


def landing_rk_dp5(field, y0, cfg, samples):
    """Dormand-Prince 5(4) steps, each one shortened to land exactly on the
    next sample; the states at samples, of which samples[0] is the start."""
    t, y = samples[0], np.array(y0, dtype=complex)
    h = min(FIRST_STEP, cfg.max_step, samples[-1] - samples[0])
    err_prev = 1.0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = field(t, y)
    out = [y]
    for target in samples[1:]:
        while t < target - 1e-14 * max(1.0, abs(target)):
            h_try = min(h, cfg.max_step, target - t)
            y_new, err = _dp5_step(field, t, y, h_try, k, cfg)
            if err <= 1.0:
                t, y = t + h_try, y_new
                k[0] = k[6]
                h, err_prev = _dp5_next_step(h_try, err, err_prev)
            else:
                h = h_try * max(DP_MIN_FACTOR, DP_SAFETY * err ** (-DP_PI_ALPHA))
        t = target
        out.append(y)
    return np.array(out)


def reference_rk_dop853(field, y0, t1, cfg):
    """adaptive_rk's accepted-step loop from t = 0 (oracle): the DOP853 steps
    with real weights and the error norm written out, as
    h * err5 / sqrt(n * (err5 + 0.01 * err3)) with err_q the sum of the
    squared scaled order-q estimates; returns the step grid, the states and
    the number of rejected steps."""
    estimators = np.array([_E5, _E3])
    t, y = 0.0, np.array(y0, dtype=complex)
    h = min(FIRST_STEP, cfg.max_step, t1)
    rejected, after_rejection = 0, False
    k = np.empty((12, y.size), dtype=complex)
    k[0] = field(t, y)
    ts, ys = [t], [y]
    while t < t1 - 1e-14 * max(1.0, t1):
        h_try = min(h, cfg.max_step, t1 - t)
        for i in range(1, 12):
            k[i] = field(t + _C[i] * h_try, y + h_try * (_A[i, :i] @ k[:i]))
        y_new = y + h_try * (_B @ k)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        est = (estimators @ k) / scale
        err5, err3 = np.sum(est.real ** 2 + est.imag ** 2, axis=1)
        err = h_try * err5 / np.sqrt(y.size * (err5 + 0.01 * err3))
        if err > 1.0:
            rejected += 1
            after_rejection = True
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-1 / 8))
            continue
        t, y = t + h_try, y_new
        ts.append(t)
        ys.append(y)
        k[0] = field(t, y)
        factor = _SAFETY * max(err, 1e-10) ** (-1 / 8)
        h = h_try * max(_MIN_FACTOR, min(1.0 if after_rejection else _MAX_FACTOR, factor))
        after_rejection = False
    ts[-1] = t1
    return np.asarray(ts), np.asarray(ys), rejected
