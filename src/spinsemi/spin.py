"""Spin-j operators, spin coherent states, and the classical Hamiltonian.

Conventions (used everywhere downstream):
  * basis |{-j+n}> with n = 0..2j, so J3 is diagonal ascending;
  * subsystem x is the left Kronecker factor;
  * spin operators are dimensionless (angular momentum / hbar);
  * stereographic labels live in the chart excluding the |+j> pole.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ScaleOverflow
from .numerics import require_hermitian

# two_j * log(1 + |s|^2) beyond this makes (1+|s|^2)^j overflow doubles
_LOG_RANGE_GUARD = 600.0


@dataclass(frozen=True)
class SpinSystem:
    """Two identical spin-j subsystems; j is stored exactly as two_j."""

    two_j: int
    hbar: float = 1.0

    def __post_init__(self):
        if self.two_j < 0 or int(self.two_j) != self.two_j:
            raise ValueError("two_j must be a non-negative integer")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def j(self):
        return self.two_j / 2.0

    @property
    def dim(self):
        """Dimension of one subsystem."""
        return self.two_j + 1

    @property
    def joint_dim(self):
        return self.dim * self.dim

    @property
    def hbar_j(self):
        """The semiclassical scale hbar*j kept finite in the classical limit."""
        return self.hbar * self.two_j / 2.0


@dataclass(frozen=True)
class CoherentLabel:
    """Stereographic labels of the two subsystems' coherent states."""

    sx: complex
    sy: complex

    def __post_init__(self):
        for name, s in (("sx", self.sx), ("sy", self.sy)):
            if not np.isfinite(complex(s)):
                raise ValueError(f"{name} must be finite (the |+j> pole is excluded)")

    def conj(self):
        return CoherentLabel(np.conj(self.sx), np.conj(self.sy))


class HamiltonianModel:
    """Joint-space operator plus its analytically continued classical function.

    derivs(u, v) -> (h, grad, hess) is the one entry point of classical work.
    It continues the coherent-state expectation <s|H|s> to independent
    complex arguments u = (ux, uy), v = (vx, vy) and returns, from one
    evaluation, its value, its first partials and its second partials in
    the order (d/dux, d/duy, d/dvx, d/dvy). htilde, grad and hess are views
    of derivs for callers that need one piece.

    Models built from operator terms evaluate derivs from per-subsystem
    factor matrices (derivs_from_factors). The dense joint-space path
    (htilde_from_operator) serves arbitrary joint operators and is the test
    oracle of the factored one; the phase-coupling closed forms are the
    oracle of both.

    operator is a zero-argument callable returning the joint-space matrix.
    It runs once, on the first read of the operator property, so purely
    classical work on large spins never materializes that matrix.
    """

    def __init__(self, derivs, operator, label=""):
        self.derivs = derivs
        self.label = label
        self._operator = None
        self._make_operator = operator

    def htilde(self, u, v):
        return self.derivs(u, v)[0]

    def grad(self, u, v):
        return self.derivs(u, v)[1]

    def hess(self, u, v):
        return self.derivs(u, v)[2]

    @property
    def operator(self):
        if self._operator is None:
            self._operator = np.asarray(self._make_operator(), dtype=complex)
        return self._operator


def binom_sqrt_weights(two_j):
    """sqrt(binomial(2j, n)) for n = 0..2j, by cumulative ratio products."""
    w = np.empty(two_j + 1)
    w[0] = 1.0
    for n in range(two_j):
        w[n + 1] = w[n] * math.sqrt((two_j - n) / (n + 1))
    return w


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


def _range_guard(sys, s):
    if sys.two_j * math.log1p(abs(s) ** 2) > _LOG_RANGE_GUARD:
        raise ScaleOverflow(
            f"|s|={abs(s):.3e} with two_j={sys.two_j} exceeds double range"
        )


def coherent_vector(sys, s):
    """Unit vector of the spin coherent state with stereographic label s."""
    s = complex(s)
    _range_guard(sys, s)
    n = np.arange(sys.dim)
    comp = binom_sqrt_weights(sys.two_j) * s ** n
    return comp / (1.0 + abs(s) ** 2) ** sys.j


def coherent_overlap(sys, s_eta, s_mu):
    """<s_eta | s_mu> = (1 + s_eta^* s_mu)^{2j} / normalizers."""
    s_eta, s_mu = complex(s_eta), complex(s_mu)
    _range_guard(sys, s_eta)
    _range_guard(sys, s_mu)
    num = (1.0 + np.conj(s_eta) * s_mu) ** sys.two_j
    return num / ((1.0 + abs(s_eta) ** 2) ** sys.j * (1.0 + abs(s_mu) ** 2) ** sys.j)


def product_coherent(sys, label):
    """Joint product state |sx> (x) |sy> on the (2j+1)^2 space."""
    return np.kron(coherent_vector(sys, label.sx), coherent_vector(sys, label.sy))


def _derivative_rows_spec(two_j):
    """Coefficients and powers of the polynomial ket's value and first two
    derivative rows: row r, component n is coef[r, n] a^powers[r, n] with
    coef = sqrt(binomial(2j, n)) times 1, n and n(n-1). The derivative rows
    carry the shifted powers explicitly (no division by a); where n < r the
    coefficient vanishes and the power is clipped at 0."""
    n = np.arange(two_j + 1)
    w = binom_sqrt_weights(two_j)
    coef = np.array([w, w * n, w * n * (n - 1)])
    powers = np.maximum(n - np.arange(3)[:, None], 0)
    return coef, powers


def _derivative_rows(spec, a):
    """Value, first and second derivative rows of the unnormalized
    polynomial ket (component n is binom(2j,n)^{1/2} a^n) at each complex
    argument in the 1-d array a; shape (len(a), 3, 2j+1)."""
    coef, powers = spec
    return coef * a[:, None, None] ** powers


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
    poly = np.empty((a.size,) + coef.shape, dtype=complex)
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


# Variable (ux, uy, vx, vy) -> the derivative order it raises, as a flat
# offset into the 9 x 9 table g[(cx, ax), (cy, ay)] of bra orders c and
# ket orders a: ux raises ax, uy raises ay, vx raises cx, vy raises cy.
_ROW_STEP = np.array([1, 0, 3, 0])
_COL_STEP = np.array([0, 1, 0, 3])
_HESS_ROWS = _ROW_STEP[:, None] + _ROW_STEP[None, :]
_HESS_COLS = _COL_STEP[:, None] + _COL_STEP[None, :]


def derivs_from_factors(sys, terms):
    """Classical derivs of H = sum_t c_t A_t (x) B_t from d x d factors.

    terms is a sequence of (c_t, A_t, B_t). htilde is
    sum_t c_t phi_t^x phi_t^y with phi_t^k = (v_k|A|u_k) / (1 + u_k v_k)^{2j}
    (B in place of A for k = y), so each point needs per term and subsystem
    one 3x3 table of phi's partials, indexed by bra (v) and ket (u)
    derivative order; the (2j+1)^2 joint space is never touched.
    """
    d, two_j = sys.dim, sys.two_j
    coefficients = np.array([c for c, _, _ in terms], dtype=complex)
    # factors[k, t] is term t's matrix on subsystem k
    factors = np.array([[a for _, a, _ in terms], [b for _, _, b in terms]],
                       dtype=complex).reshape(2, -1, d, d)
    spec = _derivative_rows_spec(two_j)

    def derivs(u, v):
        args = np.concatenate([u, v]).astype(complex)     # ux, uy, vx, vy
        partners = np.concatenate([v, u]).astype(complex)
        _range_guard(sys, np.max(np.abs(args)))
        rows = _centered_rows(spec, args, partners, two_j)
        kets, bras = rows[:2, None], rows[2:, None]
        # tables[k, t, c, a]: d^c/dv_k^c d^a/du_k^a of phi_t^k
        tables = bras @ (factors @ kets.transpose(0, 1, 3, 2))
        # the mixed partial also differentiates the bra's normalization in u
        mixed = two_j / (1.0 + args[:2] * partners[:2]) ** 2
        tables[:, :, 1, 1] -= mixed[:, None] * tables[:, :, 0, 0]
        tx, ty = tables.reshape(2, -1, 9)
        g = (coefficients[:, None] * tx).T @ ty
        return g[0, 0], g[_ROW_STEP, _COL_STEP], g[_HESS_ROWS, _HESS_COLS]

    return derivs


def htilde_from_operator(sys, h_op):
    """Classical Hamiltonian from a joint-space Hermitian operator.

    htilde(u, v) = (v|H|u) / prod_k (1 + u_k v_k)^{2j}, where |u) is the
    unnormalized polynomial ket and (v| the matching bra row built from the
    v powers without conjugation. Gradients and Hessians are assembled from
    explicit derivative component vectors, exactly. This dense path works
    for any joint operator and is the oracle of derivs_from_factors.
    """
    h_op = np.asarray(h_op, dtype=complex)
    if h_op.shape != (sys.joint_dim, sys.joint_dim):
        raise DimensionMismatch(
            f"operator shape {h_op.shape}, expected {(sys.joint_dim, sys.joint_dim)}"
        )
    require_hermitian(h_op)
    two_j = sys.two_j
    spec = _derivative_rows_spec(two_j)

    def pieces(u, v):
        args = np.array([u[0], u[1], v[0], v[1]], dtype=complex)
        for a in args:
            _range_guard(sys, a)
        kx, ky, bx, by = _derivative_rows(spec, args)
        # kets by derivative order (ax, ay); bras by (cx, cy)
        kets = {
            (0, 0): np.kron(kx[0], ky[0]),
            (1, 0): np.kron(kx[1], ky[0]),
            (0, 1): np.kron(kx[0], ky[1]),
            (2, 0): np.kron(kx[2], ky[0]),
            (1, 1): np.kron(kx[1], ky[1]),
            (0, 2): np.kron(kx[0], ky[2]),
        }
        bras = {
            (0, 0): np.kron(bx[0], by[0]),
            (1, 0): np.kron(bx[1], by[0]),
            (0, 1): np.kron(bx[0], by[1]),
            (2, 0): np.kron(bx[2], by[0]),
            (1, 1): np.kron(bx[1], by[1]),
            (0, 2): np.kron(bx[0], by[2]),
        }
        hk = {key: h_op @ ket for key, ket in kets.items()}
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

    def norm_factor(u, v):
        return ((1.0 + u[0] * v[0]) * (1.0 + u[1] * v[1])) ** two_j

    # variable index -> (bra order, ket order) increment
    _BUMP = {0: ((0, 0), (1, 0)), 1: ((0, 0), (0, 1)),
             2: ((1, 0), (0, 0)), 3: ((0, 1), (0, 0))}

    def f_derivs(bras, hk):
        def f(bra_key, ket_key):
            return bras[bra_key] @ hk[ket_key]

        f0 = f((0, 0), (0, 0))
        f1 = np.empty(4, dtype=complex)
        for a in range(4):
            b, k = _BUMP[a]
            f1[a] = f(b, k)
        f2 = np.empty((4, 4), dtype=complex)
        for a in range(4):
            for b in range(a, 4):
                ba, ka = _BUMP[a]
                bb, kb = _BUMP[b]
                bra_key = (ba[0] + bb[0], ba[1] + bb[1])
                ket_key = (ka[0] + kb[0], ka[1] + kb[1])
                f2[a, b] = f2[b, a] = f(bra_key, ket_key)
        return f0, f1, f2

    def derivs(u, v):
        f0, f1, f2 = f_derivs(*pieces(u, v))
        l1, l2 = log_norm_derivs(u, v)
        nrm = norm_factor(u, v)
        hess = (
            f2
            - np.outer(f1, l1)
            - np.outer(l1, f1)
            - f0 * l2
            + f0 * np.outer(l1, l1)
        )
        return f0 / nrm, (f1 - f0 * l1) / nrm, hess / nrm

    return HamiltonianModel(derivs, lambda: h_op, label="operator")
