"""Spin-j operators, spin coherent states, the operator-term format, and the
classical Hamiltonian.

Conventions (used everywhere downstream):
  * basis |{-j+n}> with n = 0..2j, so J3 is diagonal ascending;
  * subsystem x is the left Kronecker factor;
  * spin operators are dimensionless (angular momentum / hbar);
  * stereographic labels live in the chart excluding the |+j> pole.
"""

import math
from dataclasses import dataclass
from typing import Tuple

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


# Variable (ux, uy, vx, vy) -> the derivative order it raises, as a flat
# offset into the 9 x 9 table g[(cx, ax), (cy, ay)] of bra orders c and
# ket orders a: ux raises ax, uy raises ay, vx raises cx, vy raises cy.
_ROW_STEP = np.array([1, 0, 3, 0])
_COL_STEP = np.array([0, 1, 0, 3])
_HESS_ROWS = _ROW_STEP[:, None] + _ROW_STEP[None, :]
_HESS_COLS = _COL_STEP[:, None] + _COL_STEP[None, :]


@dataclass(frozen=True)
class OperatorTerm:
    """One product term coefficient * Ox^px (x) Oy^py of a joint operator."""

    coefficient: complex
    factor_x: Tuple[str, int]
    factor_y: Tuple[str, int]

    _KINDS = ("J+", "J-", "J3", "I")

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        for name, (kind, power) in (("factor_x", self.factor_x), ("factor_y", self.factor_y)):
            if kind not in self._KINDS:
                raise ValueError(f"{name} kind must be one of {self._KINDS}, got {kind!r}")
            if isinstance(power, bool) or not isinstance(power, int) or power < 0:
                raise ValueError(f"{name} power must be a non-negative integer")


def _factor_matrix(ops, kind, power):
    """The d x d matrix of kind^power, from build_spin_operators' ops."""
    jplus, _, j3 = ops
    if kind == "J-":
        # the adjoint of J+^power to the last bit, so that a term list closed
        # under conjugation assembles to an exactly Hermitian matrix
        return _factor_matrix(ops, "J+", power).conj().T
    base = {"J+": jplus, "J3": j3, "I": np.eye(j3.shape[0], dtype=complex)}
    return np.linalg.matrix_power(base[kind], power)


def _term_factors(sys, terms):
    """(coefficient, x factor, y factor) of each term, as d x d matrices."""
    ops = build_spin_operators(sys)
    return [
        (complex(term.coefficient), _factor_matrix(ops, *term.factor_x),
         _factor_matrix(ops, *term.factor_y))
        for term in terms
    ]


def _factor_symbol(two_j, kind, power):
    """Symbol (v|A|u) / (v|u) of A = kind^power on one spin, in closed form.

    Returned as {(a, b, c, e): coefficient} over the monomials
    u^a v^b r^c z^e, with r = 1 / (1 + uv) and z = (uv - 1) / (uv + 1).
    J+^p gives (2j)_p v^p r^p and J-^p gives (2j)_p u^p r^p, with (2j)_p the
    falling factorial (zero for p > 2j). J3^p gives the p-th moment s_p of
    n - j for n binomial(2j, (1 + z) / 2), by the recursion
    s_{p+1} = j z s_p + (1 - z^2) / 2 ds_p/dz from s_0 = 1. I gives 1.
    (Arecchi, Courtens, Gilmore & Thomas, Phys. Rev. A 6, 2211 (1972).)
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


def derivs_from_terms(sys, terms):
    """Classical derivs of H = sum_t c_t A_t (x) B_t from closed-form symbols.

    terms is a sequence of OperatorTerms c_t A_t (x) B_t. htilde is sum_t c_t phi_t^x phi_t^y, with
    phi_t^k the symbol of the term's factor on subsystem k (_factor_symbol).
    Each symbol's 9 partials in (u_k, v_k) are differentiated once, here,
    into one coefficient table over shared monomials; a call evaluates the
    monomials at each point and contracts them with that table, so its cost
    does not depend on j and no (2j+1)-dimensional vector is formed.
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
