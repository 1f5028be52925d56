"""Spin coherent states, the operator-term format, and the classical
Hamiltonian.

A one-spin factor kind^power of a term is one band (_factor_band); the
joint operator's entries are built from the bands (models._term_entries),
and the classical function from the factors' closed-form coherent-state
symbols (derivs_from_terms). No d x d or joint matrix is formed here.

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

from .errors import ScaleOverflow

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


def _factor_band(two_j, kind, power):
    """The one band of A = kind^power on one spin, as (offset, values).

    A[r, c] is nonzero only where r - c = offset, and values[i] is A at
    row i + max(offset, 0), column i + max(-offset, 0). J+^p has offset p,
    and at column n its value is the product of the p ladder coefficients
    J+[n + k + 1, n + k] = sqrt((2j - n - k)(n + k + 1)), k < p (an empty
    band for p > 2j); J-^p = (J+^p)^T has offset -p and the same values.
    J3^p is (n - j)^p on the diagonal and I is ones. Zero values are kept.
    """
    n = np.arange(two_j + 1.0)
    if kind == "J3":
        return 0, (n - 0.5 * two_j) ** power
    if kind == "I" or power == 0:
        return 0, np.ones(two_j + 1)
    ladder = np.sqrt((two_j - n[:-1]) * (n[:-1] + 1))
    size = max(two_j + 1 - power, 0)
    values = ladder[:size]
    for k in range(1, power):
        values = values * ladder[k:k + size]
    return (power if kind == "J+" else -power), values


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
