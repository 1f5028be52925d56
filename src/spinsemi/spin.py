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
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ScaleOverflow

# two_j * log(1 + |s|^2) beyond this makes (1+|s|^2)^j overflow doubles
_LOG_RANGE_GUARD = 600.0


@dataclass(frozen=True)
class SpinSystem:
    """Two identical spin-j subsystems; j is stored exactly as two_j, an int."""

    two_j: int
    hbar: float = 1.0

    def __post_init__(self):
        two_j = operator.index(self.two_j) if hasattr(self.two_j, "__index__") else -1
        if two_j < 0 or isinstance(self.two_j, bool):
            raise ValueError("two_j must be a non-negative integer")
        object.__setattr__(self, "two_j", two_j)
        # written as not (...) so that nan is rejected too
        if isinstance(self.hbar, bool) or not 0 < self.hbar < math.inf:
            raise ValueError("hbar must be a positive finite number")

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


def _factor_polynomial(two_j, kind, power):
    """Symbol (v|A|u) / (v|u) of A = kind^power on one spin, in closed form:
    (kind, coefficients) of the polynomial sum_e coefficients[e] xi^e in the
    chart variable xi of that kind (_side_partials), or (None, [value]) for a
    constant. J+^p gives (2j)_p q^p, with (2j)_p the falling factorial (zero
    for p > 2j), and so does J-^p in its q. J3^p gives the p-th moment s_p
    of n - j for n binomial(2j, (1 + z) / 2), by the recursion
    s_{p+1} = j z s_p + (1 - z^2) / 2 ds_p/dz from s_0 = 1. I gives 1.
    (Arecchi, Courtens, Gilmore & Thomas, Phys. Rev. A 6, 2211 (1972).)
    """
    if kind == "J3":
        s = np.ones(1)  # coefficients of z^0, z^1, ...
        for _ in range(power):
            ds = np.arange(1, len(s)) * s[1:]
            s = np.pad(0.5 * two_j * s, (1, 0)) + 0.5 * (np.pad(ds, (0, 2)) - np.pad(ds, (2, 0)))
        coefficients = s.tolist()
    elif kind == "I" or power == 0:
        coefficients = [1.0]
    else:
        coefficients = [0.0] * power + [float(math.prod(range(two_j, two_j - power, -1)))]
    while len(coefficients) > 1 and not coefficients[-1]:
        coefficients.pop()
    return (kind if len(coefficients) > 1 else None), coefficients


def _polynomial_partials(coefficients, xi):
    """(P, P_u, P_v, P_uu, P_uv, P_vv) of P(xi) = sum_e coefficients[e] xi^e
    from xi's partials, by the chain rule: P' xi_a and P'' xi_a xi_b +
    P' xi_ab, with P, P' and P''/2 from one Horner pass."""
    x, xu, xv, xuu, xuv, xvv = xi
    p, d1, d2 = coefficients[-1], 0.0, 0.0
    for c in coefficients[-2::-1]:
        d2 = d2 * x + d1
        d1 = d1 * x + p
        p = p * x + c
    d2 = 2.0 * d2
    return (p, d1 * xu, d1 * xv, d2 * xu * xu + d1 * xuu, d2 * xu * xv + d1 * xuv,
            d2 * xv * xv + d1 * xvv)


def _side_partials(u, v, slots):
    """Partials (P, P_u, P_v, P_uu, P_uv, P_vv) of each slot's symbol at one
    spin's (u, v), in one walk over the slots, each chart formed inline.

    With r = 1 / (1 + uv): q = v r (J+) has q_u = -q^2, q_v = r^2,
    q_uu = 2 q^3, q_uv = -2 q r^2 and q_vv = -2 u r^3; q = u r (J-) is the
    same with u and v swapped; z = (uv - 1) r (J3) has z_u = 2 v r^2,
    z_v = 2 u r^2, z_uu = -4 v^2 r^3, z_uv = -2 z r^2 and z_vv = -4 u^2 r^3.
    A slot is (kind, coefficients) of its polynomial in that chart, with
    coefficients None for the chart variable itself (kind None for 1).
    """
    w = u * v
    r = 1.0 / (1.0 + w)
    r2 = r * r
    out = []
    for kind, coefficients in slots:
        if kind == "J+":
            q = v * r
            xi = (q, -q * q, r2, 2.0 * q * q * q, -2.0 * q * r2, -2.0 * u * r * r2)
        elif kind == "J-":
            q = u * r
            xi = (q, r2, -q * q, -2.0 * v * r * r2, -2.0 * q * r2, 2.0 * q * q * q)
        elif kind == "J3":
            z = (w - 1.0) * r
            zu, zv = 2.0 * v * r2, 2.0 * u * r2
            xi = (z, zu, zv, -2.0 * v * r * zu, -2.0 * z * r2, -2.0 * u * r * zv)
        else:  # a constant: its value is in the term's coefficient
            xi = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        out.append(xi if coefficients is None else _polynomial_partials(coefficients, xi))
    return out


def _side_values(u, v, slots):
    """The value P of each slot's symbol at one spin's (u, v): the first of
    _side_partials' partials, in the same arithmetic, with no derivative."""
    w = u * v
    r = 1.0 / (1.0 + w)
    out = []
    for kind, coefficients in slots:
        x = p = (v * r if kind == "J+" else u * r if kind == "J-"
                 else (w - 1.0) * r if kind == "J3" else 1.0)
        if coefficients is not None:
            p = coefficients[-1]
            for c in coefficients[-2::-1]:
                p = p * x + c
        out.append(p)
    return out


def derivs_from_terms(sys, terms):
    """Classical derivs of H = sum_t c_t A_t (x) B_t from closed-form symbols.

    htilde is sum_t c_t phi_t^x phi_t^y, with phi_t^k the symbol of the
    term's factor on spin k, a polynomial in one chart variable of that spin
    (_factor_polynomial). A call walks each side's distinct factors once,
    forming each one's chart inline and its six partials of order <= 2 by
    the chain rule (_side_partials), and sums the terms' products, in the
    same arithmetic on Python complex scalars (one point) and on numpy rows
    (a series); its cost does not depend on j. A constant factor and the
    scale of a linear symbol (power 1) move into the term's coefficient
    here, so neither costs arithmetic to form per call, and terms that
    vanish are dropped.

    The returned derivs(u, v) packs into arrays the entries of
    derivs.point(ux, uy, vx, vy), which returns them unpacked: h, the
    gradient and the Hessian's rows, 21 Python complex numbers at one
    point, which the ODE kernel reads as they are (model.point_derivs).
    derivs.htilde(u, v) is derivs(u, v)[0] to the bit, from the symbols'
    values alone (_side_values), for callers that need h only.
    """
    slots = ({}, {})  # per side: (kind, coefficients) -> slot index
    pairs = []
    for term in terms:
        c, at = complex(term.coefficient), []
        for side, factor in zip(slots, (term.factor_x, term.factor_y)):
            kind, coefficients = _factor_polynomial(sys.two_j, *factor)
            if kind is None or len(coefficients) == 2 and not coefficients[0]:
                c *= coefficients[-1]
                coefficients = None
            at.append(side.setdefault((kind, coefficients and tuple(coefficients)), len(side)))
        if c:
            pairs.append((c, *at))
    slots_x, slots_y = map(list, slots)

    def point(ux, uy, vx, vy):
        """The 21 entries of derivs at (ux, uy, vx, vy): h, the gradient
        and the Hessian's 16 entries row-major, in the order (ux, uy, vx,
        vy), its lower triangle the upper one mirrored; Python complex
        scalars for scalar arguments, numpy rows for rows."""
        xs = _side_partials(ux, vx, slots_x)
        ys = _side_partials(uy, vy, slots_y)
        h = gux = guy = gvx = gvy = 0.0
        h00 = h01 = h02 = h03 = h11 = h12 = h13 = h22 = h23 = h33 = 0.0
        for c, ix, iy in pairs:
            x0, x1, x2, x3, x4, x5 = xs[ix]
            y0, y1, y2, y3, y4, y5 = ys[iy]
            cx0, cx1, cx2, cy0 = c * x0, c * x1, c * x2, c * y0
            h += cx0 * y0
            gux += x1 * cy0
            guy += cx0 * y1
            gvx += x2 * cy0
            gvy += cx0 * y2
            h00 += x3 * cy0
            h01 += cx1 * y1
            h02 += x4 * cy0
            h03 += cx1 * y2
            h11 += cx0 * y3
            h12 += cx2 * y1
            h13 += cx0 * y4
            h22 += x5 * cy0
            h23 += cx2 * y2
            h33 += cx0 * y5
        return (h, gux, guy, gvx, gvy, h00, h01, h02, h03, h01, h11, h12, h13,
                h02, h12, h22, h23, h03, h13, h23, h33)

    def derivs(u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        if u.ndim == 1:
            out = np.array(point(*u.tolist(), *v.tolist()), dtype=complex)
            return out[0], out[1:5], out[5:].reshape(4, 4)
        (ux, uy), (vx, vy) = u.T, v.T
        rows = np.array(np.broadcast_arrays(ux, *point(ux, uy, vx, vy))[1:], dtype=complex)
        return rows[0], rows[1:5].T, rows[5:].T.reshape(-1, 4, 4)

    def htilde(u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        if u.ndim == 1:
            xs = _side_values(u[0].item(), v[0].item(), slots_x)
            ys = _side_values(u[1].item(), v[1].item(), slots_y)
        else:
            xs = _side_values(u[:, 0], v[:, 0], slots_x)
            ys = _side_values(u[:, 1], v[:, 1], slots_y)
        h = 0.0
        for c, ix, iy in pairs:
            h += c * xs[ix] * ys[iy]
        return np.array(np.broadcast_to(h, u.shape[:-1]), dtype=complex)[()]

    derivs.point = point
    derivs.htilde = htilde
    return derivs
