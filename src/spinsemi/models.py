"""Hamiltonian models: a model is its operator-term list.

HamiltonianModel holds the list, its classical function and the entries of
the joint operator it sums to; build_operator_model is its one constructor.
Both engines start from the list: the classical function from the closed-form
symbols of the terms' factors (or a model's own closed form), the exact
engine from the sectors of the entries, which come from the factors' bands
(spin._factor_band). model.operator, the dense joint matrix, is those
entries scattered into zeros on its first read; no run reads it.

The phase-coupling system (J3 (x) J3 interaction) is the exactly solvable
benchmark. Its classical function, semiclassical purity and exact purity
have closed forms here (_pc_derivs, pc_purity_sc, pc_exact_purity); its
closed-form trajectory and stability matrix, which only check the
integration, live with the test oracles.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import require_hermitian
from .quantum import Sectors, connected_sectors
from .spin import (
    OperatorTerm,
    SpinSystem,
    _factor_band,
    binom_sqrt_weights,
    derivs_from_terms,
)


@dataclass(frozen=True)
class PhaseCouplingParams:
    """Coupling rate of the J3 (x) J3 phase interaction."""

    lam: float
    sys: SpinSystem

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError("coupling rate must be finite")


def _pc_derivs(params):
    """Closed-form derivs of Htilde(u, v) = lam hbar j^2 G(ux vx) G(uy vy),
    G(w) = (1-w)/(1+w): value, gradient and Hessian share G, G' and G''
    in one call, rather than going through the generic symbol path."""
    j = params.sys.j
    amp = params.lam * params.sys.hbar * j * j

    def derivs(u, v):
        # the series axis of (n, 2) arguments stays last until the return
        u, v = np.asarray(u).T, np.asarray(v).T
        ux, uy, vx, vy = u[0], u[1], v[0], v[1]
        wx, wy = ux * vx, uy * vy
        gx, gy = (1.0 - wx) / (1.0 + wx), (1.0 - wy) / (1.0 + wy)  # G
        dx, dy = -2.0 / (1.0 + wx) ** 2, -2.0 / (1.0 + wy) ** 2  # G'
        d2x, d2y = 4.0 / (1.0 + wx) ** 3, 4.0 / (1.0 + wy) ** 3  # G''
        grad = np.array([gy * dx * vx, gx * dy * vy, gy * dx * ux, gx * dy * uy])
        h = np.empty((4, 4) + wx.shape, dtype=complex)
        # ordering (ux, uy, vx, vy)
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
        h *= amp
        # h is symmetric, so h.T puts the series axis first without
        # reordering the 4x4 entries
        return amp * gx * gy, amp * grad.T, h.T

    return derivs


def phase_coupling_model(params):
    """H = lam * hbar * J3 (x) J3, with the closed-form derivs (_pc_derivs)."""
    sys = params.sys
    term = OperatorTerm(params.lam * sys.hbar, ("J3", 1), ("J3", 1))
    return build_operator_model(sys, [term], label="phase_coupling", derivs=_pc_derivs(params))


def pc_purity_sc(params, s0, t_final):
    """Closed-form semiclassical purity for real initial data (regular form)."""
    j = params.sys.j
    ax, ay = abs(s0.sx) ** 2, abs(s0.sy) ** 2
    coeff = 16.0 * (params.lam * j * t_final) ** 2 * ax * ay
    coeff /= (1.0 + ax) ** 2 * (1.0 + ay) ** 2
    return (1.0 + coeff) ** -0.5


def pc_exact_purity(params, s0, t_final):
    """Exact reduced-state purity of the phase-coupling model (finite sum).

    The four binomial-weighted index sums collapse to an autocorrelation
    form; indices run to 2j since the binomials vanish beyond. The x pair
    (n, n') enters only through delta = n - n', so the sum runs over the
    4j + 1 distinct deltas, each weighted by the autocorrelation of the x
    binomials.
    """
    two_j = params.sys.two_j
    wx = _binomial_probabilities(two_j, abs(s0.sx) ** 2)
    wy = _binomial_probabilities(two_j, abs(s0.sy) ** 2)
    n = np.arange(two_j + 1)
    deltas = np.arange(-two_j, two_j + 1)
    # weights[k] = sum_n wx[n + deltas[k]] wx[n]
    weights = np.correlate(wx, wx, mode="full")
    # phi[k] = sum_n wy[n] e^{-i lam T n delta_k}; the y double sum is |phi|^2
    phi = wy @ np.exp(-1j * params.lam * t_final * np.outer(n, deltas))
    return float(weights @ (np.abs(phi) ** 2))


def _binomial_probabilities(two_j, mod_sq):
    """binom(2j, n) q^n (1-q)^{2j-n} with q = |s|^2 / (1 + |s|^2)."""
    w2 = binom_sqrt_weights(two_j) ** 2
    n = np.arange(two_j + 1)
    vals = w2 * mod_sq ** n / (1.0 + mod_sq) ** two_j
    return vals


class HamiltonianModel:
    """A joint Hamiltonian H = sum_t c_t A_t (x) B_t, held as its term list.

    sys is the SpinSystem and terms the frozen tuple of OperatorTerms.
    entries = (keys, values) lists the operator's entries (_term_entries):
    the sorted flat positions r * n + c (n = sys.joint_dim) that the terms
    reach, and the entry summed there. label names the model.

    derivs(u, v) -> (h, grad, hess) is the one entry point of classical
    work. It continues the coherent-state expectation <s|H|s> to independent
    complex arguments u = (ux, uy), v = (vx, vy) and returns, from one
    evaluation, its value, its first partials and its second partials in
    the order (d/dux, d/duy, d/dvx, d/dvy). u and v are (2,) for one point,
    giving shapes (), (4,) and (4, 4), or (n, 2) for a series of n points,
    giving (n,), (n, 4) and (n, 4, 4). htilde, grad and hess are views of
    derivs for callers that need one piece.

    sectors is the exact engine's one input: the operator split into the
    sectors it never connects (a quantum.Sectors), built from entries on
    each read. operator is the dense joint-space view of entries (_scatter),
    built on its first read and kept; no run reads it.
    """

    def __init__(self, sys, terms, entries, derivs, label):
        self.sys = sys
        self.terms = terms
        self.entries = entries
        self.derivs = derivs
        self.label = label
        self._operator = None

    def htilde(self, u, v):
        return self.derivs(u, v)[0]

    def grad(self, u, v):
        return self.derivs(u, v)[1]

    def hess(self, u, v):
        return self.derivs(u, v)[2]

    @property
    def operator(self):
        if self._operator is None:
            self._operator = _scatter(self.entries, self.sys.joint_dim)
        return self._operator

    @property
    def sectors(self):
        """The connected components of the entries' (row, column) pairs,
        with each size's blocks looked up in the entries. Where terms
        cancel, these sectors are coarser than those of the summed matrix."""
        n = self.sys.joint_dim
        keys = self.entries[0]
        indices = connected_sectors(keys // n, keys % n, n)
        return Sectors(n, indices, [_entries_at(self.entries, idx[:, :, None] * n + idx[:, None, :])
                                    for idx in indices])


def _band_entries(two_j, factor):
    """(rows, cols, values) of a factor's band without its zero values, as
    np.nonzero would list them (J3's m = 0 for integer j): a term reaches
    no position through a zero factor entry."""
    offset, values = _factor_band(two_j, *factor)
    i = np.flatnonzero(values)
    return i + max(offset, 0), i + max(-offset, 0), values[i]


def _term_entries(sys, terms):
    """(keys, values): the sorted flat positions r * n + c of every joint
    entry a term reaches, and the entry there, summed in term order over
    the terms that reach it.

    Term c Ax (x) Ay reaches ((nx, ny), (mx, my)) wherever the bands
    (_band_entries) of Ax and Ay hold (nx, mx) and (ny, my), so it gives
    about d^2 entries. Each is the product (c Ax)[nx, mx] Ay[ny, my], as
    np.kron forms it.
    """
    n, d = sys.joint_dim, sys.dim
    keys, values = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=complex)]
    for term in terms:
        (rx, cx, vx), (ry, cy, vy) = (_band_entries(sys.two_j, factor)
                                      for factor in (term.factor_x, term.factor_y))
        rows = (rx * d)[:, None] + ry
        cols = (cx * d)[:, None] + cy
        keys.append((rows * n + cols).ravel())
        values.append(((complex(term.coefficient) * vx)[:, None] * vy).ravel())
    # a stable sort keeps each position's products in term order: the first
    # is the entry's start value and add.at adds the rest onto it one by one,
    # ((p1 + p2) + p3) + ..., as a term-by-term sum does (starting from the
    # first product, not 0.0, keeps the sign of a -0.0 part)
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], np.concatenate(values)[order]
    first = np.diff(keys, prepend=-1) != 0
    total = values[first]
    rest = ~first
    np.add.at(total, np.cumsum(first)[rest] - 1, values[rest])
    return keys[first], total


def _scatter(entries, n):
    """The dense n x n matrix of entries, zero where no term reaches."""
    keys, values = entries
    out = np.zeros((n, n), dtype=complex)
    out.flat[keys] = values
    return out


def _entries_at(entries, at):
    """The operator's entries at the flat positions at (any shape), zero
    where no term reaches."""
    keys, values = entries
    if not keys.size:
        return np.zeros(np.shape(at), dtype=complex)
    pos = np.minimum(np.searchsorted(keys, at), keys.size - 1)
    return np.where(keys[pos] == at, values[pos], 0.0)


def build_operator_model(sys, terms, label="operator_terms", derivs=None):
    """The HamiltonianModel of a list of OperatorTerms; every model is
    built here.

    The term list must assemble to a Hermitian operator (i.e. be closed
    under conjugation). That is checked here, on the entries, against their
    mirrored lookup (the whole-matrix check, 1e-12, without the matrix), and
    raises NotHermitian. derivs, when given, is a closed form of the terms'
    classical function; otherwise it comes from the closed-form symbols of
    the terms' factors (derivs_from_terms), never from a matrix.
    """
    terms = tuple(terms)
    entries = _term_entries(sys, terms)
    keys, values = entries
    n = sys.joint_dim
    # H^dagger at (r, c) is conj(H[c, r])
    require_hermitian(values, _entries_at(entries, (keys % n) * n + keys // n).conj())
    return HamiltonianModel(sys, terms, entries, derivs or derivs_from_terms(sys, terms), label)


def free_precession_model(sys, b3):
    """Non-interacting H = b3 (J3 (x) I + I (x) J3)."""
    terms = [
        OperatorTerm(b3, ("J3", 1), ("I", 0)),
        OperatorTerm(b3, ("I", 0), ("J3", 1)),
    ]
    return build_operator_model(sys, terms, label="free_precession")


def exchange_coupling_model(sys, lam):
    """(lam hbar / 2) (J+ (x) J- + J- (x) J+): hopping-type stress model."""
    half = 0.5 * lam * sys.hbar
    terms = [
        OperatorTerm(half, ("J+", 1), ("J-", 1)),
        OperatorTerm(half, ("J-", 1), ("J+", 1)),
    ]
    return build_operator_model(sys, terms, label="exchange_coupling")
