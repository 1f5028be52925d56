"""Built-in Hamiltonian models.

The phase-coupling system (J3 (x) J3 interaction) is the exactly solvable
benchmark: every object along the pipeline -- classical trajectory,
stability matrix, semiclassical purity, exact purity -- has a closed form
here, so the numerical machinery can be checked end to end against it.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .flow import StabilityMatrix, Trajectory
from .numerics import require_hermitian
from .spin import (
    HamiltonianModel,
    SpinSystem,
    binom_sqrt_weights,
    build_spin_operators,
    derivs_from_factors,
)


@dataclass(frozen=True)
class PhaseCouplingParams:
    """Coupling rate of the J3 (x) J3 phase interaction."""

    lam: float
    sys: SpinSystem

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError("coupling rate must be finite")


def phase_coupling_model(params):
    """H = lam * hbar * J3 (x) J3 with closed-form classical function.

    Htilde(u, v) = lam hbar j^2 * G(ux vx) G(uy vy) with G(w) = (1-w)/(1+w);
    its value, gradient and Hessian are installed in closed form, sharing
    G, G' and G'' in one derivs call, rather than through the generic
    polynomial path.
    """
    sys = params.sys

    def make_operator():
        _, _, j3 = build_spin_operators(sys)
        return np.kron(params.lam * sys.hbar * j3, j3)

    j = sys.j
    amp = params.lam * sys.hbar * j * j

    def gamma(w):
        return (1.0 - w) / (1.0 + w)

    def dgamma(w):
        return -2.0 / (1.0 + w) ** 2

    def d2gamma(w):
        return 4.0 / (1.0 + w) ** 3

    def derivs(u, v):
        # the series axis of (n, 2) arguments stays last until the return
        u, v = np.asarray(u).T, np.asarray(v).T
        ux, uy, vx, vy = u[0], u[1], v[0], v[1]
        wx, wy = ux * vx, uy * vy
        gx, gy = gamma(wx), gamma(wy)
        dx, dy = dgamma(wx), dgamma(wy)
        d2x, d2y = d2gamma(wx), d2gamma(wy)
        grad = np.array([
            gy * dx * vx,
            gx * dy * vy,
            gy * dx * ux,
            gx * dy * uy,
        ])
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

    return HamiltonianModel(derivs, make_operator, label="phase_coupling")


def _pc_rates(params, u0, v0):
    """Exponential rates lam_x, lam_y fixed by the conserved products."""
    j = params.sys.j
    lam_x = 1j * params.lam * j * (1.0 - u0[1] * v0[1]) / (1.0 + u0[1] * v0[1])
    lam_y = 1j * params.lam * j * (1.0 - u0[0] * v0[0]) / (1.0 + u0[0] * v0[0])
    return lam_x, lam_y


def pc_trajectory(params, s0, t_final, num_samples=129):
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
    model = phase_coupling_model(params)
    energy = np.full(ts.size, model.htilde(u0, v0))
    return Trajectory(ts=ts, ys=ys, energy=energy)


def pc_stability(params, s0, t_final):
    """Closed-form stability matrix M1 M2, written in regularized form.

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


def pc_purity_sc(params, s0, t_final):
    """Closed-form semiclassical purity for real initial data (regular form)."""
    j = params.sys.j
    ax, ay = abs(s0.sx) ** 2, abs(s0.sy) ** 2
    coeff = 16.0 * (params.lam * j * t_final) ** 2 * ax * ay
    coeff /= (1.0 + ax) ** 2 * (1.0 + ay) ** 2
    return (1.0 + coeff) ** -0.5


def pc_purity_sc_printed(params, s0, t_final):
    """The raw printed purity expression, singular at |u'v'| = 1.

    Kept alongside the regular form so tests can confirm the two agree away
    from the equator.
    """
    u0 = np.array([s0.sx, s0.sy], dtype=complex)
    v0 = np.conj(u0)
    lam_x, lam_y = _pc_rates(params, u0, v0)
    wx, wy = u0[0] * v0[0], u0[1] * v0[1]
    val = 1.0 - 16.0 * wx * wy * lam_x * lam_y * t_final ** 2 / (
        (1.0 - wx ** 2) * (1.0 - wy ** 2)
    )
    return complex(val) ** -0.5


def pc_exact_purity(params, s0, t_final):
    """Exact reduced-state purity of the phase-coupling model (finite sum).

    The four binomial-weighted index sums collapse to an autocorrelation
    form; indices run to 2j since the binomials vanish beyond.
    """
    two_j = params.sys.two_j
    wx = _binomial_probabilities(two_j, abs(s0.sx) ** 2)
    wy = _binomial_probabilities(two_j, abs(s0.sy) ** 2)
    n = np.arange(two_j + 1)
    deltas = (n[:, None] - n[None, :]).ravel()
    # phi[k] = sum_n wy[n] e^{-i lam T n delta_k}; the y double sum is |phi|^2
    phi = wy @ np.exp(-1j * params.lam * t_final * np.outer(n, deltas))
    weights = np.outer(wx, wx).ravel()
    return float(weights @ (np.abs(phi) ** 2))


def _binomial_probabilities(two_j, mod_sq):
    """binom(2j, n) q^n (1-q)^{2j-n} with q = |s|^2 / (1 + |s|^2)."""
    w2 = binom_sqrt_weights(two_j) ** 2
    n = np.arange(two_j + 1)
    vals = w2 * mod_sq ** n / (1.0 + mod_sq) ** two_j
    return vals


def pc_slin_short_time(params, s0, t_final):
    """Leading short-time linear entropy of the phase coupling."""
    j = params.sys.j
    ax, ay = abs(s0.sx), abs(s0.sy)
    val = math.sqrt(8.0) * ax * ay * j * params.lam * t_final
    val /= (1.0 + ax ** 2) * (1.0 + ay ** 2)
    return val ** 2


@dataclass(frozen=True)
class OperatorTerm:
    """One product term coefficient * Ox^px (x) Oy^py of a joint operator."""

    coefficient: complex
    factor_x: Tuple[str, int]
    factor_y: Tuple[str, int]

    _KINDS = ("J+", "J-", "J3", "I")

    def __post_init__(self):
        for name, (kind, power) in (("factor_x", self.factor_x), ("factor_y", self.factor_y)):
            if kind not in self._KINDS:
                raise ValueError(f"{name} kind must be one of {self._KINDS}, got {kind!r}")
            if power < 0 or int(power) != power:
                raise ValueError(f"{name} power must be a non-negative integer")


def _factor_matrix(ops, kind, power):
    jplus, jminus, j3 = ops
    base = {"J+": jplus, "J-": jminus, "J3": j3, "I": np.eye(j3.shape[0], dtype=complex)}
    return np.linalg.matrix_power(base[kind], power)


def _term_factors(sys, terms):
    """(coefficient, x factor, y factor) of each term, as d x d matrices."""
    ops = build_spin_operators(sys)
    return [
        (complex(term.coefficient), _factor_matrix(ops, *term.factor_x),
         _factor_matrix(ops, *term.factor_y))
        for term in terms
    ]


def assemble_operator(sys, terms):
    """Joint-space matrix for a list of OperatorTerms."""
    total = np.zeros((sys.joint_dim, sys.joint_dim), dtype=complex)
    for coefficient, mx, my in _term_factors(sys, terms):
        total += np.kron(coefficient * mx, my)
    return total


def build_operator_model(sys, terms, label="operator_terms"):
    """Generic Hamiltonian from operator terms (stress-test path).

    The term list must assemble to a Hermitian operator (i.e. be closed
    under conjugation). The classical function is evaluated from the
    per-subsystem factor matrices (derivs_from_factors), never from the
    assembled joint matrix.
    """
    op = assemble_operator(sys, terms)
    require_hermitian(op)
    return HamiltonianModel(
        derivs_from_factors(sys, _term_factors(sys, terms)), lambda: op, label=label,
    )


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
