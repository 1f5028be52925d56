"""Everything downstream of the trajectory: actions, prefactor, propagator,
auxiliary determinants, the stability-matrix purity, and the measured
contraction of spin overlaps and purity onto their large-spin limits.

The purity formula evaluated here is

    P_sc = [1 + 2 d'' / T]^(-1/2),

with d'' built from 2x2 minors of the stability matrix (the blocks of its
row-permuted forms, read from its entries) and T the endpoint chart-factor
ratio (equal to det M along the critical trajectory). The equivalent
determinant form
T / sqrt((d - d')^2 - d''^2) is evaluated alongside and the two must agree,
which is a sharp end-to-end check on the integrated stability matrix.
States are (ux, uy, vx, vy) rows and stability matrices (4, 4) arrays, or
series of them such as a Trajectory's ys and ms. prefactor and purity_sc
take a trajectory alone and read its own stability matrices, so each matrix
meets the endpoint of its own sample. Calls that take a model read hbar and
j from model.sys.
"""

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CausticEncountered, LogBranch, ValidityBreakdown
from .flow import hamilton_equations, integrate_stability, integrate_trajectory, require_chart
from .numerics import IntegratorConfig, cubic_quadrature, det2
from .spin import CoherentLabel, coherent_overlap

CAUSTIC_TOL = 1e-12


@dataclass(frozen=True)
class ActionBundle:
    """Action, quantum correction, and normalization terms of one propagator;
    the direction xi is already folded into s_action and g_corr."""

    s_action: complex
    g_corr: complex
    lambda_tilde: complex
    lambda_norm: float
    hbar: float

    @property
    def exponent(self):
        """(i/hbar)(S + G) - Lambda, the log of the propagator's exponential."""
        return 1j * (self.s_action + self.g_corr) / self.hbar - self.lambda_norm


@dataclass(frozen=True)
class AuxDeterminants:
    """Determinants of the permuted-block matrices plus derived scalars."""

    det_a: complex
    det_b: complex
    det_c: complex
    det_d: complex
    det_ap: complex
    det_bp: complex
    det_cp: complex
    det_dp: complex
    d: complex
    d_prime: complex
    d_dprime: complex


def _minor(m, i, j, a, b):
    """m_ia m_jb - m_ib m_ja (along the last two axes of a stack): det2 of
    the block of rows (i, j) and columns (a, b), with no copy of it."""
    return m[..., i, a] * m[..., j, b] - m[..., i, b] * m[..., j, a]


def aux_determinants(m):
    """Auxiliary determinants of a (4, 4) stability matrix, or of each matrix
    of a (n, 4, 4) series (then every field is an array over the samples).
    Raises ValueError for any other shape. det_a..det_d are the A, B, C, D
    blocks of m with its rows in the order (0, 3, 2, 1), det_ap..det_dp in
    the order (0, 2, 1, 3)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4) or m.ndim > 3:
        raise ValueError(f"stability matrix must be (4, 4) or (n, 4, 4), got {m.shape}")
    det_a, det_b = _minor(m, 0, 3, 0, 1), _minor(m, 2, 1, 2, 3)
    det_c, det_d = _minor(m, 2, 1, 0, 1), _minor(m, 0, 3, 2, 3)
    det_ap, det_bp = _minor(m, 0, 2, 0, 1), _minor(m, 1, 3, 2, 3)
    det_cp, det_dp = _minor(m, 1, 3, 0, 1), _minor(m, 0, 2, 2, 3)
    d = (_minor(m, 0, 1, 0, 1) * _minor(m, 2, 3, 2, 3)
         + _minor(m, 0, 1, 2, 3) * _minor(m, 2, 3, 0, 1))
    d_prime = det_a * det_b + det_c * det_d
    d_dprime = det_ap * det_bp + det_cp * det_dp
    return AuxDeterminants(
        det_a=det_a, det_b=det_b, det_c=det_c, det_d=det_d,
        det_ap=det_ap, det_bp=det_bp, det_cp=det_cp, det_dp=det_dp,
        d=d, d_prime=d_prime, d_dprime=d_dprime,
    )


def _chart_product(y):
    """prod_k (1 + u_k v_k) at a (ux, uy, vx, vy) row, or along (..., 4) rows."""
    return (1.0 + y[..., 0] * y[..., 2]) * (1.0 + y[..., 1] * y[..., 3])


def endpoint_factor(start, end):
    """prod_k (1 + u''_k v''_k)^2 / (1 + u'_k v'_k)^2 (equals det M) between
    (ux, uy, vx, vy) rows; end may be a series of rows, such as traj.ys.
    Raises ValueError unless both last axes hold 4 entries."""
    start, end = np.asarray(start), np.asarray(end)
    if start.shape[-1:] != (4,) or end.shape[-1:] != (4,):
        raise ValueError(f"states must be (..., 4) rows, got {start.shape} and {end.shape}")
    return (_chart_product(end) / _chart_product(start)) ** 2


def _principal_log(z):
    if z.real <= 0.0 and abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
        raise LogBranch(f"log argument {z} sits on the branch cut")
    return cmath.log(z)


def action_integrals(model, traj, xi):
    """Action and quantum-correction integrals along a sampled trajectory.

    Quadratures reuse the trajectory's own sample grid (fourth order local
    cubics); the precondition is that the grid resolves the integrands, as
    integrate_trajectory's default of DEFAULT_SAMPLES uniform samples does
    on the short times the formulas hold at. Both come from one series
    model.derivs call through flow.hamilton_equations: the field, and the
    split trace sum_k [d(udot_k)/du_k - d(vdot_k)/dv_k] of its Jacobian.

    The boundary term lambda_norm is evaluated for the diagonal endpoint
    choice: bra label fixed at u(T), ket label at the start label.
    """
    j, hb = model.sys.j, model.sys.hbar
    n = len(traj)
    u, v = traj.ys[:, :2], traj.ys[:, 2:4]
    p = 1.0 + u * v
    require_chart(np.abs(p).min())
    _, g, hss = model.derivs(u, v)
    field, jac = hamilton_equations(model.sys, traj.ys.T, g.T, hss.transpose(1, 2, 0))
    du, dv = np.transpose(field[:2]), np.transpose(field[2:])
    f_s = j * np.sum((u * dv - v * du) / p, axis=1) - 1j * traj.energy / hb
    f_g = jac[0] + jac[5] - jac[10] - jac[15]
    i_s = cubic_quadrature(traj.ts, f_s) if n > 1 else 0.0
    i_g = cubic_quadrature(traj.ts, f_g) if n > 1 else 0.0

    lam_tilde = j * sum(_principal_log(p[0, k] * p[-1, k]) for k in range(2))
    # bra label s_eta = u(T): s_eta^* = v(T) on real trajectories
    lam_norm = float(
        j * np.sum(np.log((1.0 + np.abs(u[-1]) ** 2) * (1.0 + np.abs(u[0]) ** 2)))
    )

    log_s = xi * i_s + lam_tilde          # this is (i/hbar) * S_xi
    log_g = -(xi / 4.0) * i_g             # this is (i/hbar) * G_xi
    return ActionBundle(
        s_action=-1j * hb * log_s,
        g_corr=-1j * hb * log_g,
        lambda_tilde=lam_tilde,
        lambda_norm=lam_norm,
        hbar=hb,
    )


def prefactor(traj, xi=+1):
    """Square root of the propagator prefactor with continuous branch tracking.

    The prefactor series P(t) is evaluated at every sample of traj, from
    its own stability matrices; its argument is unwound along the series so
    the square root picks up -pi per completed turn, mirroring a
    Maslov-type index.
    """
    m = integrate_stability(traj)
    det_block = det2(m[:, 2:, 2:] if xi == +1 else m[:, :2, :2])
    caustic = np.flatnonzero(np.abs(det_block) < CAUSTIC_TOL)
    if caustic.size:
        i = caustic[0]
        raise CausticEncountered(
            f"|det M_{'vv' if xi == +1 else 'uu'}| = {abs(det_block[i]):.3e} "
            f"at t = {traj.ts[i]:.6e}"
        )
    ratio = _chart_product(traj.ys) / _chart_product(traj.initial)
    vals = ratio / det_block
    theta = np.unwrap(np.angle(vals))
    return np.sqrt(np.abs(vals[-1])) * np.exp(0.5j * theta[-1])


def semiclassical_propagator_real(model, s0, t_final, cfg=None):
    """Diagonal-endpoint semiclassical propagator on the real critical trajectory.

    Evaluates sqrt(P) * exp[(i/hbar)(S + G) - Lambda] with the bra label
    fixed at the trajectory endpoint, where the single real trajectory
    satisfies the boundary conditions exactly. Returns (value, s_eta), with
    s_eta that bra label, u(T) (s0 at t_final = 0).
    """
    if t_final == 0:
        return 1.0 + 0.0j, s0
    traj = integrate_trajectory(model, s0, t_final, cfg or IntegratorConfig())
    bundle = action_integrals(model, traj, +1)
    root_pref = prefactor(traj, +1)
    return root_pref * cmath.exp(bundle.exponent), CoherentLabel(*traj.final[:2])


@dataclass(frozen=True)
class PurityEvaluation:
    """purity_sc with its consistency diagnostics: scalars for one stability
    matrix, arrays over the samples for a series.

    reason is None where the formula holds and says which validity condition
    failed where it does not; those samples carry nan in p_sc and
    im_residual.
    """

    p_sc: float
    im_residual: float
    tcal: complex
    reason: str


def purity_sc_evaluate(m, start, end):
    """Full stability-matrix purity evaluation with diagnostics.

    m is one (4, 4) stability matrix with end one (ux, uy, vx, vy) row, or a
    (n, 4, 4) series with end the matching (n, 4) rows (start stays the
    t = 0 row). Returns the principal-branch value of [1 + 2 d''/T]^(-1/2)
    and checks it against the determinant form T / sqrt((d-d')^2 - d''^2);
    disagreement beyond 1e-7 relative means the matrix is inconsistent with
    its own endpoint factor. Samples that fail a check are flagged through
    reason, never raised: the first failing check, in the order below,
    names it.
    """
    aux = aux_determinants(m)
    tcal = endpoint_factor(start, end)
    radicand = 1.0 + 2.0 * aux.d_dprime / tcal
    det_form_sq = (aux.d - aux.d_prime) ** 2 - aux.d_dprime ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        p_main = radicand ** -0.5
        p_det = tcal / np.sqrt(det_form_sq)
        disagreement = np.abs(p_main - p_det) / np.maximum(np.abs(p_main), 1e-300)
    im_residual = np.abs(p_main.imag)
    checks = (
        (radicand.real <= 0.0, radicand.real,
         "Re(1 + 2 d''/T) = {:.3e} <= 0; outside the validity window"),
        (det_form_sq == 0, det_form_sq, "determinant form vanished"),
        (disagreement > 1e-7, disagreement,
         "purity forms disagree by {:.3e} (> 1e-7): "
         "stability matrix inconsistent with det M = T"),
        (im_residual > 1e-6, im_residual, "|Im P_sc| = {:.3e} > 1e-6"),
    )
    reason = np.full(np.shape(p_main), None, dtype=object)
    for failed, value, message in checks:
        for i in map(tuple, np.argwhere(failed)):
            if reason[i] is None:
                reason[i] = message.format(value[i])
    flagged = np.not_equal(reason, None)
    return PurityEvaluation(
        p_sc=np.where(flagged, np.nan, p_main.real)[()],
        im_residual=np.where(flagged, np.nan, im_residual)[()],
        tcal=tcal[()],
        reason=reason[()],
    )


def purity_sc(traj, sample=-1):
    """Semiclassical purity at one sample of a trajectory, from the
    stability matrix and the endpoint of that same sample.

    Raises ValidityBreakdown where purity_sc_evaluate flags the sample.
    """
    ev = purity_sc_evaluate(integrate_stability(traj)[sample], traj.initial, traj.ys[sample])
    reason = next((r for r in np.ravel(ev.reason) if r is not None), None)
    if reason is not None:
        raise ValidityBreakdown(reason)
    return ev.p_sc


@dataclass(frozen=True)
class ContractionRow:
    two_j: int
    overlap_error: float
    purity_error: float
    purity_sc: float


@dataclass(frozen=True)
class ContractionReport:
    """Convergence of spin formulas onto their harmonic-oscillator limits."""

    rows: Sequence[ContractionRow]
    purity_target: float
    overlap_order: float
    purity_order: float


def _fit_order(two_js, errors):
    """Least-squares slope of log(error) against log(1/j)."""
    xs, ys = [], []
    for tj, err in zip(two_js, errors):
        if err > 0:
            xs.append(np.log(2.0 / tj))
            ys.append(np.log(err))
    if len(xs) < 2:
        return float("inf")
    return float(np.polyfit(xs, ys, 1)[0])


def contraction_checks(systems, z0, lam=1.0, lam_t=0.02, cfg=None):
    """Measure convergence of spin overlaps and purity onto canonical limits.

    Labels are scaled as s = z / sqrt(2j) per system; the purity leg runs the
    phase-coupling pipeline at fixed lam * T = lam_t and compares against the
    harmonic short-time value 1 - 2 |z_x|^2 |z_y|^2 (lam T)^2.
    """
    from .models import PhaseCouplingParams, phase_coupling_model

    cfg = cfg or IntegratorConfig()
    z_eta, z_mu = complex(z0[0]), complex(z0[1])
    can_overlap = cmath.exp(
        np.conj(z_eta) * z_mu - 0.5 * abs(z_eta) ** 2 - 0.5 * abs(z_mu) ** 2
    )
    target = 1.0 - 2.0 * abs(z_eta) ** 2 * abs(z_mu) ** 2 * lam_t ** 2
    rows = []
    for sys in systems:
        scale = 1.0 / np.sqrt(sys.two_j)
        ov = coherent_overlap(sys, z_eta * scale, z_mu * scale)
        ov_err = abs(ov - can_overlap)
        s0 = CoherentLabel(z_eta * scale, z_mu * scale)
        model = phase_coupling_model(PhaseCouplingParams(lam=lam, sys=sys))
        t_final = lam_t / lam
        p = purity_sc(integrate_trajectory(model, s0, t_final, cfg, sample_times=[t_final]))
        rows.append(ContractionRow(
            two_j=sys.two_j,
            overlap_error=float(ov_err),
            purity_error=float(abs(p - target)),
            purity_sc=p,
        ))
    two_js = [r.two_j for r in rows]
    return ContractionReport(
        rows=tuple(rows),
        purity_target=target,
        overlap_order=_fit_order(two_js, [r.overlap_error for r in rows]),
        purity_order=_fit_order(two_js, [r.purity_error for r in rows]),
    )
