"""Everything downstream of the trajectory: actions, prefactor, propagator,
auxiliary determinants, the stability-matrix purity, and the canonical-limit
machinery.

The purity formula evaluated here is

    P_sc = [1 + 2 d'' / T]^(-1/2),

with d'' built from determinants of row-permuted 2x2 blocks of the
stability matrix and T the endpoint chart-factor ratio (equal to det M
along the critical trajectory). The equivalent determinant form
T / sqrt((d - d')^2 - d''^2) is evaluated alongside and the two must agree,
which is a sharp end-to-end check on the integrated stability matrix.
"""

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CausticEncountered,
    LogBranch,
    NegativeRadicand,
    ValidityBreakdown,
)
from .flow import (
    StabilityMatrix,
    field_and_jacobian,
    integrate_stability,
    integrate_trajectory,
    split_trace,
)
from .numerics import IntegratorConfig, cubic_quadrature, det2, small_inverse
from .spin import CoherentLabel, coherent_overlap

CAUSTIC_TOL = 1e-12

# row permutations generating the primed/double-primed auxiliary blocks
_PERM_ONE = (0, 3, 2, 1)
_PERM_TWO = (0, 2, 1, 3)


@dataclass(frozen=True)
class ActionBundle:
    """Action, quantum correction, and normalization terms of one propagator."""

    s_action: complex
    g_corr: complex
    lambda_tilde: complex
    lambda_norm: float
    xi: int
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


def _permuted_dets(m, perm):
    """Determinants of the A, B, C, D blocks of m with its rows permuted."""
    top, bottom = list(perm[:2]), list(perm[2:])
    return (det2(m[..., top, :2]), det2(m[..., bottom, 2:]),
            det2(m[..., bottom, :2]), det2(m[..., top, 2:]))


def aux_determinants(stab):
    """Auxiliary determinants of a stability matrix, or of each matrix of a
    (n, 4, 4) series (then every field is an array over the samples)."""
    m = stab.m if isinstance(stab, StabilityMatrix) else np.asarray(stab, dtype=complex)
    det_a, det_b, det_c, det_d = _permuted_dets(m, _PERM_ONE)
    det_ap, det_bp, det_cp, det_dp = _permuted_dets(m, _PERM_TWO)
    d = (det2(m[..., :2, :2]) * det2(m[..., 2:, 2:])
         + det2(m[..., :2, 2:]) * det2(m[..., 2:, :2]))
    d_prime = det_a * det_b + det_c * det_d
    d_dprime = det_ap * det_bp + det_cp * det_dp
    return AuxDeterminants(
        det_a=det_a, det_b=det_b, det_c=det_c, det_d=det_d,
        det_ap=det_ap, det_bp=det_bp, det_cp=det_cp, det_dp=det_dp,
        d=d, d_prime=d_prime, d_dprime=d_dprime,
    )


def _chart_product(state):
    """prod_k (1 + u_k v_k) at a state, or along a series of states."""
    return (1.0 + state.u[..., 0] * state.v[..., 0]) * (1.0 + state.u[..., 1] * state.v[..., 1])


def endpoint_factor(start, end):
    """prod_k (1 + u''_k v''_k)^2 / (1 + u'_k v'_k)^2 (equals det M); end may
    be a series of states, such as traj.state(slice(None))."""
    return (_chart_product(end) / _chart_product(start)) ** 2


def _principal_log(z):
    if z.real <= 0.0 and abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
        raise LogBranch(f"log argument {z} sits on the branch cut")
    return cmath.log(z)


def action_integrals(sys, model, traj, xi):
    """Action and quantum-correction integrals along a sampled trajectory.

    Quadratures reuse the trajectory's own sample grid (fourth order local
    cubics); the precondition is that the grid was produced by the adaptive
    integrator, so it resolves the integrands.

    The boundary term lambda_norm is evaluated for the diagonal endpoint
    choice: bra label fixed at u(T), ket label at the start label.
    """
    j = sys.two_j / 2.0
    n = len(traj)
    f_s = np.empty(n, dtype=complex)
    f_g = np.empty(n, dtype=complex)
    for i in range(n):
        y = traj.ys[i]
        dy, jac = field_and_jacobian(sys, model, y)
        u, v = y[:2], y[2:4]
        du, dv = dy[:2], dy[2:4]
        f_s[i] = j * np.sum((u * dv - v * du) / (1.0 + u * v)) - 1j * traj.energy[i] / sys.hbar
        f_g[i] = split_trace(jac)
    i_s = cubic_quadrature(traj.ts, f_s) if n > 1 else 0.0
    i_g = cubic_quadrature(traj.ts, f_g) if n > 1 else 0.0

    start, end = traj.initial, traj.final
    lam_tilde = j * sum(
        _principal_log((1.0 + start.u[k] * start.v[k]) * (1.0 + end.u[k] * end.v[k]))
        for k in range(2)
    )
    s_eta = end.u  # diagonal endpoint: s_eta^* = v(T) = conj(u(T)) on real trajectories
    s_mu = np.array([traj.start_label.sx, traj.start_label.sy])
    lam_norm = float(
        j * np.sum(np.log((1.0 + np.abs(s_eta) ** 2) * (1.0 + np.abs(s_mu) ** 2)))
    )

    log_s = xi * i_s + lam_tilde          # this is (i/hbar) * S_xi
    log_g = -(xi / 4.0) * i_g             # this is (i/hbar) * G_xi
    hb = sys.hbar
    return ActionBundle(
        s_action=-1j * hb * log_s,
        g_corr=-1j * hb * log_g,
        lambda_tilde=lam_tilde,
        lambda_norm=lam_norm,
        xi=xi,
        hbar=hb,
    )


def prefactor(traj, m_series, xi=+1):
    """Square root of the propagator prefactor with continuous branch tracking.

    The prefactor series P(t) is evaluated at every sample of the
    StabilityMatrix series m_series; its argument is unwound along the
    series so the square root picks up -pi per completed turn, mirroring a
    Maslov-type index.
    """
    if len(m_series) != len(traj):
        raise ValueError("stability series not aligned with trajectory samples")
    det_block = det2(m_series.m_vv if xi == +1 else m_series.m_uu)
    caustic = np.flatnonzero(np.abs(det_block) < CAUSTIC_TOL)
    if caustic.size:
        i = caustic[0]
        raise CausticEncountered(
            f"|det M_{'vv' if xi == +1 else 'uu'}| = {abs(det_block[i]):.3e} "
            f"at t = {traj.ts[i]:.6e}"
        )
    ratio = _chart_product(traj.state(slice(None))) / _chart_product(traj.initial)
    vals = ratio / det_block
    theta = np.unwrap(np.angle(vals))
    return np.sqrt(np.abs(vals[-1])) * np.exp(0.5j * theta[-1])


def semiclassical_propagator_real(sys, model, s0, t_final, cfg=None):
    """Diagonal-endpoint semiclassical propagator on the real critical trajectory.

    Evaluates sqrt(P) * exp[(i/hbar)(S + G) - Lambda] with the bra label
    fixed at the trajectory endpoint, where the single real trajectory
    satisfies the boundary conditions exactly.
    """
    cfg = cfg or IntegratorConfig()
    traj = integrate_trajectory(sys, model, s0, t_final, cfg)
    if t_final == 0:
        return 1.0 + 0.0j
    m_series = integrate_stability(sys, model, traj, cfg)
    bundle = action_integrals(sys, model, traj, +1)
    root_pref = prefactor(traj, m_series, +1)
    return root_pref * cmath.exp(bundle.exponent)


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


def purity_sc_evaluate(stab, start, end):
    """Full stability-matrix purity evaluation with diagnostics.

    stab is one StabilityMatrix with end one state, or a series with end
    the matching series of states (start stays the t = 0 state). Returns
    the principal-branch value of [1 + 2 d''/T]^(-1/2) and checks it
    against the determinant form T / sqrt((d-d')^2 - d''^2); disagreement
    beyond 1e-7 relative means the matrix is inconsistent with its own
    endpoint factor. Samples that fail a check are flagged through reason,
    never raised: the first failing check, in the order below, names it.
    """
    aux = aux_determinants(stab)
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


def purity_sc(stab, traj, sample=-1):
    """Semiclassical purity from a stability matrix and its trajectory.

    Raises ValidityBreakdown where purity_sc_evaluate flags the sample.
    """
    ev = purity_sc_evaluate(stab, traj.initial, traj.state(sample))
    reason = next((r for r in np.ravel(ev.reason) if r is not None), None)
    if reason is not None:
        raise ValidityBreakdown(reason)
    return ev.p_sc


def gaussian_a1a2(stab):
    """Coefficients of the saddle-point Gaussian integral, from block ratios.

    The integral evaluates to (a1^2 - a2^2)^(-1/2); the pair also satisfies
    a1 * det M_uu * det M_vv = d - d' and a2 * det M_uu * det M_vv = d''.
    """
    m_uu, m_vv = stab.m_uu, stab.m_vv
    m_uv, m_vu = stab.m_uv, stab.m_vu
    x = m_vu @ small_inverse(m_uu)
    y = m_uv @ small_inverse(m_vv)
    a1 = (
        1.0
        + det2(m_vu) / det2(m_uu) * det2(m_uv) / det2(m_vv)
        - x[0, 0] * y[0, 0]
        - x[1, 1] * y[1, 1]
    )
    a2 = x[0, 1] * y[1, 0] + x[1, 0] * y[0, 1]
    return complex(a1), complex(a2)


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
        m_vv_inv = small_inverse(stab.m_vv)
        s_uu = -b @ m_vv_inv @ stab.m_vu - a
        s_uv = b @ m_vv_inv
        s_vu = d @ (stab.m_uu - stab.m_uv @ m_vv_inv @ stab.m_vu)
        s_vv = d @ stab.m_uv @ m_vv_inv - c
    elif xi == -1:
        m_uu_inv = small_inverse(stab.m_uu)
        s_uu = b @ stab.m_vu @ m_uu_inv - a
        s_uv = b @ (stab.m_vv - stab.m_vu @ m_uu_inv @ stab.m_uv)
        s_vu = d @ m_uu_inv
        s_vv = -d @ m_uu_inv @ stab.m_uv - c
    else:
        raise ValueError("xi must be +1 or -1")
    return s_uu, s_uv, s_vu, s_vv


def stability_from_action_hessians(sys, hessians, start, end, xi=+1):
    """Inverse of action_hessians_from_stability (round-trip oracle)."""
    s_uu, s_uv, s_vu, s_vv = hessians
    a, b, c, d = _endpoint_weights(sys, start, end, xi)
    if xi == +1:
        at = s_uu + a
        ct = s_vv + c
        s_uv_inv = small_inverse(s_uv)
        d_inv = small_inverse(d)
        m_uu = d_inv @ (s_vu - ct @ s_uv_inv @ at)
        m_uv = d_inv @ ct @ s_uv_inv @ b
        m_vu = -s_uv_inv @ at
        m_vv = s_uv_inv @ b
    else:
        at = s_uu + a
        ct = s_vv + c
        s_vu_inv = small_inverse(s_vu)
        b_inv = small_inverse(b)
        m_uu = s_vu_inv @ d
        m_uv = -s_vu_inv @ ct
        m_vu = b_inv @ at @ s_vu_inv @ d
        m_vv = b_inv @ (s_uv - at @ s_vu_inv @ ct)
    return StabilityMatrix(np.block([[m_uu, m_uv], [m_vu, m_vv]]))


@dataclass(frozen=True)
class CanonicalPurityInputs:
    """Stability blocks plus the derived determinants feeding the
    canonical (harmonic-limit) purity formula."""

    m_uu: np.ndarray
    m_uv: np.ndarray
    m_vu: np.ndarray
    m_vv: np.ndarray

    @classmethod
    def from_stability(cls, stab):
        return cls(stab.m_uu, stab.m_uv, stab.m_vu, stab.m_vv)

    def block_identity_defect(self):
        """Residual of the permuted-determinant block identity (must be ~0)."""
        m = np.block([[self.m_uu, self.m_uv], [self.m_vu, self.m_vv]])
        aux = aux_determinants(m)
        lhs = self.m_uv @ small_inverse(self.m_vv)
        rhs = np.array([[aux.det_d, -aux.det_dp], [aux.det_bp, aux.det_b]]) / det2(self.m_vv)
        lhs2 = self.m_vu @ small_inverse(self.m_uu)
        rhs2 = np.array([[aux.det_c, aux.det_ap], [-aux.det_cp, aux.det_a]]) / det2(self.m_uu)
        return float(max(np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs2 - rhs2))))


def canonical_purity(inputs):
    """Harmonic-limit purity from stability blocks.

    Valid when the endpoint factor has contracted to 1 (large-spin scaled
    labels); then it coincides with the stability-matrix purity.
    """
    m = np.block([[inputs.m_uu, inputs.m_uv], [inputs.m_vu, inputs.m_vv]])
    aux = aux_determinants(m)
    mm = det2(inputs.m_uu) * det2(inputs.m_vv)
    e_prime = -4.0 * (mm * aux.det_ap * aux.det_bp) ** 2
    e_dprime = (
        aux.det_ap ** 2 * aux.det_b * aux.det_d
        - (aux.det_ap * aux.det_bp) ** 2
        + aux.det_bp ** 2 * aux.det_a * aux.det_c
    )
    e_full = e_prime + (
        (mm - aux.det_a * aux.det_b) * (mm - aux.det_c * aux.det_d) - e_dprime
    ) ** 2
    p = e_full ** -0.5 * mm
    if not np.isfinite(p) or abs(p.imag) > 1e-6 or p.real <= 0.0 or p.real > 1.0 + 1e-6:
        raise NegativeRadicand(
            f"canonical purity {p} inconsistent with a value in (0, 1]"
        )
    return float(p.real)


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
        traj = integrate_trajectory(sys, model, s0, t_final, cfg)
        stab = integrate_stability(sys, model, traj, cfg)[-1]
        p = purity_sc(stab, traj)
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
