"""Classical structure on the complex (u, v) phase space.

Hamilton's equations here are

    du_k/dt = +(1 + u_k v_k)^2 / (2 i j hbar) * dH/dv_k,
    dv_k/dt = -(1 + u_k v_k)^2 / (2 i j hbar) * dH/du_k,

for k = x, y, with H the model's analytically continued classical
Hamiltonian and j and hbar those of its SpinSystem, model.sys.
Trajectories start from the real point (u, v) = (s0, s0*) and, for Hermitian
models, stay real; the reality drift is measured, never enforced, so it
doubles as an integrator diagnostic. The stability matrix is co-integrated
with the trajectory in one ODE system (20 complex components), which keeps
its determinant identity accurate to integrator tolerance; one integration
per trajectory gives both, at any sample times, from the integrator's
dense output; consumers read the Trajectory's own arrays, ys (ux, uy, vx,
vy) and ms (4x4, rows du_x, du_y, dv_x, dv_y). hamilton_equations is the one
place the field and its Jacobian are formed, by the same arithmetic at one
point (the ODE's right-hand side) and along a series (the action
integrands). The right-hand side (_stability_field) reads the model's
point_derivs entries as Python scalars, with no array round trip, and
writes the field into its output and J into the 4x4 factor of J M.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChartSingularity
from .numerics import IntegratorRecord, adaptive_rk

CHART_TOL = 1e-12

# uniform samples of a trajectory on [0, t_final] when none are requested
DEFAULT_SAMPLES = 129


@dataclass(frozen=True)
class Trajectory:
    """Sampled classical trajectory with its conserved-energy diagnostic.

    It starts from the real point of its initial label: ys[0, :2] is
    (sx, sy) and ys[0, 2:] its conjugate. initial and final are the rows
    ys[0] and ys[-1].
    """

    ts: np.ndarray
    ys: np.ndarray          # (n, 4) rows (ux, uy, vx, vy)
    energy: np.ndarray      # H~ along the samples
    ms: Optional[np.ndarray] = None  # (n, 4, 4) stability matrices, if integrated
    integrator: Optional[IntegratorRecord] = None  # what the integration did, if any

    def __post_init__(self):
        # written as not (...) so that a nan time fails the check too
        if self.ts.size > 1 and not np.all(np.diff(self.ts) > 0):
            raise ValueError("sample times must be strictly increasing")
        for name in ("ys", "energy", "ms"):
            rows = getattr(self, name)
            if rows is not None and len(rows) != self.ts.size:
                raise ValueError(f"{name} has {len(rows)} rows, not one per sample time "
                                 f"({self.ts.size})")

    def __len__(self):
        return self.ts.size

    @property
    def initial(self):
        return self.ys[0]

    @property
    def final(self):
        return self.ys[-1]

    def energy_drift(self):
        return float(np.max(np.abs(self.energy - self.energy[0])))

    def reality_drift(self):
        return float(np.max(np.abs(self.ys[:, 2:] - np.conj(self.ys[:, :2]))))


def require_chart(smallest):
    """Raise ChartSingularity if smallest, the least |1 + u_k v_k| of a state
    or a series of them, is below CHART_TOL."""
    if smallest < CHART_TOL:
        raise ChartSingularity(f"|1 + u_k v_k| = {smallest:.3e} below {CHART_TOL}")


def hamilton_equations(sys, y, g, hss):
    """Hamilton's field (udot_x, udot_y, vdot_x, vdot_y) and its Jacobian's
    16 entries, row-major, from y = (u_x, u_y, v_x, v_y) and H~'s gradient
    entries g and Hessian rows hss, all Python complex scalars (one point)
    or numpy rows (a series). With p_k = 1 + u_k v_k and c = 1/(2 i hbar j),
    udot_k = c p_k^2 g[v_k] and vdot_k = -c p_k^2 g[u_k]; each Jacobian row,
    with its field row's sign, is c p_k^2 times the Hessian row of its g
    entry plus that entry times c d(p_k^2) = 2 c p_k (v_k du_k + u_k dv_k).
    """
    ux, uy, vx, vy = y
    gux, guy, gvx, gvy = g
    hux, huy, hvx, hvy = hss
    px = 1.0 + ux * vx
    py = 1.0 + uy * vy
    c = 1.0 / (2j * sys.hbar_j)  # 2j is the imaginary literal 2i
    ax, ay = c * px * px, c * py * py
    ex, ey, fx, fy = 2.0 * c * px * gvx, 2.0 * c * py * gvy, 2.0 * c * px * gux, 2.0 * c * py * guy
    jac = [ax * hvx[0] + ex * vx, ax * hvx[1], ax * hvx[2] + ex * ux, ax * hvx[3],
           ay * hvy[0], ay * hvy[1] + ey * vy, ay * hvy[2], ay * hvy[3] + ey * uy,
           -ax * hux[0] - fx * vx, -ax * hux[1], -ax * hux[2] - fx * ux, -ax * hux[3],
           -ay * huy[0], -ay * huy[1] - fy * vy, -ay * huy[2], -ay * huy[3] - fy * uy]
    return (ax * gvx, ay * gvy, -ax * gux, -ay * guy), jac


def _hamilton_at(sys, point_derivs, y):
    """hamilton_equations at y[:4] in Python scalars, from one call of
    point_derivs, the point kernel of a model on the SpinSystem sys."""
    ux, uy, vx, vy = point = y[:4].tolist()
    require_chart(min(abs(1.0 + ux * vx), abs(1.0 + uy * vy)))
    d = point_derivs(ux, uy, vx, vy)
    return hamilton_equations(sys, point, d[1:5], (d[5:9], d[9:13], d[13:17], d[17:]))


def _stability_field(model):
    """field(t, y), the right-hand side of the (u, v, M) system: Hamilton's
    field, then dM/dt = J M with M = y[4:] row-major. The model's sys and
    point_derivs and the buffers are bound once; the field goes straight
    into the output, J into a 4x4 array, and each call returns the same
    output array."""
    sys, point_derivs = model.sys, model.point_derivs
    entries = np.empty(16, dtype=complex)
    out = np.empty(20, dtype=complex)
    jac, dm = entries.reshape(4, 4), out[4:].reshape(4, 4)

    def field(t, y):
        out[:4], entries[:] = _hamilton_at(sys, point_derivs, y)
        np.matmul(jac, y[4:].reshape(4, 4), out=dm)
        return out
    return field


def integrate_trajectory(model, s0, t_final, cfg, sample_times=None):
    """Real critical trajectory of model, on its model.sys, from
    (u, v) = (s0, s0*) over [0, t_final], with its stability matrices.

    One adaptive integration of (u, v) and M, with dM/dt = J(t) M and
    M(0) = I, so M sees exactly the flow it linearizes; the result's `ms`
    holds M at every sample, and its `integrator` the IntegratorRecord of
    the call. The samples are the requested times, or DEFAULT_SAMPLES
    uniform times on [0, t_final] when sample_times is None (just t = 0
    when t_final is 0). They are read off the continuous extension of steps
    that the error control alone picks; a step that holds samples costs the
    same however many it holds. The t = 0 start point is always included,
    whether or not it was requested: every downstream object (endpoint
    factor, stability window, action boundary terms) is anchored there.
    """
    # written as not (...) so that nan is rejected too
    if not 0 <= t_final < np.inf:
        raise ValueError("t_final must be finite and non-negative")
    if model.sys.two_j < 1:
        raise ValueError("two_j must be at least 1: spin 0 has no classical phase space")
    y0 = np.concatenate([
        [s0.sx, s0.sy, np.conj(s0.sx), np.conj(s0.sy)],
        np.eye(4, dtype=complex).ravel(),
    ])
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, DEFAULT_SAMPLES if t_final > 0 else 1)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0 or sample_times[0] > 0.0:
        sample_times = np.concatenate([[0.0], sample_times])
    ts, ys, record = adaptive_rk(_stability_field(model), y0, (0.0, t_final), cfg,
                                 samples=sample_times)
    states = np.ascontiguousarray(ys[:, :4])
    energy = model.htilde(states[:, :2], states[:, 2:])
    return Trajectory(ts=ts, ys=states, energy=energy, ms=ys[:, 4:].reshape(-1, 4, 4),
                      integrator=record)


def integrate_stability(traj):
    """Stability matrices along traj, (n, 4, 4) with one matrix per sample:
    traj.ms, which integrate_trajectory co-integrates with (u, v). Evaluates
    no field. Raises ValueError for a trajectory built without stability
    matrices, such as one made directly from its samples.
    """
    if traj.ms is None:
        raise ValueError("trajectory carries no stability matrices; "
                         "build it with integrate_trajectory")
    return traj.ms
