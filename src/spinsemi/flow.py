"""Classical structure on the complex (u, v) phase space.

Hamilton's equations here are

    du_k/dt = +(1 + u_k v_k)^2 / (2 i j hbar) * dH/dv_k,
    dv_k/dt = -(1 + u_k v_k)^2 / (2 i j hbar) * dH/du_k,

for k = x, y, with H the analytically continued classical Hamiltonian.
Trajectories start from the real point (u, v) = (s0, s0*) and, for Hermitian
models, stay real; the reality drift is measured, never enforced, so it
doubles as an integrator diagnostic. The stability matrix is co-integrated
with the trajectory in one ODE system (20 complex components), which keeps
its determinant identity accurate to integrator tolerance; one integration
per trajectory gives both, at any sample times, from the integrator's
dense output. hamilton_equations is the one place the field and its
Jacobian are formed, by the same arithmetic at one point (the ODE's
right-hand side) and along a series (the action integrands).
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
class PhaseSpaceState:
    """Complex phase-space point; u and v hold the (x, y) pair in their
    last axis, so a (n, 2) pair is the series of n states along a
    trajectory."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape[-1:] != (2,):
                raise ValueError(f"{name} must hold (x, y) in its last axis, got {arr.shape}")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_vector(cls, y):
        return cls(y[..., :2], y[..., 2:4])


@dataclass(frozen=True)
class StabilityMatrix:
    """4x4 linearization in the (du_x, du_y, dv_x, dv_y) ordering, or the
    series of them along a trajectory.

    m is (4, 4) for one matrix or (n, 4, 4) for n samples; the block views
    and det() keep the leading axis. A series has len(s) samples, s[i] is
    the matrix at sample i (a slice gives a shorter series), and iterating
    yields the matrices one by one.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape[-2:] != (4, 4) or m.ndim > 3:
            raise ValueError(f"stability matrix must be (4, 4) or (n, 4, 4), got {m.shape}")
        object.__setattr__(self, "m", m)

    def __len__(self):
        if self.m.ndim != 3:
            raise TypeError("a single stability matrix has no length")
        return len(self.m)

    def __getitem__(self, i):
        return StabilityMatrix(self.m[i])

    def __iter__(self):
        return (StabilityMatrix(m) for m in self.m)

    @property
    def m_uu(self):
        return self.m[..., :2, :2]

    @property
    def m_uv(self):
        return self.m[..., :2, 2:]

    @property
    def m_vu(self):
        return self.m[..., 2:, :2]

    @property
    def m_vv(self):
        return self.m[..., 2:, 2:]

    def det(self):
        det = np.linalg.det(self.m)
        return complex(det) if det.ndim == 0 else det


@dataclass(frozen=True)
class Trajectory:
    """Sampled classical trajectory with its conserved-energy diagnostic.

    It starts from the real point of its initial label: ys[0, :2] is
    (sx, sy) and ys[0, 2:] its conjugate.
    """

    ts: np.ndarray
    ys: np.ndarray          # (n, 4) rows (ux, uy, vx, vy)
    energy: np.ndarray      # H~ along the samples
    ms: Optional[np.ndarray] = None  # (n, 4, 4) stability matrices, if integrated
    integrator: Optional[IntegratorRecord] = None  # what the integration did, if any

    def __post_init__(self):
        if self.ts.size > 1 and np.any(np.diff(self.ts) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self):
        return self.ts.size

    def state(self, i):
        """State at sample i; a slice, such as slice(None), gives the series."""
        return PhaseSpaceState.from_vector(self.ys[i])

    @property
    def initial(self):
        return self.state(0)

    @property
    def final(self):
        return self.state(-1)

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


def _hamilton_at(sys, model, y):
    """hamilton_equations at y[:4] in Python scalars, from one derivs call."""
    ux, uy, vx, vy = point = y[:4].tolist()
    require_chart(min(abs(1.0 + ux * vx), abs(1.0 + uy * vy)))
    _, g, hss = model.derivs(y[:2], y[2:4])
    return hamilton_equations(sys, point, g.tolist(), hss.tolist())


def _field_and_stability(sys, model, y, out):
    """Right-hand side of the (u, v, M) system into out: the field, then
    dM/dt = J M with M = y[4:] row-major."""
    field, jac = _hamilton_at(sys, model, y)
    out[:4] = field
    np.matmul(np.array(jac, dtype=complex).reshape(4, 4), y[4:].reshape(4, 4),
              out=out[4:].reshape(4, 4))
    return out


def integrate_trajectory(sys, model, s0, t_final, cfg, sample_times=None):
    """Real critical trajectory from (u, v) = (s0, s0*) over [0, t_final],
    with its stability matrices.

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
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    y0 = np.concatenate([
        [s0.sx, s0.sy, np.conj(s0.sx), np.conj(s0.sy)],
        np.eye(4, dtype=complex).ravel(),
    ])
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, DEFAULT_SAMPLES if t_final > 0 else 1)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0 or sample_times[0] > 0.0:
        sample_times = np.concatenate([[0.0], sample_times])
    out = np.empty(20, dtype=complex)
    ts, ys, record = adaptive_rk(
        lambda t, y: _field_and_stability(sys, model, y, out),
        y0, (0.0, t_final), cfg, samples=sample_times,
    )
    states = np.ascontiguousarray(ys[:, :4])
    energy = model.htilde(states[:, :2], states[:, 2:])
    return Trajectory(ts=ts, ys=states, energy=energy, ms=ys[:, 4:].reshape(-1, 4, 4),
                      integrator=record)


def integrate_stability(sys, model, traj, cfg):
    """Stability matrices along traj, one per sample time.

    integrate_trajectory already co-integrates M with (u, v), so this wraps
    traj.ms in one StabilityMatrix series and evaluates no field; sys, model
    and cfg are not used. Raises ValueError for a trajectory built without
    stability matrices, such as one made directly from its samples.
    """
    if traj.ms is None:
        raise ValueError("trajectory carries no stability matrices; "
                         "build it with integrate_trajectory")
    return StabilityMatrix(traj.ms)
