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
dense output.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ChartSingularity
from .numerics import adaptive_rk

CHART_TOL = 1e-12

# floor on the number of samples per trajectory; the downstream action
# quadratures and branch tracking need a grid denser than the ODE error
# control alone would pick on nearly-linear stretches
_MIN_SAMPLES = 33


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


def _chart_factors(y):
    p = 1.0 + y[:2] * y[2:4]
    smallest = np.abs(p).min()
    if smallest < CHART_TOL:
        raise ChartSingularity(f"|1 + u_k v_k| = {smallest:.3e} below {CHART_TOL}")
    return p


def _phase_space_derivs(model, y):
    """Chart factors, gradient and Hessian at packed state y: the one
    model.derivs call that the field and its Jacobian share."""
    p = _chart_factors(y)
    _, g, hss = model.derivs(y[:2], y[2:4])
    return p, g, hss


def _field(sys, p, g):
    pref = p ** 2 / (2j * sys.hbar_j)  # 2j is the imaginary literal 2i
    return np.concatenate([pref * g[2:4], -pref * g[:2]])


# Row r of the Jacobian differentiates udot_0, udot_1, vdot_0, vdot_1: the
# chart factor p_k and gradient entry it carries, and its sign.
_ROW_CHART = np.array([0, 1, 0, 1])
_ROW_GRAD = np.array([2, 3, 0, 1])
_ROW_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _jacobian(sys, y, p, g, hss):
    """d(field)/dy: p_k^2 times the Hessian rows plus the derivative of
    p_k^2, which only u_k and v_k touch, times the gradient entry."""
    dp2 = np.zeros((2, 4), dtype=complex)
    dp2[[0, 1], [0, 1]] = 2.0 * y[2:4] * p   # d(p_k^2)/du_k
    dp2[[0, 1], [2, 3]] = 2.0 * y[:2] * p    # d(p_k^2)/dv_k
    rows = (p[_ROW_CHART, None] ** 2 * hss[_ROW_GRAD]
            + g[_ROW_GRAD, None] * dp2[_ROW_CHART])
    return _ROW_SIGN[:, None] * rows / (2j * sys.hbar_j)


def field_and_jacobian(sys, model, y):
    """Field and its exact 4x4 Jacobian from one model.derivs call."""
    p, g, hss = _phase_space_derivs(model, y)
    return _field(sys, p, g), _jacobian(sys, y, p, g, hss)


def split_trace(jac):
    """sum_k [d(udot_k)/du_k - d(vdot_k)/dv_k] of a field Jacobian."""
    return jac[0, 0] + jac[1, 1] - jac[2, 2] - jac[3, 3]


def _effective_cfg(cfg, t_total):
    """Cap the step so a trajectory always carries enough samples."""
    if t_total <= 0:
        return cfg
    cap = t_total / (_MIN_SAMPLES - 1)
    if cfg.max_step <= cap:
        return cfg
    return replace(cfg, max_step=cap)


def _field_and_stability(sys, model, y):
    """Right-hand side of the 20-component (u, v, M) system: the field and
    dM/dt = J M from one model.derivs call."""
    dy, jac = field_and_jacobian(sys, model, y[:4])
    dm = jac @ y[4:].reshape(4, 4)
    return np.concatenate([dy, dm.ravel()])


def integrate_trajectory(sys, model, s0, t_final, cfg, sample_times=None):
    """Real critical trajectory from (u, v) = (s0, s0*) over [0, t_final],
    with its stability matrices.

    One adaptive integration of (u, v) and M, with dM/dt = J(t) M and
    M(0) = I, so M sees exactly the flow it linearizes; the result's `ms`
    holds M at every sample. With sample_times=None the samples are the
    integrator's accepted steps (step-capped so at least ~30 samples exist);
    otherwise exactly the requested times, read off the dense output of the
    same steps, so the cost does not depend on how many are requested. The
    t = 0 start point is always included, whether or not it was requested:
    every downstream object (endpoint factor, stability window, action
    boundary terms) is anchored there.
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    y0 = np.concatenate([
        [s0.sx, s0.sy, np.conj(s0.sx), np.conj(s0.sy)],
        np.eye(4, dtype=complex).ravel(),
    ])
    if sample_times is not None:
        sample_times = np.asarray(sample_times, dtype=float)
        if sample_times.size == 0 or sample_times[0] > 0.0:
            sample_times = np.concatenate([[0.0], sample_times])
    if t_final == 0:
        ts = np.array([0.0])
        ys = y0[None, :]
    else:
        eff = _effective_cfg(cfg, t_final)
        ts, ys = adaptive_rk(
            lambda t, y: _field_and_stability(sys, model, y),
            y0, (0.0, t_final), eff, samples=sample_times,
        )
    states = np.ascontiguousarray(ys[:, :4])
    energy = model.htilde(states[:, :2], states[:, 2:])
    return Trajectory(ts=ts, ys=states, energy=energy, ms=ys[:, 4:].reshape(-1, 4, 4))


def integrate_stability(sys, model, traj, cfg):
    """Stability matrices along traj, one per sample time.

    integrate_trajectory already co-integrates M with (u, v), so this wraps
    traj.ms in one StabilityMatrix series and evaluates no field; sys, model
    and cfg are not used. Raises ValueError for a trajectory built without
    stability matrices (such as the closed-form models.pc_trajectory).
    """
    if traj.ms is None:
        raise ValueError("trajectory carries no stability matrices; "
                         "build it with integrate_trajectory")
    return StabilityMatrix(traj.ms)
