"""Dense complex linear algebra and adaptive ODE integration.

Everything here is deliberately small-scale: matrices are at most a few
thousand rows (joint spin Hilbert spaces) or exactly 2x2/4x4 (stability
blocks), and the ODE systems have a few dozen complex components.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    FieldEvaluationError,
    NoConvergence,
    NotHermitian,
    SingularMatrix,
    StepSizeUnderflow,
)

HERMITICITY_TOL = 1e-12
SINGULARITY_FACTOR = 1e-13


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control knobs for the embedded Runge-Kutta integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    initial_step: float = 1e-4
    max_step: float = float("inf")

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if self.initial_step > self.max_step:
            raise ValueError("initial_step must not exceed max_step")


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    For one (n, n) matrix, returns (eigenvalues, eigenvectors) with
    eigenvalues sorted ascending and columns of the eigenvector matrix
    unitary, so that h = V diag(w) V^dagger. A stack (k, n, n) gives w of
    shape (k, n) and V of shape (k, n, n), the same for each matrix, from
    one batched solver call.

    Raises NotHermitian if max |h - h^dagger| exceeds 1e-12 (over every
    matrix of a stack), NoConvergence if the underlying iteration gives up.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("hermitian_eig expects a square matrix or a stack of them")
    require_hermitian(h)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w, v


def require_hermitian(h):
    """Raise NotHermitian if max |h - h^dagger| exceeds 1e-12 (over every
    matrix of a stack)."""
    defect = np.max(np.abs(h - h.conj().swapaxes(-1, -2)), initial=0.0)
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"max |h - h^dagger| = {defect:.3e} > {HERMITICITY_TOL}")


def small_inverse(m):
    """Inverse of a 2x2 or 4x4 matrix with an explicit degeneracy guard.

    Raises SingularMatrix (carrying the offending determinant) when
    |det m| <= 1e-13 * ||m||_F^2.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"small_inverse handles 2x2 or 4x4, got {m.shape}")
    det = np.linalg.det(m)
    threshold = SINGULARITY_FACTOR * np.sum(np.abs(m) ** 2)
    if abs(det) <= threshold:
        raise SingularMatrix(
            f"determinant {det:.3e} below degeneracy threshold {threshold:.3e}", det
        )
    return np.linalg.inv(m)


def det2(m):
    """Determinant of a 2x2 block, or of each block of a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4
# Dormand-Prince continuous extension (Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.6, DOPRI5 `contd5`): the fourth-order interpolant's
# theta^2 (1 - theta)^2 term is h * (_DP_D @ k).
_DP_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _eval_field(field, t, y):
    dy = np.asarray(field(t, y), dtype=complex)
    if dy.shape != y.shape:
        raise FieldEvaluationError(f"field returned shape {dy.shape}, expected {y.shape}")
    if not np.all(np.isfinite(dy.view(float))):
        raise FieldEvaluationError(f"field returned non-finite values at t={t}")
    return dy


def _dense_output(theta, y, y_new, h, k):
    """States at fractions theta (m,) of the step y -> y_new from its stages k."""
    ydiff = y_new - y
    bspl = h * k[0] - ydiff
    rest = ydiff - h * k[6] - bspl
    quartic = h * (_DP_D @ k)
    th = theta[:, None]
    th1 = 1.0 - th
    return y + th * (ydiff + th1 * (bspl + th * (rest + th1 * quartic)))


def adaptive_rk(field, y0, t_span, cfg, samples=None):
    """Integrate y' = field(t, y) for a complex state vector.

    Embedded Dormand-Prince 4(5) pair with PI step control. Local error per
    step is kept below abs_tol + rel_tol * |y| componentwise (RMS norm over
    all components).

    Parameters
    ----------
    field : callable(t, y) -> dy/dt
    y0 : complex array-like
    t_span : (t0, t1) with t1 >= t0
    cfg : IntegratorConfig
    samples : optional ascending array of times in [t0, t1]. When given,
        the output contains exactly those times, read off the Dormand-Prince
        continuous extension of the accepted step that holds each one; the
        steps taken, and so the field evaluations, are the same as without
        samples. A sample at a step end gets that step's value, and a sample
        at t1 the final value. Otherwise the output is the accepted-step
        grid.

    Returns
    -------
    (ts, ys) : times (n,) and states (n, len(y0)).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    y = np.array(y0, dtype=complex).ravel()

    if samples is None:
        ts_out = [t0]
        ys_out = [y.copy()]
    else:
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("samples must be non-empty")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("samples must be strictly increasing")
        if samples[0] < t0 - 1e-14 or samples[-1] > t1 + 1e-12 * max(1.0, abs(t1)):
            raise ValueError("samples must lie within t_span")
        out = np.empty((samples.size, y.size), dtype=complex)
        filled = int(np.searchsorted(samples, t0, side="right"))
        out[:filled] = y

    span = t1 - t0
    t = t0
    h = min(cfg.initial_step, cfg.max_step, span if span > 0 else cfg.initial_step)
    err_prev = 1.0
    end_tol = 1e-14 * max(1.0, abs(t1))
    k = np.empty((7, y.size), dtype=complex)
    if t < t1 - end_tol:
        k[0] = _eval_field(field, t, y)
    while t < t1 - end_tol:
        h_try = min(h, cfg.max_step, t1 - t)
        if h_try < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size {h_try:.3e} underflowed at t={t:.6e}")
        for i in range(1, 7):
            yi = y + h_try * (_DP_A[i] @ k[:i])
            k[i] = _eval_field(field, t + _DP_C[i] * h_try, yi)
        y_new = y + h_try * (_DP_B5 @ k)
        err_vec = h_try * (_DP_E @ k)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean(np.abs(err_vec / scale) ** 2))
        if err > 1.0:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            continue
        t_new = t + h_try
        last = t_new >= t1 - end_tol
        if samples is None:
            ts_out.append(t_new)
            ys_out.append(y_new)
        else:
            # samples this step holds; on the last step, all that remain
            stop = samples.size if last else int(np.searchsorted(samples, t_new, side="right"))
            if stop > filled:
                inside = samples[filled:stop]
                rows = out[filled:stop]
                rows[:] = _dense_output((inside - t) / h_try, y, y_new, h_try, k)
                rows[inside >= (t1 - end_tol if last else t_new)] = y_new
                filled = stop
        t, y = t_new, y_new
        k[0] = k[6]  # FSAL
        err = max(err, 1e-10)
        factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        err_prev = err
        h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    if samples is None:
        ts_out[-1] = t1  # snap the final accepted step onto t1 exactly
        return np.asarray(ts_out), np.asarray(ys_out)
    out[filled:] = y  # samples at t1 when the span is below the end tolerance
    return samples.copy(), out


def cubic_quadrature(ts, fs):
    """Integral of sampled values over [ts[0], ts[-1]] by local cubics.

    Each interval is integrated with the Lagrange cubic through the four
    nearest samples, so the composite rule is fourth-order accurate on the
    (possibly non-uniform) grid. Needs at least two samples; with fewer than
    four it falls back to the highest polynomial degree available.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs)
    n = ts.size
    if n != fs.shape[0]:
        raise ValueError("ts and fs must have matching length")
    if n < 2:
        return 0.0 * (fs[0] if n else 0.0)
    total = 0.0 + 0.0j if np.iscomplexobj(fs) else 0.0
    for i in range(n - 1):
        lo = min(max(i - 1, 0), max(n - 4, 0))
        hi = min(lo + 4, n)
        xs = ts[lo:hi] - ts[i]
        vals = fs[lo:hi]
        deg = xs.size - 1
        vander = np.vander(xs, deg + 1, increasing=True)
        coeffs = np.linalg.solve(vander, vals)
        b = ts[i + 1] - ts[i]
        powers = np.array([b ** (p + 1) / (p + 1) for p in range(deg + 1)])
        total = total + coeffs @ powers
    return total
