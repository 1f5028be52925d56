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


def kron(a, b):
    """Kronecker product with the standard block layout."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    return np.kron(a, b)


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
    defect = np.max(np.abs(h - h.conj().swapaxes(-1, -2)))
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"max |h - h^dagger| = {defect:.3e} > {HERMITICITY_TOL}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w, v


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
    """Determinant of a 2x2 block."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


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


def adaptive_rk(field, y0, t_span, cfg, samples=None):
    """Integrate y' = field(t, y) for a complex state vector.

    Embedded Dormand-Prince 4(5) pair with PI step control. Local error per
    step is kept below abs_tol + rel_tol * |y| componentwise (RMS norm).

    Parameters
    ----------
    field : callable(t, y) -> dy/dt
    y0 : complex array-like
    t_span : (t0, t1) with t1 >= t0
    cfg : IntegratorConfig
    samples : optional ascending array of times in [t0, t1]. When given,
        the integrator lands exactly on each sample (no interpolation) and
        the output contains exactly those times. Otherwise the output is the
        accepted-step grid.

    Returns
    -------
    (ts, ys) : times (n,) and states (n, len(y0)).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    y = np.array(y0, dtype=complex).ravel()

    if samples is not None:
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("samples must be non-empty")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("samples must be strictly increasing")
        if samples[0] < t0 - 1e-14 or samples[-1] > t1 + 1e-12 * max(1.0, abs(t1)):
            raise ValueError("samples must lie within t_span")

    span = t1 - t0
    state = {
        "t": t0,
        "h": min(cfg.initial_step, cfg.max_step, span if span > 0 else cfg.initial_step),
        "err_prev": 1.0,
        "k0": None,
    }
    ts_out = []
    ys_out = []

    def advance(target):
        """Step adaptively until `target`, landing on it exactly."""
        tol = 1e-14 * max(1.0, abs(target))
        k = np.empty((7, y.size), dtype=complex)
        while state["t"] < target - tol:
            if state["k0"] is None:
                state["k0"] = _eval_field(field, state["t"], state["y"])
            t = state["t"]
            yc = state["y"]
            h_try = min(state["h"], cfg.max_step, target - t)
            if h_try < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size {h_try:.3e} underflowed at t={t:.6e}")
            k[0] = state["k0"]
            for i in range(1, 7):
                yi = yc + h_try * (_DP_A[i] @ k[:i])
                k[i] = _eval_field(field, t + _DP_C[i] * h_try, yi)
            y_new = yc + h_try * (_DP_B5 @ k)
            err_vec = h_try * (_DP_E @ k)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(yc), np.abs(y_new))
            err = np.sqrt(np.mean(np.abs(err_vec / scale) ** 2))
            if err <= 1.0:
                state["t"] = t + h_try
                state["y"] = y_new
                state["k0"] = k[6].copy()  # FSAL
                if samples is None:
                    ts_out.append(state["t"])
                    ys_out.append(y_new.copy())
                err = max(err, 1e-10)
                factor = _SAFETY * err ** (-_PI_ALPHA) * state["err_prev"] ** _PI_BETA
                state["err_prev"] = err
                state["h"] = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            else:
                state["h"] = h_try * max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
        state["t"] = target

    state["y"] = y
    if samples is None:
        ts_out.append(t0)
        ys_out.append(y.copy())
        if t1 > t0:
            advance(t1)
            ts_out[-1] = t1  # snap the final accepted step onto t1 exactly
    else:
        for target in samples:
            advance(target)
            ts_out.append(target)
            ys_out.append(state["y"].copy())
    return np.asarray(ts_out), np.asarray(ys_out)


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
