"""Dense complex linear algebra and adaptive ODE integration.

Everything here is deliberately small-scale: matrices are at most a few
thousand rows (joint spin Hilbert spaces) or exactly 2x2/4x4 (stability
blocks), and the ODE systems have a few dozen complex components.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    FieldEvaluationError,
    NoConvergence,
    NotHermitian,
    StepSizeUnderflow,
)

HERMITICITY_TOL = 1e-12
# first trial step of adaptive_rk, lowered to max_step and the span
FIRST_STEP = 1e-4


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control knobs for adaptive_rk, the DOP853 integrator: each
    step's local error is kept below abs_tol + rel_tol * |y| componentwise
    (RMS over the components), and no step is longer than max_step."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = float("inf")

    def __post_init__(self):
        # written as not (x > 0) so that nan is rejected too
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


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


def require_hermitian(h, adjoint=None):
    """Raise NotHermitian if max |h - h^dagger| exceeds 1e-12 (over every
    matrix of a stack). For an operator held as a list of its entries, h is
    that list and adjoint the entries of h^dagger at the same places."""
    if adjoint is None:
        adjoint = h.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf is a nan defect
        defect = np.max(np.abs(h - adjoint), initial=0.0)
    # written as not (defect <= tol) so that nan is rejected too
    if not defect <= HERMITICITY_TOL:
        raise NotHermitian(f"max |h - h^dagger| = {defect:.3e} > {HERMITICITY_TOL}")


def det2(m):
    """Determinant of a 2x2 block, or of each block of a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


# Dormand-Prince 8(5,3) tableau, DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.10, and their code dop853.f). Stages 0-11 make the step;
# row 12 holds the eighth-order weights b, and stage 12 is the field at the
# step's end (FSAL: the next step's stage 0). Stages 13-15 exist only for
# the continuous extension.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])
_A = np.zeros((16, 16))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
             1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
             1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
             -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
             -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
             2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
             -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
             -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
             2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
             -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
               5.18637242884406370830023853209, 1.09143734899672957818500254654,
               -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
               2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
               -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
               -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
               -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
               -2.85899827713502369474065508674, -8.87285693353062954433549289258,
               1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
_A[12, :12] = [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2]
_A[13, :13] = [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
               2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
               -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
               8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
               -8.298e-3]
_A[14, :14] = [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
               2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
               -5.49237485713909884646569340306e-2, 0.0, 0.0,
               -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
               -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, :15] = [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
               -4.69762141536116384314449447206, 7.68342119606259904184240953878,
               4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
               0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
               2.9475147891527723389556272149, -9.15095847217987001081870187138]
_B = _A[12, :12]
# Error estimators over stages 0-11: the difference of b from a fifth-order
# pair (ER in dop853.f) and from a third-order one (b - BHH).
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
# The continuous extension's last four coefficients are h * (_D @ k) over
# all 16 stages (dop853.f's D4-D7 rows).
_D = np.zeros((4, 16))
_D[0, [0, *range(5, 16)]] = [
    -0.84289382761090128651353491142e1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
    0.21170345824450282767155149946e1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
    -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1]
_D[1, [0, *range(5, 16)]] = [
    0.10427508642579134603413151009e2, 0.24228349177525818288430175319e3,
    0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
    -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1,
    -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
    0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
    -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2]
_D[2, [0, *range(5, 16)]] = [
    0.19985053242002433820987653617e2, -0.38703730874935176555105901742e3,
    -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
    -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1,
    -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
    0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2]
_D[3, [0, *range(5, 16)]] = [
    -0.25693933462703749003312586129e2, -0.15418974869023643374053993627e3,
    -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
    0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2,
    0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
    -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
    -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3]
# The weights as complex arrays: they only ever multiply the complex stages,
# and real ones would be cast to complex on every product (same values).
_ROWS = [row[:i].astype(complex) for i, row in enumerate(_A)]  # _ROWS[12] is b
_E_C = np.array([_E5, _E3], dtype=complex)
_D_C = _D.astype(complex)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
_EXPONENT = 1.0 / 8.0  # the step factor is _SAFETY * err ** -_EXPONENT


@dataclass(frozen=True)
class IntegratorRecord:
    """What one adaptive_rk call did: its accepted and rejected steps, its
    field evaluations, and its smallest and largest accepted step (None
    when it took no step)."""

    method: str
    accepted_steps: int
    rejected_steps: int
    field_evals: int
    min_step: Optional[float]
    max_step: Optional[float]


def _eval_field(field, t, y):
    dy = np.asarray(field(t, y), dtype=complex)
    if dy.shape != y.shape:
        raise FieldEvaluationError(f"field returned shape {dy.shape}, expected {y.shape}")
    # sum |dy|^2 is finite only if every entry is; when it is not, the
    # entrywise test tells a non-finite entry from an overflow of finite ones
    if not cmath.isfinite(np.vdot(dy, dy)) and not np.isfinite(dy).all():
        raise FieldEvaluationError(f"field returned non-finite values at t={t}")
    return dy


def _stage(field, k, i, t, y, h):
    """Stage i of the step of length h from (t, y), stored in k[i]."""
    k[i] = _eval_field(field, t + _C[i] * h, y + h * (_ROWS[i] @ k[:i]))


def _continuous_extension(theta, y, y_new, h, k):
    """States at fractions theta (m,) of the step y -> y_new from its 16
    stages: the seventh-order continuous extension of DOP853 (dop853.f's
    CONTD8), nested as y + theta (r0 + (1 - theta) (r1 + theta (r2 + ...)))."""
    ydiff = y_new - y
    bspl = h * k[0] - ydiff
    coeffs = [ydiff, bspl, ydiff - h * k[12] - bspl, *(h * (_D_C @ k))]
    th = theta[:, None]
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        acc = coeffs[i] + (th if i % 2 else 1.0 - th) * acc
    return y + th * acc


def adaptive_rk(field, y0, t_span, cfg, samples):
    """Integrate y' = field(t, y) for a complex state vector, sampled at
    the requested times.

    Dormand-Prince 8(5,3) (DOP853): eighth-order steps whose local error,
    from the combined fifth- and third-order estimate, is kept below
    abs_tol + rel_tol * |y| componentwise (RMS norm over all components).
    A step costs 11 field evaluations, plus 1 at its end once accepted.

    Parameters
    ----------
    field : callable(t, y) -> dy/dt
    y0 : complex array-like
    t_span : (t0, t1) with t1 >= t0
    cfg : IntegratorConfig
    samples : ascending array of times in [t0, t1], the output grid. Each
        is read off the seventh-order continuous extension of the accepted
        step that holds it. The steps are the ones error control alone
        picks, whatever the samples; a step with a sample before its end
        costs 3 more field evaluations (the extension's own stages), however
        many samples it holds. A sample at a step end gets that step's
        value, and a sample at t1 the final value.

    Returns
    -------
    (ts, ys, record) : the samples (n,), the states there (n, len(y0)) and
        the IntegratorRecord of the call.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    y = np.array(y0, dtype=complex).ravel()
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
    h = min(FIRST_STEP, cfg.max_step, span if span > 0 else FIRST_STEP)
    end_tol = 1e-14 * max(1.0, abs(t1))
    k = np.empty((16, y.size), dtype=complex)
    abs_y = np.abs(y)
    evals = rejected = 0
    steps = []
    after_rejection = False
    if t < t1 - end_tol:
        k[0] = _eval_field(field, t, y)
        evals = 1
    while t < t1 - end_tol:
        h_try = min(h, cfg.max_step, t1 - t)
        if h_try < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size {h_try:.3e} underflowed at t={t:.6e}")
        for i in range(1, 12):
            _stage(field, k, i, t, y, h_try)
        evals += 11
        y_new = y + h_try * (_ROWS[12] @ k[:12])
        abs_new = np.abs(y_new)  # |y| of the next step
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new)
        est = (_E_C @ k[:12]) / scale
        err5, err3 = (est.real * est.real + est.imag * est.imag).sum(axis=1)
        denom = err5 + 0.01 * err3
        err = h_try * err5 / math.sqrt(denom * y.size) if denom > 0.0 else 0.0
        if err > 1.0:
            rejected += 1
            after_rejection = True
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** -_EXPONENT)
            continue
        t_new = t + h_try
        last = t_new >= t1 - end_tol
        k[12] = _eval_field(field, t_new, y_new)
        evals += 1
        steps.append(h_try)
        # samples this step holds; on the last step, all that remain
        stop = samples.size if last else int(np.searchsorted(samples, t_new, side="right"))
        if stop > filled:
            inside = samples[filled:stop]
            at_end = inside >= (t1 - end_tol if last else t_new)
            rows = out[filled:stop]
            if not at_end[0]:
                for i in range(13, 16):
                    _stage(field, k, i, t, y, h_try)
                evals += 3
                rows[:] = _continuous_extension((inside - t) / h_try, y, y_new, h_try, k)
            rows[at_end] = y_new
            filled = stop
        t, y, abs_y = t_new, y_new, abs_new
        k[0] = k[12]  # FSAL
        factor = _SAFETY * max(err, 1e-10) ** -_EXPONENT
        # no growth right after a rejection
        h = h_try * max(_MIN_FACTOR, min(1.0 if after_rejection else _MAX_FACTOR, factor))
        after_rejection = False

    record = IntegratorRecord(
        method="DOP853", accepted_steps=len(steps), rejected_steps=rejected,
        field_evals=evals, min_step=float(min(steps)) if steps else None,
        max_step=float(max(steps)) if steps else None,
    )
    out[filled:] = y  # samples at t1 when the span is below the end tolerance
    return samples.copy(), out, record


def cubic_quadrature(ts, fs):
    """Integral of sampled values over [ts[0], ts[-1]] by local cubics.

    Each interval is integrated with the Lagrange cubic through the four
    nearest samples, so the composite rule is fourth-order accurate on the
    (possibly non-uniform) grid. Needs at least two samples; with fewer than
    four it falls back to the highest polynomial degree available. The
    Lagrange weights of every interval are formed at once in closed form,
    and each sample's summed weight multiplies it once.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs)
    n = ts.size
    if n != fs.shape[0]:
        raise ValueError("ts and fs must have matching length")
    if n < 2:
        return 0.0 * (fs[0] if n else 0.0)
    p = min(n, 4)  # samples per local rule
    # interval i runs from ts[i] by width[i] and uses samples at[i]
    at = np.clip(np.arange(n - 1) - 1, 0, n - p)[:, None] + np.arange(p)
    nodes = ts[at] - ts[:-1, None]
    width = np.diff(ts)
    weights = np.empty((n - 1, p))
    for m in range(p):
        # coefficients, lowest power first, of prod_{k != m} (x - x_k),
        # integrated over [0, width] and divided by prod_{k != m} (x_m - x_k)
        poly, denom = [1.0], 1.0
        for k in range(p):
            if k != m:
                poly = [a - nodes[:, k] * b for a, b in zip([0.0] + poly, poly + [0.0])]
                denom = denom * (nodes[:, m] - nodes[:, k])
        integral = sum(c * width ** (q + 1) / (q + 1) for q, c in enumerate(poly))
        weights[:, m] = integral / denom
    return np.bincount(at.ravel(), weights=weights.ravel(), minlength=n) @ fs
