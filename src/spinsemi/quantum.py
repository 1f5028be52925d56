"""Exact quantum engine: unitary evolution, partial traces, purity.

Evolution goes through the spectral decomposition of the joint
Hamiltonian, taken block by block: the basis splits into the sectors that
H never connects (connected components of the pairs it links) and each
sector is diagonalized on its own. Long-time phases are exact, and a whole
purity curve reuses one set of sector eigendecompositions.

The engine's one input is a Sectors description: index arrays and
Hermitian block stacks per sector size. Every model derives it from its
operator's entries (model.sectors), so no (2j+1)^2 x (2j+1)^2 joint matrix
is formed. hbar and the states' dimension come from model.sys too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import hermitian_eig
from .spin import product_coherent

# complex elements per array when a time grid is evaluated in chunks
# (1 MiB): bounds the memory of whole-curve evaluation at any grid length
CHUNK = 1 << 16

# _phases() builds arithmetic grids of at least TABLE_MIN times from tables;
# a grid is arithmetic when each time is within TABLE_ULPS ulps (of the
# grid's largest |t|) of t[0] + k dt. The time_chunks of np.linspace grids
# from 0, forward or backward, stay within 2 ulps (1.2 million chunks of
# random grids checked).
TABLE_MIN = 8
TABLE_ULPS = 8


@dataclass
class PurityCurve:
    """Aligned time series of exact and semiclassical purities plus residuals."""

    times: np.ndarray
    p_exact: np.ndarray
    p_sc: np.ndarray
    residual_detM: np.ndarray
    residual_energy: np.ndarray
    residual_im_psc: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("p_exact", "p_sc", "residual_detM", "residual_energy",
                     "residual_im_psc"):
            if len(getattr(self, name)) != n:
                raise DimensionMismatch(f"{name} not aligned with the time grid")

    @property
    def slin_exact(self):
        return 1.0 - self.p_exact

    @property
    def slin_sc(self):
        return 1.0 - self.p_sc


def connected_sectors(rows, cols, n):
    """Basis indices of the connected components of a graph on n nodes,
    grouped by component size.

    The edges are i - j for each pair (rows[k], cols[k]), taken both ways.
    Returns one (k, s) index array per component size s, ascending in s;
    each row lists one component's indices in ascending order, and the
    rows of a size are ordered by their smallest index.
    """
    # label[i] is the smallest index known to share i's sector: take the
    # minimum across each edge, both ways, then follow labels to their own
    # labels.
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")  # sector by sector, by label
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]  # per sector, in the same order
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == s][:, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(sizes))]


@dataclass(frozen=True)
class Sectors:
    """An operator on a basis of dim states, split into invariant sectors.

    indices[g] is a (k, s) array of basis indices, one sector per row, for
    the g-th sector size s (ascending, as connected_sectors orders them);
    blocks[g] is the (k, s, s) stack of the operator restricted to those
    sectors. The operator has no entry outside the blocks.
    """

    dim: int
    indices: list
    blocks: list


class SpectralPropagator:
    """e^{-i H t / hbar} applied through the eigenbases of H's sectors.

    H is given as its Sectors (model.sectors). Sectors of equal size are
    stacked: one batched, Hermiticity-checked eigendecomposition per size
    at construction, and one batched rotation into and out of the
    eigenbases per size on each apply. The basis is permuted so that each
    size's sectors are contiguous, row by row. Only the eigenvector stacks
    V are kept: V^dagger x is taken as conj(conj(x) V).
    """

    def __init__(self, sectors, hbar=1.0):
        self.dim = sectors.dim
        self.hbar = hbar
        self.perm = np.concatenate([idx.ravel() for idx in sectors.indices])
        eigenvalues = []
        self.blocks = []  # (slice of the permuted basis, V) per size
        start = 0
        # H has no entry between sectors, so checking each block for
        # Hermiticity checks the whole operator
        for idx, block in zip(sectors.indices, sectors.blocks):
            w, v = hermitian_eig(block)
            eigenvalues.append(w.ravel())
            self.blocks.append((slice(start, start + idx.size), v))
            start += idx.size
        self.w = np.concatenate(eigenvalues)

    def apply(self, psi, t):
        """e^{-i H t / hbar} psi, shape (dim,) for a scalar t, (n_t, dim) for
        a 1-d array of times (t < 0 runs backward). psi is rotated into the
        eigenbases once; one batched matmul per sector size (a product for
        single-state sectors) covers all times."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim,):
            raise DimensionMismatch(f"state shape {psi.shape}, expected ({self.dim},)")
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError("times must be a scalar or a 1-d array")
        n_t = t.size
        x = psi[self.perm]
        # coeffs[i, k]: the phase of eigenvector i at time k, then times
        # psi's coefficient on it; y[i, k]: component i of the permuted
        # basis at time k
        coeffs = _phases(self.w, t.ravel(), self.hbar)
        y = np.empty_like(coeffs)
        for span, v in self.blocks:
            k, s = v.shape[:2]
            if s == 1:
                # single-state sectors: each V is one phase, and the
                # rotation is one product per entry, cheaper than a matmul
                v = v.ravel()
                np.multiply(coeffs[span], (v * v.conj() * x[span])[:, None], out=y[span])
                continue
            block = coeffs[span].reshape(k, s, n_t)
            block *= np.conj(x[span].conj().reshape(k, 1, s) @ v).reshape(k, s, 1)
            np.matmul(v, block, out=y[span].reshape(k, s, n_t))
        # the coefficients are spent: their buffer takes the (n_t, dim) result
        out = coeffs.reshape(n_t, self.dim)
        out[:, self.perm] = y.T
        return out[0] if t.ndim == 0 else out


def _phases(w, t, hbar):
    """exp(-i w t / hbar) as a contiguous (w.size, t.size) array, for 1-d
    arrays of eigenvalues w and times t.

    A grid of at least TABLE_MIN times that is arithmetic, t[k] = t[0] +
    k dt to within TABLE_ULPS ulps of its largest |t|, as every chunk of an
    np.linspace grid is, costs about 2 sqrt(t.size) exponentials per
    eigenvalue instead of t.size: with m = ceil(sqrt(t.size)), a coarse
    table at the grid's own times t[q m] times a fine table at the offsets
    r dt, r < m, fills the columns q m + r block by block. The results
    differ from the direct exponentials in the last bits. Any other grid
    (a nan time included) takes np.exp of each entry.
    """
    n = t.size
    if n >= TABLE_MIN:
        dt = (t[-1] - t[0]) / (n - 1)
        defect = np.max(np.abs(t - (t[0] + dt * np.arange(n))))
        if defect <= TABLE_ULPS * np.spacing(np.max(np.abs(t))):
            m = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
            coarse = _expi(np.multiply.outer(w, -t[::m] / hbar))
            fine = _expi(np.multiply.outer(w, -(dt * np.arange(m)) / hbar))
            out = np.empty((w.size, n), dtype=complex)
            for q in range(coarse.shape[1]):
                np.multiply(coarse[:, q, None], fine[:, :n - q * m],
                            out=out[:, q * m:(q + 1) * m])
            return out
    out = np.multiply.outer(w, -1j * t / hbar)
    return np.exp(out, out=out)


def _expi(theta):
    """exp(i theta) for a real array theta, as cos + i sin written into the
    real and imaginary parts (about half the time of np.exp(1j * theta))."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def reduced_density(psi, subsystem, dim):
    """Partial trace of |psi><psi| onto one factor.

    psi lives on the joint space with x as the left Kronecker factor; its
    last axis must have length dim^2. A stack of states (..., dim^2) gives
    a stack of (..., dim, dim) density matrices.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (dim * dim,):
        raise DimensionMismatch(f"state shape {psi.shape}, expected (..., {dim * dim})")
    mat = psi.reshape(psi.shape[:-1] + (dim, dim))
    if subsystem == "x":
        rho = mat @ mat.conj().swapaxes(-1, -2)
    elif subsystem == "y":
        rho = mat.swapaxes(-1, -2) @ mat.conj()
    else:
        raise ValueError("subsystem must be 'x' or 'y'")
    return rho


def purity(rho):
    """Tr(rho^2), computed as the Frobenius norm squared (manifestly >= 0):
    the sum of squares of the real and imaginary parts of every entry.

    A float for one (d, d) matrix, an array for a stack (..., d, d).
    """
    parts = np.ascontiguousarray(rho, dtype=complex).view(float)
    parts = parts.reshape(parts.shape[:-2] + (1, -1))
    # per matrix, its real and imaginary parts as one row times that row
    # transposed: a sum of squares, without a hypot per entry
    p = (parts @ parts.swapaxes(-1, -2))[..., 0, 0]
    return float(p) if p.ndim == 0 else p


def time_chunks(n_times, dim):
    """Slices of a grid of n_times times, CHUNK // dim rows each (at least
    one), so each chunk's states of dimension dim span about CHUNK elements."""
    rows = max(1, CHUNK // dim)
    return [slice(i, i + rows) for i in range(0, n_times, rows)]


def exact_purity_curve(sys, model, s0, times, subsystem="x"):
    """Reduced-state purity of the evolved product coherent state, per time,
    evaluated a chunk of times at a time; sys must be model.sys."""
    if sys != model.sys:
        raise ValueError(f"sys {sys} is not the model's {model.sys}")
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) <= 0) or times[0] < 0):
        raise ValueError("times must be ascending and non-negative")
    psi0 = product_coherent(sys, s0)
    prop = SpectralPropagator(model.sectors, sys.hbar)
    out = np.empty(times.size)
    for rows in time_chunks(times.size, prop.dim):
        out[rows] = purity(reduced_density(prop.apply(psi0, times[rows]), subsystem, sys.dim))
    return out


def exact_propagator_overlap(model, s_eta, s0, t, xi=+1):
    """<s_eta | e^{-i xi H t / hbar} | s_0> on the joint space, H the
    model's, evolved through model.sectors on model.sys."""
    prop = SpectralPropagator(model.sectors, model.sys.hbar)
    ket = prop.apply(product_coherent(model.sys, s0), xi * t)
    return complex(np.vdot(product_coherent(model.sys, s_eta), ket))
