"""Exact quantum engine: unitary evolution, partial traces, purity.

Evolution goes through the spectral decomposition of the joint
Hamiltonian, taken block by block: the basis splits into the sectors that
H never connects (connected components of its nonzero pattern) and each
sector is diagonalized on its own. Long-time phases are exact, and a whole
purity curve reuses one set of sector eigendecompositions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import hermitian_eig
from .spin import product_coherent

# complex elements per array when a time grid is evaluated in chunks
# (1 MiB): bounds the memory of whole-curve evaluation at any grid length
CHUNK = 1 << 16


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


def invariant_sectors(h):
    """Basis indices of the sectors of h, grouped by sector size.

    The sectors are the connected components of the graph with an edge
    i - j wherever h[i, j] or h[j, i] is nonzero (compared with exact
    zero), so h has no entry, in either triangle, between two sectors.
    Returns one (k, s) index array per sector size s, ascending in s; each
    row lists one sector's indices in ascending order.
    """
    n = h.shape[0]
    rows, cols = divmod(np.flatnonzero(h != 0), n)
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


class SpectralPropagator:
    """e^{-i H t / hbar} applied through the eigenbases of H's sectors.

    Sectors of equal size are stacked: one batched eigendecomposition per
    size at construction, and one batched rotation into and out of the
    eigenbases per size on each apply. The basis is permuted so that each
    size's sectors are contiguous, row by row.
    """

    def __init__(self, h, hbar=1.0):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
            raise ValueError("SpectralPropagator expects a non-empty square matrix")
        self.dim = h.shape[0]
        self.hbar = hbar
        sectors = invariant_sectors(h)
        self.perm = np.concatenate([idx.ravel() for idx in sectors])
        eigenvalues = []
        self.blocks = []  # (slice of the permuted basis, V, V^dagger) per size
        start = 0
        # h is exactly zero between sectors, both ways, so checking each
        # sector block for Hermiticity checks the whole matrix
        for idx in sectors:
            w, v = hermitian_eig(h[idx[:, :, None], idx[:, None, :]])
            eigenvalues.append(w.ravel())
            self.blocks.append((slice(start, start + idx.size), v,
                                np.ascontiguousarray(v.conj().swapaxes(1, 2))))
            start += idx.size
        self.w = np.concatenate(eigenvalues)

    def apply(self, psi, t, xi=+1):
        """e^{-i xi H t / hbar} psi: shape (dim,) for a scalar t, (n_t, dim)
        for a 1-d array of times. psi is rotated into the eigenbases once;
        then one batched matmul per sector size covers all the times."""
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
        coeffs = np.multiply.outer(self.w, -1j * xi * t.ravel() / self.hbar)
        np.exp(coeffs, out=coeffs)
        y = np.empty_like(coeffs)
        for span, v, vh in self.blocks:
            k, s = v.shape[:2]
            block = coeffs[span].reshape(k, s, n_t)
            block *= vh @ x[span].reshape(k, s, 1)
            np.matmul(v, block, out=y[span].reshape(k, s, n_t))
        # the coefficients are spent: their buffer takes the (n_t, dim) result
        out = coeffs.reshape(n_t, self.dim)
        out[:, self.perm] = y.T
        return out[0] if t.ndim == 0 else out


def evolve_state(h, psi0, t, hbar=1.0, xi=+1):
    """Evolve psi0 under Hermitian h for time t (xi=-1 reverses time)."""
    return SpectralPropagator(h, hbar).apply(np.asarray(psi0, dtype=complex), t, xi)


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
    """Tr(rho^2), computed as the Frobenius norm squared (manifestly >= 0).

    A float for one (d, d) matrix, an array for a stack (..., d, d).
    """
    p = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    return float(p) if p.ndim == 0 else p


def linear_entropy(rho):
    return 1.0 - purity(rho)


def time_chunks(n_times, dim):
    """Slices of a grid of n_times times, CHUNK // dim rows each (at least
    one), so each chunk's states of dimension dim span about CHUNK elements."""
    rows = max(1, CHUNK // dim)
    return [slice(i, i + rows) for i in range(0, n_times, rows)]


def exact_purity_curve(sys, model, s0, times, subsystem="x"):
    """Reduced-state purity of the evolved product coherent state, per time,
    evaluated a chunk of times at a time."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) <= 0) or times[0] < 0):
        raise ValueError("times must be ascending and non-negative")
    psi0 = product_coherent(sys, s0)
    prop = SpectralPropagator(model.operator, sys.hbar)
    out = np.empty(times.size)
    for rows in time_chunks(times.size, prop.dim):
        out[rows] = purity(reduced_density(prop.apply(psi0, times[rows]), subsystem, sys.dim))
    return out


def exact_propagator_overlap(sys, h, s_eta, s0, t, xi=+1):
    """<s_eta | e^{-i xi H t / hbar} | s_0> on the joint space."""
    bra = product_coherent(sys, s_eta)
    ket = evolve_state(h, product_coherent(sys, s0), t, sys.hbar, xi)
    return complex(np.vdot(bra, ket))
