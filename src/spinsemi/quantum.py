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
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim,):
            raise DimensionMismatch(f"state shape {psi.shape}, expected ({self.dim},)")
        x = psi[self.perm]
        y = np.empty_like(x)
        phases = np.exp((-1j * xi * t / self.hbar) * self.w)
        for span, v, vh in self.blocks:
            shape = v.shape[:2] + (1,)
            coeffs = vh @ x[span].reshape(shape)
            coeffs *= phases[span].reshape(shape)
            np.matmul(v, coeffs, out=y[span].reshape(shape))
        out = np.empty_like(psi)
        out[self.perm] = y
        return out


def evolve_state(h, psi0, t, hbar=1.0, xi=+1):
    """Evolve psi0 under Hermitian h for time t (xi=-1 reverses time)."""
    return SpectralPropagator(h, hbar).apply(np.asarray(psi0, dtype=complex), t, xi)


def reduced_density(psi, subsystem, dim):
    """Partial trace of |psi><psi| onto one factor, as a (dim, dim) array.

    psi lives on the joint space with x as the left Kronecker factor and
    must have length dim^2.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim * dim,):
        raise DimensionMismatch(f"state length {psi.shape}, expected ({dim * dim},)")
    mat = psi.reshape(dim, dim)
    if subsystem == "x":
        rho = mat @ mat.conj().T
    elif subsystem == "y":
        rho = mat.T @ mat.conj()
    else:
        raise ValueError("subsystem must be 'x' or 'y'")
    return rho


def purity(rho):
    """Tr(rho^2), computed as the Frobenius norm squared (manifestly >= 0)."""
    return float(np.sum(np.abs(rho) ** 2))


def linear_entropy(rho):
    return 1.0 - purity(rho)


def exact_purity_curve(sys, model, s0, times, subsystem="x"):
    """Reduced-state purity of the evolved product coherent state, per time."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) <= 0) or times[0] < 0):
        raise ValueError("times must be ascending and non-negative")
    psi0 = product_coherent(sys, s0)
    prop = SpectralPropagator(model.operator, sys.hbar)
    out = np.empty(times.size)
    for i, t in enumerate(times):
        psi = prop.apply(psi0, t)
        out[i] = purity(reduced_density(psi, subsystem, sys.dim))
    return out


def exact_propagator_overlap(sys, h, s_eta, s0, t, xi=+1):
    """<s_eta | e^{-i xi H t / hbar} | s_0> on the joint space."""
    bra = product_coherent(sys, s_eta)
    ket = evolve_state(h, product_coherent(sys, s0), t, sys.hbar, xi)
    return complex(np.vdot(bra, ket))
