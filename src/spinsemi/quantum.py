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

A grid of times is evaluated time-major: the phases of the distinct
eigenvalues, times the state's coefficient on each eigenvector, are
written straight into the (n_t, dim) array that apply returns; sectors of
more than one state are rotated back in place, and the basis is permuted
back only where the sectors reorder it. Whole curves walk the grid in
chunks of about CHUNK elements per array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import hermitian_eig
from .spin import product_coherent

# complex elements per array when a time grid is evaluated in chunks
# (512 KiB): bounds the memory of whole-curve evaluation at any grid length.
# Measured against 1 << 14 and 1 << 16, run by run in the benchmark's loop:
# on exact_large_spin 1 << 15 took 0.30 ms less than 1 << 16 per run (half
# the minor page faults) and 1 << 14 0.32 ms less, while on dense_sampling
# 1 << 14 cost 0.52 ms more (30 chunks of 135 times, against 15 of 270) and
# 1 << 15 0.09 ms; exchange_sweep (one chunk) did not move.
CHUNK = 1 << 15

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
    size's sectors are contiguous, row by row. Of the decompositions, only
    the eigenvector stacks V and the distinct eigenvalues are kept:
    V^dagger x is taken as conj(conj(x) V), and as x itself for sectors of
    one state, whose V is 1.
    """

    def __init__(self, sectors, hbar=1.0):
        self.dim = sectors.dim
        self.hbar = hbar
        self.perm = np.concatenate([idx.ravel() for idx in sectors.indices])
        # the inverse permutation, gathered through at the end of apply
        # (about half the time of scattering through perm); None where the
        # sectors list the basis in order, as phase coupling's and free
        # precession's single states do
        self.unperm = (None if np.array_equal(self.perm, np.arange(self.dim))
                       else np.argsort(self.perm, kind="stable"))
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
        # the distinct eigenvalues, and the one of each eigenvalue: apply
        # takes its exponentials of these alone. Stable sorts, not np.unique
        # or a default argsort: their quicksort pages in about 0.3 MB of
        # code that nothing else in a run touches (peak RSS).
        w = np.concatenate(eigenvalues)
        levels = np.sort(w, kind="stable")
        self.levels = levels[np.concatenate(([True], np.diff(levels) > 0))]
        self.level_of = np.searchsorted(self.levels, w)

    @property
    def w(self):
        """The eigenvalues, in the order of the permuted basis."""
        return self.levels[self.level_of]

    def apply(self, psi, t):
        """e^{-i H t / hbar} psi, shape (dim,) for a scalar t, (n_t, dim) for
        a 1-d array of times (t < 0 runs backward), C-contiguous. psi is
        rotated into the eigenbases once; the phases times its coefficients
        are written time-major into the array returned, and one batched
        matmul per multi-state sector size rotates them back."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim,):
            raise DimensionMismatch(f"state shape {psi.shape}, expected ({self.dim},)")
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError("times must be a scalar or a 1-d array")
        x = psi if self.unperm is None else psi[self.perm]
        # psi's coefficient on each eigenvector, in the order of w
        coeffs = np.empty(self.dim, dtype=complex)
        for span, v in self.blocks:
            k, s = v.shape[:2]
            if s == 1:
                # single-state sectors: |V| = 1, so the coefficient
                # V conj(V) x is x itself (LAPACK returns V = 1 there)
                coeffs[span] = x[span]
            else:
                coeffs[span] = np.conj(x[span].conj().reshape(k, 1, s) @ v).ravel()
        # out[k, i]: component i of the permuted basis at time k
        out = _phases(self.levels, self.level_of, t.ravel(), self.hbar, coeffs)
        for span, v in self.blocks:
            k, s = v.shape[:2]
            if s > 1:
                # eigenvalue-major V @ block, measured a little faster than
                # the time-major block @ V^T for these stacks
                block = out[:, span].reshape(out.shape[0], k, s)
                block[...] = (v @ block.transpose(1, 2, 0)).transpose(2, 0, 1)
        if self.unperm is not None:
            out = np.take(out, self.unperm, axis=1)  # C-contiguous, unlike out[:, unperm]
        return out[0] if t.ndim == 0 else out


def _phases(levels, level_of, t, hbar, coeffs):
    """coeffs * exp(-i w t / hbar) as a contiguous (t.size, w.size) array,
    where w = levels[level_of], for 1-d arrays of distinct eigenvalues
    levels, the level of each eigenvalue, times t and coefficients coeffs
    (one per eigenvalue).

    Exponentials are taken of the levels only and gathered: a degenerate
    spectrum, as phase coupling's (305 levels of 1681 eigenvalues at
    two_j=40, lambda=1), pays for its distinct values, and each entry is
    bitwise the exponential of its own eigenvalue.

    A grid of at least TABLE_MIN times that is arithmetic, t[k] = t[0] +
    k dt to within TABLE_ULPS ulps of its largest |t|, as every chunk of an
    np.linspace grid is, costs about
    2 sqrt(t.size) exponentials per level instead of t.size: with m =
    ceil(sqrt(t.size)), a coarse table at the grid's own times t[q m] times
    a fine table at the offsets r dt, r < m, with coeffs folded into the
    fine table, fills the rows q m + r in one broadcast product. The
    results differ from the direct products in the last bits. Any other
    grid (a nan time included) takes np.exp of each level at each time,
    times coeffs.
    """
    n = t.size
    if n >= TABLE_MIN:
        dt = (t[-1] - t[0]) / (n - 1)
        defect = np.max(np.abs(t - (t[0] + dt * np.arange(n))))
        if defect <= TABLE_ULPS * np.spacing(np.max(np.abs(t))):
            m = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
            # np.take gathers in about a third of the time of a[:, level_of]
            coarse = np.take(_expi(np.multiply.outer(-t[::m] / hbar, levels)), level_of, axis=1)
            fine = np.take(_expi(np.multiply.outer(-(dt * np.arange(m)) / hbar, levels)),
                           level_of, axis=1)
            fine *= coeffs
            out = np.empty((n, level_of.size), dtype=complex)
            whole = n // m  # coarse rows followed by all m fine rows
            np.multiply(coarse[:whole, None], fine, out=out[:whole * m].reshape(whole, m, -1))
            np.multiply(coarse[whole:], fine[:n - whole * m], out=out[whole * m:])
            return out
    table = np.multiply.outer(-1j * t / hbar, levels)
    out = np.take(np.exp(table, out=table), level_of, axis=1)
    out *= coeffs
    return out


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
    # written as not (...) so that a nan time fails the check too
    if times.size and not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)
                           and times[0] >= 0):
        raise ValueError("times must be finite, ascending and non-negative")
    psi0 = product_coherent(sys, s0)
    prop = SpectralPropagator(model.sectors, sys.hbar)
    out = np.empty(times.size)
    for rows in time_chunks(times.size, prop.dim):
        out[rows] = purity(reduced_density(prop.apply(psi0, times[rows]), subsystem, sys.dim))
    return out


def exact_propagator_overlap(model, s_eta, s0, t, xi=+1):
    """<s_eta | e^{-i xi H t / hbar} | s_0> on the joint space, H the
    model's, evolved through model.sectors on model.sys. t must be finite."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    prop = SpectralPropagator(model.sectors, model.sys.hbar)
    ket = prop.apply(product_coherent(model.sys, s0), xi * t)
    return complex(np.vdot(product_coherent(model.sys, s_eta), ket))
