"""Built-in invariant suite behind the `selftest` command verb.

Each check exercises a structural property that must hold regardless of
model or parameters: purity symmetry, non-interacting purity staying at 1,
the stability-determinant identity, the block-determinant algebra, the
compensated hbar*j rescaling, and the integrator drift budgets.
"""

import numpy as np

from .flow import integrate_stability, integrate_trajectory
from .models import (
    PhaseCouplingParams,
    exchange_coupling_model,
    free_precession_model,
    phase_coupling_model,
)
from .numerics import IntegratorConfig
from .quantum import purity, reduced_density
from .semiclassical import aux_determinants, endpoint_factor, purity_sc
from .spin import CoherentLabel, SpinSystem


def _pipeline_purity(sys, model, s0, t_final, cfg):
    traj = integrate_trajectory(sys, model, s0, t_final, cfg, sample_times=[t_final])
    stab = integrate_stability(sys, model, traj, cfg)[-1]
    return purity_sc(stab, traj), traj, stab


def check_purity_symmetry(rng):
    """P(rho_x) = P(rho_y) for random pure joint states."""
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        psi = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        psi /= np.linalg.norm(psi)
        px = purity(reduced_density(psi, "x", dim))
        py = purity(reduced_density(psi, "y", dim))
        worst = max(worst, abs(px - py))
    return worst <= 1e-10, f"max |P(rho_x) - P(rho_y)| = {worst:.2e} (tol 1e-10)"


def check_sc_symmetry(rng):
    """purity_sc is invariant under relabeling the two subsystems."""
    cfg = IntegratorConfig()
    worst = 0.0
    for _ in range(5):
        sys = SpinSystem(two_j=int(rng.integers(1, 9)))
        lam = float(rng.uniform(0.5, 1.5))
        sx = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        sy = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = 0.3 / max(lam * sys.j, 1.0)
        model = phase_coupling_model(PhaseCouplingParams(lam=lam, sys=sys))
        p1, _, _ = _pipeline_purity(sys, model, CoherentLabel(sx, sy), t, cfg)
        p2, _, _ = _pipeline_purity(sys, model, CoherentLabel(sy, sx), t, cfg)
        worst = max(worst, abs(p1 - p2))
    return worst <= 1e-10, f"max x<->y asymmetry = {worst:.2e} (tol 1e-10)"


def check_noninteracting(rng):
    """P_sc stays exactly 1 when the model has no coupling."""
    cfg = IntegratorConfig()
    sys = SpinSystem(two_j=4)
    model = free_precession_model(sys, 0.9)
    worst = 0.0
    for _ in range(3):
        s0 = CoherentLabel(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        p, _, _ = _pipeline_purity(sys, model, s0, 0.8, cfg)
        worst = max(worst, abs(p - 1.0))
    return worst <= 1e-9, f"max |P_sc - 1| = {worst:.2e} non-interacting (tol 1e-9)"


def check_hbar_j_scaling(rng):
    """P_sc depends on hbar and j only through their product.

    Compensated rescaling: double two_j, halve hbar, and rescale the
    coupling so lambda*j is fixed; the purity must not move.
    """
    cfg = IntegratorConfig()
    worst = 0.0
    for _ in range(3):
        s0 = CoherentLabel(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        lam = float(rng.uniform(0.5, 1.5))
        sys_a = SpinSystem(two_j=4, hbar=1.0)
        sys_b = SpinSystem(two_j=8, hbar=0.5)
        model_a = phase_coupling_model(PhaseCouplingParams(lam=lam, sys=sys_a))
        model_b = phase_coupling_model(PhaseCouplingParams(lam=lam / 2.0, sys=sys_b))
        t = 0.2 / lam
        pa, _, _ = _pipeline_purity(sys_a, model_a, s0, t, cfg)
        pb, _, _ = _pipeline_purity(sys_b, model_b, s0, t, cfg)
        worst = max(worst, abs(pa - pb))
    return worst <= 1e-9, f"max purity shift under hbar*j rescaling = {worst:.2e} (tol 1e-9)"


def check_drifts(rng):
    """Energy and reality drift budgets on integrated trajectories."""
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    sys = SpinSystem(two_j=6)
    ok = True
    details = []
    for model in (
        phase_coupling_model(PhaseCouplingParams(lam=1.0, sys=sys)),
        exchange_coupling_model(sys, 0.7),
    ):
        s0 = CoherentLabel(0.6 + 0.2j, -0.3 + 0.5j)
        traj = integrate_trajectory(sys, model, s0, 0.3, cfg)
        budget = 10.0 * cfg.rel_tol * (1.0 + abs(traj.energy[0]))
        e_drift = traj.energy_drift()
        r_drift = traj.reality_drift()
        ok = ok and e_drift <= budget and r_drift <= 1e-8
        details.append(f"{model.label}: dE={e_drift:.2e} (budget {budget:.2e}), "
                       f"dreal={r_drift:.2e}")
    return ok, "; ".join(details)


def check_det_identity(rng):
    """det M equals the endpoint factor along integrated trajectories."""
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    worst = 0.0
    sys = SpinSystem(two_j=5)
    for model in (
        phase_coupling_model(PhaseCouplingParams(lam=1.0, sys=sys)),
        exchange_coupling_model(sys, 0.8),
    ):
        for _ in range(3):
            s0 = CoherentLabel(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                               complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            traj = integrate_trajectory(sys, model, s0, 0.3, cfg, sample_times=[0.3])
            stab = integrate_stability(sys, model, traj, cfg)[-1]
            tcal = endpoint_factor(traj.initial, traj.final)
            worst = max(worst, abs(stab.det() - tcal) / abs(tcal))
    return worst <= 1e-8, f"max |det M - T|/|T| = {worst:.2e} (tol 1e-8)"


def check_block_algebra(rng):
    """d - d' - d'' = det M for arbitrary complex 4x4 matrices."""
    worst = 0.0
    for _ in range(500):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        aux = aux_determinants(m)
        det = np.linalg.det(m)
        worst = max(worst, abs(aux.d - aux.d_prime - aux.d_dprime - det) / max(1.0, abs(det)))
    return worst <= 1e-10, f"max |d - d' - d'' - det M| = {worst:.2e} (tol 1e-10)"


CHECKS = (
    ("purity-symmetry", check_purity_symmetry),
    ("sc-purity-symmetry", check_sc_symmetry),
    ("noninteracting-purity", check_noninteracting),
    ("hbar-j-scaling", check_hbar_j_scaling),
    ("integrator-drifts", check_drifts),
    ("det-stability-identity", check_det_identity),
    ("block-determinant-algebra", check_block_algebra),
)


def run_selftest(quiet=False, seed=2024):
    """Run every invariant check; returns True when all pass."""
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(rng)
        all_ok = all_ok and ok
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
