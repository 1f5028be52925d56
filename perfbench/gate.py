"""Correctness gate: every curve a benchmark run writes is checked here.

The checks read what a user of `spinsemi run` gets, the CSV text and its
`.meta.json` sidecar, and run outside the timed region. Rows whose
semiclassical columns are nan are flagged rows; they are valid output and
are counted, not failed.

Tolerances are those of the acceptance suite:
  - p_exact against the phase-coupling closed form, 1e-9 relative (criterion 3);
  - p_sc against the phase-coupling closed form, 1e-8 absolute (criterion 5);
  - det M = T, 1e-8 relative (criterion 2);
  - x<->y purity symmetry, 1e-10 absolute (the selftest's purity-symmetry check).

At the default seed, exchange_sweep's label-0 curves are also compared with
reference/exchange_sweep/, written by run_experiment at commit 0d75877 from
config_document(WORKLOADS["exchange_sweep"], draw_labels(DEFAULT_SEED, 1)[0],
"exchange_sweep-label0.csv").
"""

import math
from pathlib import Path

import numpy as np

from spinsemi.config import CSV_COLUMNS, build_model
from spinsemi.models import PhaseCouplingParams, pc_exact_purity, pc_purity_sc
from spinsemi.quantum import exact_purity_curve

EXACT_REL_TOL = 1e-9
SC_ABS_TOL = 1e-8
DETM_REL_TOL = 1e-8
SYMMETRY_ABS_TOL = 1e-10
SLIN_ABS_TOL = 1e-12

# Comparison with a stored reference CSV: the purities at the tolerances
# above; the residual columns are integrator diagnostics that a correct
# change may move, so they are left to the det M = T check.
REFERENCE_COLUMNS = {
    "p_exact": ("rel", EXACT_REL_TOL),
    "slin_exact": ("abs", EXACT_REL_TOL),
    "p_sc": ("abs", SC_ABS_TOL),
    "slin_sc": ("abs", SC_ABS_TOL),
}


def parse_csv(text):
    """Column name -> float array, from the runner's CSV text."""
    lines = text.rstrip("\n").split("\n")
    header = tuple(lines[0].split(","))
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, {name: values[:, i] for i, name in enumerate(header)}


def _worst(got, want, kind):
    diff = np.abs(got - want)
    if kind == "rel":
        diff = diff / np.abs(want)
    return float(np.max(diff)) if diff.size else 0.0


class Gate:
    """Checks the curves of one workload configuration.

    reference_dir, when given, holds CSVs recorded from a known-good commit
    under the same file names the run writes; each written curve is then
    also compared with its reference.
    """

    def __init__(self, workload, cfg, reference_dir=None):
        self.workload = workload
        self.cfg = cfg
        self.reference_dir = Path(reference_dir) if reference_dir else None
        self.times = np.linspace(0.0, cfg.t_max, cfg.num_points)
        self._expected = {}

    def _lam(self, sidecar):
        override = sidecar.get("sweep_override")
        return float(override[1]) if override else self.cfg.model_params["lambda"]

    def _expected_curves(self, lam):
        """The independent values p_exact and p_sc are checked against."""
        if lam not in self._expected:
            cfg, s0 = self.cfg, self.cfg.initial_state
            if self.workload.closed_form:
                params = PhaseCouplingParams(lam=lam, sys=cfg.system)
                self._expected[lam] = (
                    np.array([pc_exact_purity(params, s0, t) for t in self.times]),
                    np.array([pc_purity_sc(params, s0, t) for t in self.times]),
                )
            else:
                model = build_model(cfg, ("lambda", lam))
                p_y = exact_purity_curve(cfg.system, model, s0, self.times, subsystem="y")
                self._expected[lam] = (p_y, None)
        return self._expected[lam]

    def _tcal_floor(self):
        """Lower bound of |T| on a real trajectory.

        T = prod_k ((1 + |u_k(t)|^2) / (1 + |s_k|^2))^2 with |u_k(t)|^2 >= 0,
        so |det M - T| <= tol * floor implies the relative residual is <= tol.
        """
        s0 = self.cfg.initial_state
        return 1.0 / ((1.0 + abs(s0.sx) ** 2) * (1.0 + abs(s0.sy) ** 2)) ** 2

    def check(self, name, csv_text, sidecar):
        """Problems found in one written curve (empty when it is correct)."""
        header, cols = parse_csv(csv_text)
        if header != CSV_COLUMNS:
            return [f"{name}: header {header} differs from {CSV_COLUMNS}"]
        if cols["t"].size != self.times.size or np.any(cols["t"] != self.times):
            return [f"{name}: time grid differs from linspace(0, t_max, num_points)"]
        problems = []
        flagged = np.flatnonzero(np.isnan(cols["p_sc"])).tolist()
        if flagged != list(sidecar.get("flagged_rows", [])):
            problems.append(f"{name}: nan p_sc rows {flagged} differ from the "
                            f"sidecar's flagged_rows")
        valid = ~np.isnan(cols["p_sc"])
        for p, slin in (("p_exact", "slin_exact"), ("p_sc", "slin_sc")):
            ok = valid if p == "p_sc" else slice(None)
            worst = _worst(cols[slin][ok], 1.0 - cols[p][ok], "abs")
            if not worst <= SLIN_ABS_TOL:
                problems.append(f"{name}: {slin} differs from 1 - {p} by {worst:.2e}")

        p_exact_ref, p_sc_ref = self._expected_curves(self._lam(sidecar))
        if self.workload.closed_form:
            worst = _worst(cols["p_exact"], p_exact_ref, "rel")
            if not worst <= EXACT_REL_TOL:
                problems.append(f"{name}: p_exact off the closed form by {worst:.2e} "
                                f"relative (tol {EXACT_REL_TOL})")
            worst = _worst(cols["p_sc"][valid], p_sc_ref[valid], "abs")
            if not worst <= SC_ABS_TOL:
                problems.append(f"{name}: p_sc off the closed form by {worst:.2e} "
                                f"(tol {SC_ABS_TOL})")
        else:
            worst = _worst(cols["p_exact"], p_exact_ref, "abs")
            if not worst <= SYMMETRY_ABS_TOL:
                problems.append(f"{name}: P(rho_x) and P(rho_y) differ by {worst:.2e} "
                                f"(tol {SYMMETRY_ABS_TOL})")
        detm = sidecar.get("invariants", {}).get("max_residual_detM", math.nan)
        if valid.any() and not detm <= DETM_REL_TOL * self._tcal_floor():
            problems.append(f"{name}: max |det M - T| = {detm:.2e} exceeds "
                            f"{DETM_REL_TOL} relative")
        if self.reference_dir is not None:
            problems += self._compare_reference(name, cols)
        return problems

    def _compare_reference(self, name, cols):
        path = self.reference_dir / name
        if not path.is_file():
            return [f"{name}: no reference CSV at {path.name}"]
        _, ref = parse_csv(path.read_text())
        if ref["t"].size != cols["t"].size:
            return [f"{name}: {cols['t'].size} rows, reference has {ref['t'].size}"]
        if not np.array_equal(np.isnan(ref["p_sc"]), np.isnan(cols["p_sc"])):
            return [f"{name}: flagged rows differ from the reference"]
        problems = []
        for col, (kind, tol) in REFERENCE_COLUMNS.items():
            ok = ~np.isnan(ref[col])
            worst = _worst(cols[col][ok], ref[col][ok], kind)
            if not worst <= tol:
                problems.append(f"{name}: {col} differs from the reference by "
                                f"{worst:.2e} ({kind}, tol {tol})")
        return problems
