"""Experiment driver: exact and semiclassical purity over a time grid.

One run produces a CSV with the fixed column set

    t, p_exact, p_sc, slin_exact, slin_sc,
    residual_detM, residual_energy, residual_im_psc

(17 significant digits, LF line endings) plus a JSON metadata sidecar at
<path>.meta.json. Rows where the semiclassical formula left its validity
window carry nan in the p_sc/slin_sc/residual_im_psc columns and are listed
in the sidecar (flagged_rows) with the reason for each (flag_reasons); they
are flagged, never fabricated. The sidecar's integrator entry says what the
trajectory integration did: its method, accepted and rejected steps, field
evaluations, and smallest and largest step.
"""

import json
import platform
import sys as _sys
import time as _time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import CSV_COLUMNS, build_model, sweep_tag
from .flow import integrate_stability, integrate_trajectory
from .quantum import PurityCurve, SpectralPropagator, purity, reduced_density, time_chunks
from .semiclassical import purity_sc_evaluate
from .spin import product_coherent


@dataclass(frozen=True)
class RunReport:
    """Everything one experiment produced, with its invariant ceilings."""

    curve: PurityCurve
    metadata: dict
    csv_path: Path
    flagged_rows: Sequence[int]


def compute_curve(cfg, model=None):
    """PurityCurve for one configuration (no file output), the flagged rows
    (row index -> why the semiclassical formula broke down there) and the
    IntegratorRecord of its one trajectory integration."""
    model = model or build_model(cfg)
    times = np.linspace(0.0, cfg.t_max, cfg.num_points)
    sys = model.sys

    psi0 = product_coherent(sys, cfg.initial_state)
    prop = SpectralPropagator(model.sectors, sys.hbar)
    p_exact = np.empty(times.size)
    for rows in time_chunks(times.size, prop.dim):
        p_exact[rows] = purity(reduced_density(prop.apply(psi0, times[rows]), "x", sys.dim))

    traj = integrate_trajectory(model, cfg.initial_state, cfg.t_max, cfg.integrator,
                                sample_times=times)
    ms = integrate_stability(traj)
    ev = purity_sc_evaluate(ms, traj.initial, traj.ys)
    flags = {i: reason for i, reason in enumerate(ev.reason) if reason is not None}
    res_detm = np.abs(np.linalg.det(ms) - ev.tcal)
    res_detm[list(flags)] = np.nan
    curve = PurityCurve(
        times=times,
        p_exact=p_exact,
        p_sc=ev.p_sc,
        residual_detM=res_detm,
        residual_energy=np.abs(traj.energy - traj.energy[0]),
        residual_im_psc=ev.im_residual,
    )
    return curve, flags, traj.integrator


def write_csv(path, curve):
    columns = [
        curve.times, curve.p_exact, curve.p_sc, curve.slin_exact,
        curve.slin_sc, curve.residual_detM, curve.residual_energy,
        curve.residual_im_psc,
    ]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write((row * len(curve.times)) % tuple(np.column_stack(columns).ravel().tolist()))


def _sweep_entries(cfg):
    if cfg.sweep is None:
        return [(None, cfg.output_path)]
    pname, values = cfg.sweep
    entries = []
    base = Path(cfg.output_path)
    for val in values:
        name = f"{base.stem}_{pname}={sweep_tag(val)}{base.suffix}"
        entries.append(((pname, val), str(base.with_name(name))))
    return entries


def run_experiment(cfg, output_dir=None, quiet=False):
    """Run the configured experiment, write outputs, return RunReports.

    Sweep values are computed and written one after another, in
    configuration order, each reported on stderr unless quiet.
    """
    reports = []
    for override, rel_path in _sweep_entries(cfg):
        started = _time.perf_counter()
        model = build_model(cfg, override)
        curve, flags, integrator = compute_curve(cfg, model)
        flagged = list(flags)
        wall = _time.perf_counter() - started
        out_path = Path(output_dir) / rel_path if output_dir else Path(rel_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out_path, curve)
        finite = lambda a: a[np.isfinite(a)]
        metadata = {
            "config": cfg.raw,
            "sweep_override": list(override) if override else None,
            "versions": {
                "spinsemi": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": wall,
            "invariants": {
                "max_residual_detM": _maximum(finite(curve.residual_detM)),
                "max_residual_energy": _maximum(finite(curve.residual_energy)),
                "max_residual_im_psc": _maximum(finite(curve.residual_im_psc)),
            },
            "flagged_rows": flagged,
            "flag_reasons": list(flags.values()),
            "integrator": asdict(integrator),
        }
        meta_path = Path(str(out_path) + ".meta.json")
        with open(meta_path, "w", newline="\n") as fh:
            json.dump(metadata, fh, indent=2, default=str)
            fh.write("\n")
        if not quiet:
            print(f"wrote {out_path} ({len(curve.times)} rows"
                  + (f", {len(flagged)} flagged" if flagged else "") + ")", file=_sys.stderr)
        reports.append(RunReport(
            curve=curve, metadata=metadata, csv_path=out_path, flagged_rows=flagged,
        ))
    return reports


def _maximum(arr):
    return float(np.max(arr)) if arr.size else float("nan")
