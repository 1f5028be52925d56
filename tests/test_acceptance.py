"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
pytest -s or in failure output) and then asserts, so the suite doubles as a
runnable checklist.
"""

import time

import numpy as np
import pytest

import spinsemi as ss
from oracles import block_identity_defect, canonical_purity, pc_slin_short_time
from spinsemi.numerics import det2
from spinsemi.selftest import _pipeline_purity, run_selftest

CFG = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_real_label(rng, radius=1.2):
    return ss.CoherentLabel(
        complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)),
        complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)),
    )


def test_criterion_1_algebraic_identity_suite():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_det = 0.0
    worst_block = 0.0
    for _ in range(10_000):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        aux = ss.aux_determinants(m)
        det = np.linalg.det(m)
        worst_det = max(
            worst_det, abs(aux.d - aux.d_prime - aux.d_dprime - det) / max(1.0, abs(det))
        )
        if min(abs(det2(m[2:, 2:])), abs(det2(m[:2, :2]))) < 1e-3:  # rare near-singular draws
            continue
        worst_block = max(worst_block, block_identity_defect(m, aux))
    elapsed = time.perf_counter() - started
    ok = worst_det < 1e-10 and worst_block < 1e-10 and elapsed < 10.0
    _report(1, "algebraic-identity-suite", ok,
            f"det residual {worst_det:.2e}, block residual {worst_block:.2e}, {elapsed:.1f}s")


def test_criterion_2_stability_determinant():
    from spinsemi.semiclassical import endpoint_factor

    rng = np.random.default_rng(202)
    started = time.perf_counter()

    sys6 = ss.SpinSystem(two_j=6)
    sys4 = ss.SpinSystem(two_j=4)
    c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    r = float(rng.uniform(-0.5, 0.5))
    random_model = ss.build_operator_model(sys4, [
        ss.OperatorTerm(c, ("J+", 1), ("J-", 1)),
        ss.OperatorTerm(np.conj(c), ("J-", 1), ("J+", 1)),
        ss.OperatorTerm(r, ("J3", 1), ("J3", 1)),
    ])
    cases = [
        (sys6, ss.phase_coupling_model(ss.PhaseCouplingParams(lam=1.0, sys=sys6)), 1.0),
        (sys6, ss.exchange_coupling_model(sys6, 1.0), 1.0),
        (sys4, random_model, 1.0),
    ]
    worst = 0.0
    for sys, model, lam in cases:
        t_final = 1.0 / (lam * sys.j)
        for _ in range(20):
            s0 = _random_real_label(rng)
            traj = ss.integrate_trajectory(model, s0, t_final, CFG,
                                           sample_times=[t_final])
            m = ss.integrate_stability(traj)[-1]
            tcal = endpoint_factor(traj.initial, traj.final)
            worst = max(worst, abs(np.linalg.det(m) - tcal) / abs(tcal))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(2, "det-M-equals-endpoint-factor", ok,
            f"max rel residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_exact_oracle_equivalence():
    started = time.perf_counter()
    lam = 1.0
    s0 = ss.CoherentLabel(0.8, 0.5 - 0.3j)
    worst = 0.0
    for two_j in (1, 2, 5, 10, 20):
        sys = ss.SpinSystem(two_j=two_j)
        params = ss.PhaseCouplingParams(lam=lam, sys=sys)
        model = ss.phase_coupling_model(params)
        times = np.linspace(0.0, 2.0, 50)
        engine = ss.exact_purity_curve(sys, model, s0, times)
        analytic = np.array([ss.pc_exact_purity(params, s0, t) for t in times])
        worst = max(worst, float(np.max(np.abs(engine - analytic) / analytic)))
    # spot value at j = 1/2
    sys1 = ss.SpinSystem(two_j=1)
    params1 = ss.PhaseCouplingParams(lam=lam, sys=sys1)
    spot_ts = np.linspace(0.0, 3.0, 8)
    spot = max(
        abs(ss.pc_exact_purity(params1, ss.CoherentLabel(1.0, 1.0), t)
            - (3 + np.cos(lam * t)) / 4)
        for t in spot_ts
    )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and spot < 1e-12 and elapsed < 120.0
    _report(3, "exact-engine-vs-analytic-sum", ok,
            f"max rel diff {worst:.2e}, spot {spot:.2e}, {elapsed:.1f}s")


def test_criterion_4_short_time_semiclassics():
    started = time.perf_counter()
    lam = 1.0
    worst_exact = 0.0
    worst_pipeline = 0.0
    for two_j in (4, 10, 20):
        sys = ss.SpinSystem(two_j=two_j)
        params = ss.PhaseCouplingParams(lam=lam, sys=sys)
        model = ss.phase_coupling_model(params)
        for label in ((0.5, 0.8j), (1.0, 1.0), (0.3, 2.0)):
            s0 = ss.CoherentLabel(*label)
            coeff = pc_slin_short_time(params, s0, 1.0)
            ts = np.linspace(0.01, 0.05, 8) / (lam * sys.j)
            slin_exact = 1.0 - ss.exact_purity_curve(sys, model, s0, ts)
            # pipeline: one stability run sampled at all fit times (the
            # trajectory always carries the t = 0 anchor in front)
            traj = ss.integrate_trajectory(model, s0, ts[-1], CFG, sample_times=ts)
            index = {t: i for i, t in enumerate(traj.ts)}
            slin_sc = np.array([1.0 - ss.purity_sc(traj, index[t]) for t in ts])
            basis = np.vstack([ts ** 2, ts ** 4]).T
            c_exact = np.linalg.lstsq(basis, slin_exact, rcond=None)[0][0]
            c_sc = np.linalg.lstsq(basis, slin_sc, rcond=None)[0][0]
            worst_exact = max(worst_exact, abs(c_exact - coeff) / coeff)
            worst_pipeline = max(worst_pipeline, abs(c_exact - c_sc) / coeff)
    elapsed = time.perf_counter() - started
    ok = worst_exact <= 5e-3 and worst_pipeline <= 1e-3 and elapsed < 120.0
    _report(4, "short-time-quadratic-law", ok,
            f"exact-fit err {worst_exact:.2e}, pipeline-fit err {worst_pipeline:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_5_pipeline_vs_closed_form():
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    sys = ss.SpinSystem(two_j=6)
    params = ss.PhaseCouplingParams(lam=1.0, sys=sys)
    model = ss.phase_coupling_model(params)
    worst = 0.0
    for _ in range(20):
        s0 = _random_real_label(rng)
        t_final = float(rng.uniform(0.05, 0.3))
        p_pipe, _ = _pipeline_purity(model, s0, t_final, CFG)
        p_closed = ss.pc_purity_sc(params, s0, t_final)
        worst = max(worst, abs(p_pipe - p_closed))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(5, "pipeline-vs-closed-form-purity", ok,
            f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_canonical_limit():
    started = time.perf_counter()
    z = (1.0, 0.5 + 0.5j)
    lam, lam_t = 1.0, 0.02
    target = 1.0 - 2.0 * abs(z[0]) ** 2 * abs(z[1]) ** 2 * lam_t ** 2
    two_js = (8, 16, 32, 64)
    errs = []
    worst_can = 0.0
    for two_j in two_js:
        sys = ss.SpinSystem(two_j=two_j)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys))
        s0 = ss.CoherentLabel(z[0] / np.sqrt(two_j), z[1] / np.sqrt(two_j))
        p_sc, traj = _pipeline_purity(model, s0, lam_t / lam, CFG)
        errs.append(abs(p_sc - target))
        p_can = canonical_purity(ss.integrate_stability(traj)[-1])
        assert 0.0 < p_can.real <= 1.0 and abs(p_can.imag) < 1e-6
        worst_can = max(worst_can, abs(p_can - p_sc))
    order = np.polyfit(np.log([2.0 / tj for tj in two_js]), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - started
    ok = order >= 0.9 and worst_can <= 1e-6
    _report(6, "canonical-limit-contraction", ok,
            f"order {order:.3f}, canonical gap {worst_can:.2e}, {elapsed:.1f}s")


def test_criterion_7_propagator_accuracy():
    started = time.perf_counter()
    lam = 1.0
    s0 = ss.CoherentLabel(0.5, 0.8j)
    errors = []
    for two_j in (4, 10, 20, 40):
        sys = ss.SpinSystem(two_j=two_j)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=lam, sys=sys))
        t_final = 0.1 / (lam * sys.j)
        k_sc, s_eta = ss.semiclassical_propagator_real(model, s0, t_final, CFG)
        k_ex = ss.exact_propagator_overlap(model, s_eta, s0, t_final)
        errors.append(abs(k_sc - k_ex) / abs(k_ex))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    elapsed = time.perf_counter() - started
    ok = monotone and errors[-1] <= 5e-2
    _report(7, "propagator-vs-exact", ok,
            "errors " + ", ".join(f"{e:.2e}" for e in errors) + f", {elapsed:.1f}s")


def test_criterion_8_structural_invariants():
    started = time.perf_counter()
    ok = run_selftest(quiet=True)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    _report(8, "structural-invariant-suite", ok, f"selftest, {elapsed:.1f}s")
