#!/usr/bin/env python3
"""Short-time accuracy of the stability-matrix purity for phase coupling.

For each spin size, evolve to lam*j*T = 1 and print exact purity, the
semiclassical value from the full pipeline, and the closed-form benchmark
at a handful of times. Shows the window where one trajectory is enough and
where it begins to fail.
"""

import argparse

import numpy as np

import spinsemi as ss


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--two-j", type=int, nargs="+", default=[1, 4, 10, 20])
    ap.add_argument("--coupling", type=float, default=1.0)
    ap.add_argument("--sx", type=complex, default=0.8 + 0.0j)
    ap.add_argument("--sy", type=complex, default=0.5 - 0.3j)
    ap.add_argument("--points", type=int, default=9)
    args = ap.parse_args()

    cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    s0 = ss.CoherentLabel(args.sx, args.sy)
    for two_j in args.two_j:
        sys = ss.SpinSystem(two_j=two_j)
        params = ss.PhaseCouplingParams(lam=args.coupling, sys=sys)
        model = ss.phase_coupling_model(params)
        t_max = 1.0 / (args.coupling * sys.j)
        times = np.linspace(0.0, t_max, args.points)
        traj = ss.integrate_trajectory(model, s0, t_max, cfg, sample_times=times)
        print(f"\ntwo_j = {two_j}  (lam*j*T up to 1.0)")
        print(f"{'lam*j*T':>9} {'P_exact':>12} {'P_sc':>12} {'closed':>12} {'|sc-exact|':>12}")
        for i, t in enumerate(traj.ts):
            p_sc = ss.purity_sc(traj, i)
            p_ex = ss.pc_exact_purity(params, s0, t)
            p_cf = ss.pc_purity_sc(params, s0, t)
            print(f"{args.coupling * sys.j * t:9.3f} {p_ex:12.8f} {p_sc:12.8f} "
                  f"{p_cf:12.8f} {abs(p_sc - p_ex):12.2e}")


if __name__ == "__main__":
    main()
