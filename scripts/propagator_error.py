#!/usr/bin/env python3
"""Semiclassical propagator error against the exact overlap.

Evaluates the diagonal-endpoint propagator for the phase coupling at fixed
scaled time lam*j*T and prints the relative error as the spin grows; the
error should fall roughly like 1/j.
"""

import argparse

import spinsemi as ss


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--two-j", type=int, nargs="+", default=[4, 10, 20, 40])
    ap.add_argument("--coupling", type=float, default=1.0)
    ap.add_argument("--scaled-time", type=float, default=0.1, help="lam*j*T")
    ap.add_argument("--sx", type=complex, default=0.5 + 0.0j)
    ap.add_argument("--sy", type=complex, default=0.8j)
    args = ap.parse_args()

    cfg = ss.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    s0 = ss.CoherentLabel(args.sx, args.sy)
    print(f"{'two_j':>6} {'|K_sc|':>12} {'|K_exact|':>12} {'rel err':>12}")
    for two_j in args.two_j:
        sys = ss.SpinSystem(two_j=two_j)
        model = ss.phase_coupling_model(ss.PhaseCouplingParams(lam=args.coupling, sys=sys))
        t_final = args.scaled_time / (args.coupling * sys.j)
        k_sc, s_eta = ss.semiclassical_propagator_real(model, s0, t_final, cfg)
        k_ex = ss.exact_propagator_overlap(model, s_eta, s0, t_final)
        print(f"{two_j:6d} {abs(k_sc):12.8f} {abs(k_ex):12.8f} "
              f"{abs(k_sc - k_ex) / abs(k_ex):12.3e}")


if __name__ == "__main__":
    main()
