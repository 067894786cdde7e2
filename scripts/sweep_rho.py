"""Soft check that finer scales make single-line recurrence more likely.

For a few probe lines on the coarse net, estimate the probability that a
random perturbation sends the line back into L0, at rho = 4^-3 and 4^-4.
The asymptotic picture predicts the failure probability shrinks as rho does;
we report the measured pair per line without asserting it (desk-scale grids
are far from the regime where the bound bites).

Usage: python3 scripts/sweep_rho.py [--samples 200] [--seed 0] [--lines 6]
"""

import argparse
import time

import numpy as np

from ifsproj import Line, RowRuns, RunConfig, build_pipeline, estimate_success_prob


def build(rho: float):
    res, _, cand = build_pipeline(RunConfig(ifs="sierpinski", rho=rho))
    return res.ifs, cand


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lines", type=int, default=6)
    args = ap.parse_args()

    t0 = time.time()
    rhos = (4.0**-3, 4.0**-4)
    systems = {}
    for rho in rhos:
        systems[rho] = build(rho)
        ifs, cand = systems[rho]
        print(f"[{time.time()-t0:6.1f}s] rho = {rho:.6g}: |L1| = {int(cand.L1.sum())}")

    # probe lines: evenly strided points of the coarse net, mapped to the fine
    # net by coordinates (membership pre-check inside estimate_success_prob
    # re-snaps them against each grid)
    _, coarse = systems[rhos[0]]
    n = coarse.delta_count
    cells = np.arange(0, n, max(1, n // args.lines))[: args.lines]
    th, tt = RowRuns.of(coarse.L1).lines(coarse.geom, cells)
    probes = [Line(float(a), float(b)) for a, b in zip(th, tt)]

    print(f"{'theta':>10} {'t':>10} " + " ".join(f"p_fail@{r:.4g}" for r in rhos))
    monotone = 0
    for u in probes:
        fails = []
        for rho in rhos:
            ifs, cand = systems[rho]
            try:
                p = estimate_success_prob(
                    ifs, u, cand, samples=args.samples, seed=args.seed, epsilon=0.3
                )
            except ValueError:
                fails.append(None)  # probe not on this net
                continue
            fails.append(1.0 - p)
        row = " ".join("   skipped" if f is None else f"{f:10.4f}" for f in fails)
        print(f"{u.theta:10.4f} {u.t:10.4f} {row}")
        if None not in fails and fails[1] <= fails[0]:
            monotone += 1
    print(f"failure probability non-increasing in resolution on {monotone}/{len(probes)} lines "
          f"(reported, not asserted)")


if __name__ == "__main__":
    main()
