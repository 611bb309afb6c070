#!/usr/bin/env python3
"""A series that diverges at every real point of a line yet stays uniformly Cauchy.

The construction subdivides each unit block of a base frequency into Fejer
groups.  Block partial sums telescope into bounded Fejer evaluations, so the
sequence of block sums is uniformly Cauchy on the closed right half-plane;
meanwhile each group alone contributes at least e^(-x)/4 at s = x, so the
series cannot converge there.  Divergence and boundedness, side by side.
"""

import argparse

import numpy as np

from gdseries import (
    Frequency,
    LineGrid,
    fejer_identity_residual,
    fejer_polynomial,
    fejer_sup,
    fejer_sup_max,
    neder_cauchy_check,
    neder_construct,
    neder_divergence_check,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x", type=float, default=0.1)
    ap.add_argument("--budget", type=int, default=10_000)
    args = ap.parse_args()

    # the Fejer building block: F_m(1) = 0 but the coefficients are large
    poly = fejer_polynomial(3)
    print("F_3 coefficients:", poly.coeffs)
    print("F_3(1) =", poly(1.0 + 0j))
    print("sup |F_m| on the circle, m=2..6:", [round(fejer_sup(m), 4) for m in range(2, 7)])
    print("C_obs = max over m <= 64:", fejer_sup_max())

    # subdividing integer frequencies 1..8 at the divergence point x
    base = Frequency(np.arange(1.0, 9.0))
    c = neder_construct(base, args.x, point_budget=args.budget)
    print(f"\nconstruction at x = {args.x}: {c.eta.M} points from {base.M}")
    print("group sizes r:", [e.r for e in c.entries])
    print("capped groups:", [e.n for e in c.entries if e.cap_applied] or "none")

    # divergence side: each untruncated group clears the floor e^(-x)/4
    rows = neder_divergence_check(c)
    print("\n n  k   r      block_sum  threshold  pass exempt")
    for r in rows:
        print(
            f"{r.n:2d} {r.k:2d} {r.r:4d} {r.block_sum:12.6f} {r.threshold:10.6f}"
            f"  {str(r.passed):5s} {r.exempt}"
        )

    # Cauchy side: block tails of partial sums stay small uniformly on lines
    grid = LineGrid(1e-3, 0.0, 50.0, 0.05)
    for K, L in ((1, 3), (3, 5), (5, 7)):
        observed, bound = neder_cauchy_check(c, K, L, grid)
        print(f"blocks {K}..{L}: observed sup {observed:.6f} <= telescoped bound {bound:.6f}")

    # and the telescoping itself is an identity, not an estimate
    s_samples = [0.3 + 0j, 0.05 + 4.0j, 1.0 - 7.0j]
    print("regrouping residual:", fejer_identity_residual(c, 3, s_samples))


if __name__ == "__main__":
    main()
