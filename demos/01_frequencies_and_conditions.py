#!/usr/bin/env python3
"""Tour of frequency construction and the gap/growth conditions.

Builds the bundled frequency kinds, reports their gap structure, and runs
the three condition checkers plus the upper-density estimator on each.
"""

import numpy as np

from gdseries import (
    check_bc,
    check_lc,
    check_poly_growth,
    estimate_L,
    make_frequency,
    refine_gaps,
)

M = 100

print("== gap structure ==")
for kind in ("linear", "log", "logprimes", "sqrtlog", "interleave-exp2"):
    freq = make_frequency(kind, M)
    gaps = freq.gaps
    print(
        f"{kind:16s} M={freq.M:4d} first={freq.values[0]:.4f} "
        f"last={freq.values[-1]:.4f} min_gap={gaps.min():.3e} max_gap={gaps.max():.3e}"
    )

# The interleave kinds squeeze a point exponentially close under each
# integer; the metadata keeps the exact log-gaps that the floats cannot.
freq = make_frequency("interleave-exp2", M)
lg = freq.log_gaps
print("\ninterleave-exp2 exact log-gaps (head):", np.array2string(lg[:6], precision=1))
print("smallest exact log-gap:", lg.min(), "(float gaps bottom out near one ulp)")

print("\n== condition checkers ==")
for kind in ("linear", "log", "interleave-exp2"):
    freq = make_frequency(kind, M)
    bc = check_bc(freq, l=1.0, delta=0.1)
    lc = check_lc(freq, delta=0.5)
    print(f"{kind:16s} BC -> {bc.verdict:17s} LC -> {lc.verdict}")

# Polynomial growth sits between the two: sqrtlog passes with d=2.
freq = make_frequency("sqrtlog", M)
poly = check_poly_growth(freq, l=1.0, d=2.0, delta=0.1)
print(f"{'sqrtlog':16s} POLY(d=2) -> {poly.verdict}")

print("\n== upper density L = limsup log N / lambda_N ==")
for kind in ("linear", "log", "sqrtlog"):
    freq = make_frequency(kind, 2000)
    est = estimate_L(freq)
    print(f"{kind:10s} estimate={est.estimate:10.4f} trend={est.trend}")

# Refinement caps gaps at 1 by inserting midpoints; conditions only get
# easier afterwards, which is why the bound profiles apply it silently.
from gdseries import Frequency

coarse = Frequency(np.array([0.0, 5.0, 10.0, 30.0]))
fine = refine_gaps(coarse)
print("\nrefine_gaps: 4 points with gaps up to 20 ->", fine.M, "points, max gap", fine.gaps.max())
