#!/usr/bin/env python3
"""Evaluating a series, chasing its sup on vertical lines, recovering a coefficient."""

import numpy as np

from gdseries import (
    DirichletSeries,
    LineGrid,
    builtin_coefficients,
    coefficient_recover,
    evaluate,
    halfplane_norm,
    line_sup_report,
    make_frequency,
    translate,
)

freq = make_frequency("log", 32)
D = DirichletSeries(freq, builtin_coefficients("seeded-normal", 32, seed=5))

# pointwise evaluation is just the finite sum sum a_n e^(-lambda_n s)
for sigma in (0.0, 0.5, 1.0):
    v = evaluate(D, complex(sigma, 1.0))
    print(f"D({sigma}+1i) = {v.real:+.6f}{v.imag:+.6f}i   |D| = {abs(v):.6f}")

# sup over a vertical line: grid max, refined until stable, plus a
# certified upper bound from the Lipschitz constant of the line restriction
print("\n== line sups ==")
for sigma in (0.0, 0.25, 1.0):
    grid = LineGrid(sigma, 0.0, 200.0, 0.05)
    rep = line_sup_report(D, None, grid, tol_sup=1e-4)
    print(
        f"sigma={sigma:4.2f} grid_max={rep.value:.8f} certified<={rep.certified_upper:.8f} "
        f"rounds={rep.rounds} final_step={rep.step:g}"
    )

# the trivial ceiling: sup <= sum |a_n| e^(-lambda_n sigma), reached only
# when every term aligns in phase somewhere on the line
print("\nabs-sum ceiling at sigma=0:", D.abs_sum(0.0))

# half-plane norm: sups at decreasing sigma levels toward the boundary
rep = halfplane_norm(D, LineGrid(1e-3, 0.0, 200.0, 0.05), levels=6)
print("half-plane estimate:", rep.estimate, "certified <=", rep.certified_upper)

# translation D_tau(s) = D(s + tau) folds the shift into the coefficients
shifted = translate(D, 0.7 + 0.0j)
lhs = evaluate(D, 1.0 + 2.0j)
rhs = evaluate(shifted, 0.3 + 2.0j)
print("\ntranslate residual:", abs(lhs - rhs))

# Bohr's lemma in practice: the n-th coefficient comes back from a long
# vertical average of f against e^(lambda_n s); the polynomial acts as its
# own f here via with_self_reference
from gdseries import with_self_reference

freq3 = make_frequency("linear", 3)
target = with_self_reference(
    DirichletSeries(freq3, np.array([1.0 + 0j, -2.0 + 0.5j, 0.25 - 1.0j]))
)
got = coefficient_recover(target, n=2, sigma=1.0, T=5000.0, step=0.05)
print("recovered a_2 =", got, " true a_2 =", target.coeffs[1])
