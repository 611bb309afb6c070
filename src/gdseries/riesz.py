"""Riesz typical means of Dirichlet series and their integral identities.

The mean of order k and length x keeps the terms with lambda_n < x (strict)
and damps them by (1 - lambda_n/x)^k.  The companion quantity

    A_w^k(t) = sum_{lambda_n < t} a_n e^{-w lambda_n} (t - lambda_n)^k

ties the means to one-sided integrals; the checks in this module verify those
identities at quadrature precision, which makes them sharp regression tests.

Norm constants: the mean of order k on a vertical line is bounded by a
constant times the half-plane sup of the series.  Two constants are kept side
by side: ``paper_constant(k) = (e/pi) Gamma(k+1) / k`` (the small-k form) and
``c_exact(k)``, obtained by evaluating the underlying integral
``int_0^inf (1+u^2)^(-(1+k)/2) du`` exactly.  Only ``c_exact`` is a valid
bound for all 0 < k <= 1: at k = 1 the small-k form is below 1, which no
uniform bound can be, since the order-1 means converge to the function itself.

scipy is imported only when a quadrature runs.  ``quad`` below is a
module-level function that imports ``scipy.integrate.quad`` on its first call
and forwards to it; ``beta_identity`` imports ``gammaln`` itself, and
``check_fractional_identity`` scipy's ``IntegrationWarning``.  So a
process that never integrates (most CLI actions) never loads scipy, which is
most of the package's import time.  ``quad`` stays a module-level name, and
every quadrature here calls it through that name, so a wrapper that rebinds
``riesz.quad`` (a profiler, a call counter) sees every integral.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .estimates import AbscissaEstimate, windowed_limsup
from .frequency import Frequency
from .series import (
    DirichletSeries, LineGrid, _call_reference, _eval_line, _line_terms, _ordered_sum, _refine_lines, evaluate
)

__all__ = [
    "riesz_mean",
    "riesz_truncation",
    "typical_mean_A",
    "check_abel_integral",
    "check_fractional_identity",
    "beta_identity",
    "riesz_uniform_error",
    "sigma_u_k_estimate",
    "c_exact",
    "paper_constant",
    "proof_integral",
]


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call (see the module
    docstring)."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _check_order(k: float) -> None:
    """The mean orders the norm constants and bounds take: 0 < k <= 1."""
    if not 0 < k <= 1:
        raise ValueError("need 0 < k <= 1")


def riesz_mean(D: DirichletSeries, k: float, x: float, s: complex = 0j) -> complex:
    """R_x^k(D)(s) = sum_{lambda_n < x} a_n (1 - lambda_n/x)^k e^{-lambda_n s}.

    Strict inequality: a term with lambda_n = x is excluded.  k = 0 reduces to
    the partial sum over lambda_n < x.
    """
    trunc = riesz_truncation(D, k, x)
    return 0j if trunc is None else evaluate(trunc, s)


def _mean_row(D: DirichletSeries, k: float, x: float) -> np.ndarray:
    """The mean's coefficients a_n (1 - lambda_n/x)^k over the prefix lambda_n < x (maybe empty)."""
    if k < 0:
        raise ValueError("need k >= 0")
    if x <= 0:
        raise ValueError("need x > 0")
    lam = D.freq.values
    n = int(np.count_nonzero(lam < x))
    return D.coeffs[:n] * np.power(1.0 - lam[:n] / x, k)


def riesz_truncation(D: DirichletSeries, k: float, x: float) -> Optional[DirichletSeries]:
    """The mean R_x^k as a Dirichlet polynomial (weighted truncation).

    Returns None when no term satisfies lambda_n < x.
    """
    row = _mean_row(D, k, x)
    if not row.size:
        return None
    return DirichletSeries(Frequency(D.freq.values[: row.size], generator=f"riesz:{D.freq.generator}"), row)


def typical_mean_A(D: DirichletSeries, k: float, w: complex, x: float) -> complex:
    """A_w^k(x) = sum_{lambda_n < x} a_n e^{-w lambda_n} (x - lambda_n)^k.

    Relation to the means: A_w^k(x) = x^k * R_x^k(translate(D, w))(0).
    """
    if k < 0:
        raise ValueError("need k >= 0")
    lam = D.freq.values
    mask = lam < x
    if not mask.any():
        return 0j
    lamm = lam[mask]
    # an overflow is rejected below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        terms = D.coeffs[mask] * np.exp(-complex(w) * lamm) * np.power(x - lamm, k)
    return _ordered_sum(terms, f"A_w^k(x) is not finite at w = {complex(w)}, x = {x}")


def check_abel_integral(D: DirichletSeries, k: float, x: float) -> float:
    """Residual of A^k(x) = k int_0^x (x-t)^{k-1} A^0(t) dt, piecewise exactly.

    A^0 is constant between consecutive frequencies, so each segment [u, v]
    contributes P * ((x-u)^k - (x-v)^k) in closed form; the residual is pure
    rounding error.

    Requires 0 < k <= 1 and x not equal to any lambda_n (A^0 jumps there).
    """
    _check_order(k)
    if x <= 0:
        raise ValueError("need x > 0")
    lam = D.freq.values
    if np.any(lam == x):
        raise ValueError("x must not hit a frequency value")
    lhs = typical_mean_A(D, k, 0.0, x)
    knots = [0.0] + [float(v) for v in lam if 0.0 < v < x] + [float(x)]
    rhs = 0j
    csum = np.cumsum(D.coeffs)
    for u, v in zip(knots[:-1], knots[1:]):
        # partial sum value of A^0 on (u, v): all lambda_n <= u have kicked in
        idx = int(np.searchsorted(lam, u, side="right"))
        if idx == 0:
            continue
        P = csum[idx - 1]
        rhs += P * ((x - u) ** k - (x - v) ** k)
    return float(abs(lhs - rhs))


def check_fractional_identity(
    D: DirichletSeries, k: float, t: float, tau: float, quad_tol: float = 1e-8
) -> float:
    """Residual of Gamma(k+1) Gamma(1-k) A^1_{i tau}(t) = int_0^t A^k_{i tau}(y) (t-y)^{-k} dy.

    The integrable singularity at y = t is removed by substituting
    y = t - u^{1/(1-k)}, after which the integrand is continuous with kinks at
    the frequencies; those are passed to the quadrature as break points.
    Degenerate orders k in {0, 1} are rejected, and so is a quadrature that
    scipy warns did not converge (ValueError).
    """
    if not 0 < k < 1:
        raise ValueError("need 0 < k < 1 (identity degenerates at the endpoints)")
    if t <= 0:
        raise ValueError("need t > 0")
    w = 1j * tau
    lhs = math.gamma(k + 1) * math.gamma(1 - k) * typical_mean_A(D, 1.0, w, t)
    p = 1.0 / (1.0 - k)
    upper = t ** (1.0 - k)
    pts = sorted(
        {
            (t - float(v)) ** (1.0 - k)
            for v in D.freq.values
            if 0.0 < float(v) < t
        }
    )
    pts = [u for u in pts if 0.0 < u < upper]

    def integrand(u: float) -> complex:
        return typical_mean_A(D, k, w, t - u**p)

    from scipy.integrate import IntegrationWarning

    eps = min(quad_tol * 1e-2, 1e-10)
    # a quadrature that does not converge measures itself, not the identity
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, _ = quad(integrand, 0.0, upper, points=pts, limit=400, epsabs=eps, epsrel=1e-11, complex_func=True)
        except IntegrationWarning as exc:
            reason = " ".join(str(exc).split())
            raise ValueError(f"the quadrature of the fractional identity failed: {reason}") from None
    rhs = p * val
    return float(abs(lhs - rhs))


def beta_identity(alpha: float, beta: float, quad_tol: float = 1e-8) -> tuple:
    """(quadrature, Gamma ratio) for int_0^1 v^alpha (1-v)^{beta-1} dv.

    The closed form is Gamma(alpha+1) Gamma(beta) / Gamma(alpha+beta+1).  The
    quadrature side uses an algebraic-weight rule, which handles both endpoint
    singularities; the two values must agree within ``quad_tol``.
    """
    if alpha <= -1 or beta <= 0:
        raise ValueError("need alpha > -1 and beta > 0 for integrability")
    from scipy.special import gammaln

    lhs, _ = quad(
        lambda v: 1.0,
        0.0,
        1.0,
        weight="alg",
        wvar=(alpha, beta - 1.0),
        epsabs=min(quad_tol * 1e-2, 1e-12),
        epsrel=1e-12,
        limit=200,
    )
    rhs = math.exp(gammaln(alpha + 1.0) + gammaln(beta) - gammaln(alpha + beta + 1.0))
    return float(lhs), float(rhs)


def riesz_uniform_error(
    D: DirichletSeries, k: float, sigma: float, x: float, grid: LineGrid
) -> float:
    """Grid max of |R_x^k(D)(sigma + it) - f(sigma + it)| over the grid's t-points.

    The evaluation line is Re s = sigma (the grid supplies the t-range and
    step).  Requires the reference evaluator.
    """
    if D.reference is None:
        raise ValueError("uniform-error check needs a reference evaluator")
    if sigma <= 0:
        raise ValueError("need sigma > 0")
    ts = grid.points()
    s = sigma + 1j * ts
    fvals = _call_reference(D.reference, s)
    row = _mean_row(D, k, x)
    if row.size:
        rvals = _eval_line(D, [_line_terms(D.freq.values[: row.size], row, sigma)[0]], ts, row.size)[0]
    else:
        rvals = np.zeros_like(fvals)
    return float(np.max(np.abs(rvals - fvals)))


def sigma_u_k_estimate(
    D: DirichletSeries,
    k: float,
    xs: Sequence[float],
    grid: LineGrid,
    tol_sup: float = 1e-4,
) -> AbscissaEstimate:
    """Windowed limsup of log ||R_x^k(D)|| / x over increasing mean lengths.

    The norm is the line sup at sigma = 0 over the grid's t-window.  Pairs are
    indexed by position in ``xs``; lengths that select no term are skipped.
    """
    _check_order(k)
    xs = [float(x) for x in xs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be increasing")
    # the mean rows lie over prefixes of D's frequency: one refinement for all
    found = [(i, x, _mean_row(D, k, x)) for i, x in enumerate(xs, start=1)]
    found = [(i, x, row) for i, x, row in found if row.size]
    reports = _refine_lines(D, [(row, 0.0) for _, _, row in found], grid, tol_sup)
    pairs = [(i, math.log(rep.value) / x) for (i, x, _), rep in zip(found, reports) if rep.value > 0]
    return windowed_limsup("sigma_u_k", pairs)


# ---------------------------------------------------------------------------
# norm constants


def proof_integral(k: float) -> float:
    """Quadrature of int_0^inf (1 + u^2)^(-(1+k)/2) du (independent route)."""
    _check_order(k)
    val, _ = quad(lambda u: (1.0 + u * u) ** (-(1.0 + k) / 2.0), 0.0, np.inf, limit=400)
    return float(val)


def c_exact(k: float) -> float:
    """(e/pi) Gamma(k+1) * int_0^inf (1+u^2)^(-(1+k)/2) du, in closed form.

    The integral equals (sqrt(pi)/2) Gamma(k/2) / Gamma((k+1)/2); at k = 1 the
    whole constant is e/2.
    """
    _check_order(k)
    return (
        (math.e / math.pi)
        * math.gamma(k + 1.0)
        * (math.sqrt(math.pi) / 2.0)
        * math.gamma(k / 2.0)
        / math.gamma((k + 1.0) / 2.0)
    )


def paper_constant(k: float) -> float:
    """(e/pi) Gamma(k+1) / k: the small-k form, reported alongside c_exact."""
    _check_order(k)
    return (math.e / math.pi) * math.gamma(k + 1.0) / k
