"""C^r distances, variation/length functionals and rotation numbers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .diffeos import Diffeo1D, Power, jet_gap
from .grid import GridSpec, expression_breakpoints


def cr_distance(f: Diffeo1D, g: Diffeo1D, r: int, grid: GridSpec = None,
                refine: bool = True) -> float:
    """sup over grid nodes and orders 0..r of |D^k f - D^k g|.

    The grid is doubled until two successive values differ by less than 1%,
    so reported distances are stable against node placement.
    """
    if grid is None:
        bps = expression_breakpoints(f) + expression_breakpoints(g)
        grid = GridSpec(breakpoints=tuple(sorted(set(bps))))

    val = jet_gap(f, g, grid.nodes(), r)
    while refine:
        grid = grid.refined()
        nxt = jet_gap(f, g, grid.nodes(), r)
        if nxt <= val * 1.01 + 1e-15:
            return nxt
        val = nxt
        if grid.n >= 4096:
            return val
    return val


def var_log_derivative(f: Diffeo1D) -> float:
    """Total variation of log Df over the domain, computed as the integral of
    |D2 f / Df|."""
    lo, hi = f.domain.lo, f.domain.hi
    pts = [b for b in expression_breakpoints(f) if lo < b < hi]

    def integrand(x):
        j = f.eval_jet(float(x), 2)
        return abs(j.coeffs[2] / j.coeffs[1])

    val, _ = quad(integrand, lo, hi, points=pts or None, limit=200,
                  epsabs=1e-11, epsrel=1e-10)
    return val


def asymptotic_variation(f: Diffeo1D, n_max: int) -> dict:
    """Sequence a_n = Var(log D f^n)/n and a subadditivity-based estimate.

    The estimate min_n a_n is an upper bound for the limit (Fekete); the
    slope of a linear fit of Var(log D f^n) against n is reported as a
    diagnostic of how settled the sequence is.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    totals = [var_log_derivative(Power(f, n)) for n in range(1, n_max + 1)]
    seq = [t / n for n, t in zip(range(1, n_max + 1), totals)]
    if n_max >= 2:
        slope = float(np.polyfit(np.arange(1, n_max + 1), totals, 1)[0])
    else:
        slope = seq[0]
    return {"sequence": seq, "estimate": min(seq), "slope_fit": slope}


def rotation_number(f: Diffeo1D):
    """Birkhoff estimate F^n(0)/n from the lift with n = 256, rounded to a
    rational when one lies within 1/(2n)."""
    if not f.domain.is_circle:
        raise ValueError("rotation number needs a circle diffeomorphism")
    n = 256
    y = 0.0
    for _ in range(n):
        y = f(y)
    est = y / n
    frac = Fraction(est).limit_denominator(max(2, int(math.isqrt(n))))
    if abs(float(frac) - est) < 1.0 / (2 * n):
        return frac
    return est


# ---------------------------------------------------------------------------
# Liouville cocycle
# ---------------------------------------------------------------------------

#: Half-width of the diagonal tube where the cocycle switches to its
#: removable-singularity value.
_DIAG_TUBE = 1e-4


def schwarzian(f: Diffeo1D, x: float) -> float:
    j = f.eval_jet(float(x), 3)
    d1, d2, d3 = j.coeffs[1], j.coeffs[2], j.coeffs[3]
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def liouville_cocycle(f: Diffeo1D, x: float, y: float) -> float:
    """c(f)(x,y) = Df(x)Df(y)/(f(x)-f(y))^2 - 1/(x-y)^2.

    Near the diagonal the two singular terms cancel; the local expansion of
    the difference tends to Sf/6 (Schwarzian derivative), which is used
    inside a tube |x-y| < 1e-4.
    """
    if abs(x - y) < _DIAG_TUBE:
        return schwarzian(f, 0.5 * (x + y)) / 6.0
    jx = f.eval_jet(float(x), 1)
    jy = f.eval_jet(float(y), 1)
    return jx.d1 * jy.d1 / (jx.value - jy.value) ** 2 - 1.0 / (x - y) ** 2


def liouville_length(f: Diffeo1D) -> float:
    """L^1 norm of the cocycle over the unit square, by tensor-product
    Gauss-Legendre quadrature on 80 nodes per axis (deterministic, diagonal
    handled by the tube rule of the cocycle)."""
    n_nodes = 80
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    xs = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    jets = [f.eval_jet(float(x), 3) for x in xs]
    vals = np.array([j.value for j in jets])
    d1s = np.array([j.d1 for j in jets])
    sch = np.array([j.coeffs[3] / j.d1 - 1.5 * (j.coeffs[2] / j.d1) ** 2
                    for j in jets])
    total = 0.0
    for i in range(n_nodes):
        for j in range(n_nodes):
            dx = xs[i] - xs[j]
            if abs(dx) < _DIAG_TUBE:
                c = sch[i] / 6.0
            else:
                c = d1s[i] * d1s[j] / (vals[i] - vals[j]) ** 2 - 1.0 / dx ** 2
            total += ws[i] * ws[j] * abs(c)
    return total
