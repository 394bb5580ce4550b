"""Conjugacy synthesis from boundary germs.

Given fixed-point-free f, g on (0,1) and a germ conjugator near 0, the full
conjugator is forced: phi = g^n phi_0 f^{-n} wherever f^{-n} lands in the
base interval.  The offset sigma measures the flow-time mismatch picked up
at the other endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffeos import Compose, Diffeo1D, Power, transit_time
from .fields import VectorField1D
from .grid import GridSpec
from .jets import Jet, jet_compose
from .mather import FlowChart, FlowChartInverse

#: Germ acceptance threshold: sup |phi0 o f - g o phi0| near 0.
GERM_TOL = 1e-9

#: Orbit iteration cap; hitting it means the fixed-point-free precondition
#: is violated.
ORBIT_CAP = 10_000


class ConjugacyError(RuntimeError):
    pass


def sigma_offset(f_field: VectorField1D, g_field: VectorField1D,
                 phi0: Diffeo1D, phi1: Diffeo1D, x0: float, x1: float) -> float:
    """sigma = tau_f(x0, x1) - tau_g(phi0(x0), phi1(x1))."""
    return (transit_time(f_field, x0, x1)
            - transit_time(g_field, phi0(x0), phi1(x1)))


class OrbitConjugator(Diffeo1D):
    """The forced conjugator phi = g^n phi_0 f^{-n}.

    For each x, n is the number of f-steps needed to bring x into the base
    interval [b, f(b)); jets follow by the chain rule through the orbit.
    """

    kind = "orbit_conjugator"

    def __init__(self, f: Diffeo1D, g: Diffeo1D, phi0: Diffeo1D, base_x: float):
        self.f, self.g, self.phi0 = f, g, phi0
        self.base_x = float(base_x)
        self.domain = f.domain
        self._b1 = f(self.base_x)
        if self._b1 <= self.base_x:
            raise ConjugacyError("orbit conjugator assumes f > id on (0,1)")

    def _locate(self, h: Diffeo1D, x: float, lo: float, hi: float):
        """(n, h^{-n}(x)) for the n that brings x into [lo, hi)."""
        n = 0
        while x >= hi:
            x = h.inverse_value(x)
            n += 1
            if n > ORBIT_CAP:
                raise ConjugacyError("orbit escape: iteration cap exceeded")
        while x < lo:
            x = h(x)
            n -= 1
            if n < -ORBIT_CAP:
                raise ConjugacyError("orbit escape: iteration cap exceeded")
        return n, x

    def eval_jet(self, x, r):
        n, _ = self._locate(self.f, float(x), self.base_x, self._b1)
        return Compose(Power(self.g, n), self.phi0,
                       Power(self.f, -n)).eval_jet(x, r)

    def inverse_value(self, y):
        n, y = self._locate(self.g, y, self.phi0(self.base_x),
                            self.phi0(self._b1))
        return Power(self.f, n)(self.phi0.inverse_value(y))

    def children(self):
        return (self.f, self.g, self.phi0)

    def params(self):
        return {"base_x": self.base_x}


class TransitConjugator(Diffeo1D):
    """Conjugator between two flows: phi sends the time coordinate of X_src
    anchored at a_src to that of X_dst anchored at a_dst.

    phi(x) = phi_{X_dst}^{tau_src(a_src, x)}(a_dst); jets follow from
    D phi = (X_dst o phi) / X_src.
    """

    kind = "transit_conjugator"

    def __init__(self, X_src: VectorField1D, X_dst: VectorField1D,
                 anchor_src: float, anchor_dst: float):
        self.X_src, self.X_dst = X_src, X_dst
        self.a_src, self.a_dst = float(anchor_src), float(anchor_dst)
        self.domain = X_dst.domain
        self._charts = Compose(FlowChart(X_dst, self.a_dst),
                               FlowChartInverse(X_src, self.a_src))

    def eval_jet(self, x, r):
        if self.X_src(float(x)) == 0.0 and self.X_dst(float(x)) == 0.0:
            # shared zero: both flow charts degenerate there, and the
            # conjugator extends by the identity jet (exact when the germs
            # at the zero are identity-flat)
            return Jet.identity(float(x), r)
        return self._charts.eval_jet(x, r)

    def inverse_value(self, y):
        if self.X_dst(float(y)) == 0.0 and self.X_src(float(y)) == 0.0:
            return float(y)
        return self._charts.inverse_value(y)

    def inverse(self):
        return TransitConjugator(self.X_dst, self.X_src, self.a_dst, self.a_src)

    def params(self):
        return {"anchor_src": self.a_src, "anchor_dst": self.a_dst}


@dataclass
class ConjugacyWitness:
    phi: Diffeo1D
    residual_c0: float
    residual_cr: float
    r: int
    grid: GridSpec

    def to_json(self) -> dict:
        return {
            "residual_c0": self.residual_c0,
            "residual_cr": self.residual_cr,
            "r": self.r,
            "grid_size": self.grid.n,
        }


def conjugacy_residuals(phi: Diffeo1D, f: Diffeo1D, g: Diffeo1D, r: int,
                        xs) -> float:
    """C^r sup mismatch of phi o f versus g o phi on the nodes."""
    worst = 0.0
    for x in xs:
        x = float(x)
        if r == 0:
            worst = max(worst, abs(phi(f(x)) - g(phi(x))))
            continue
        fj = f.eval_jet(x, r)
        lhs = jet_compose(phi.eval_jet(fj.value, r), fj)
        pj = phi.eval_jet(x, r)
        rhs = jet_compose(g.eval_jet(pj.value, r), pj)
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)))
    return worst


def synthesize_conjugacy(f: Diffeo1D, g: Diffeo1D, phi0: Diffeo1D,
                         base_x: float, r: int = 2,
                         grid: GridSpec = None) -> ConjugacyWitness:
    """Build the forced conjugator and certify it on a grid.

    The germ phi0 must conjugate f to g on [base_x/2, f(base_x)] within the
    germ tolerance.
    """
    germ_xs = np.linspace(base_x / 4, base_x, 17)
    res = conjugacy_residuals(phi0, f, g, 0, germ_xs)
    if res > GERM_TOL:
        raise ConjugacyError(
            f"phi0 fails local conjugacy check: residual {res:.3g} > {GERM_TOL}")
    phi = OrbitConjugator(f, g, phi0, base_x)
    if grid is None:
        grid = GridSpec(lo=0.05, hi=0.95, n=128)
    xs = grid.nodes()
    c0 = conjugacy_residuals(phi, f, g, 0, xs)
    # derivative residuals are much costlier per node; a sparse subgrid is
    # enough to catch a wrong chain rule
    cr = conjugacy_residuals(phi, f, g, r, xs[:: max(1, len(xs) // 16)])
    return ConjugacyWitness(phi, c0, cr, r, grid)
