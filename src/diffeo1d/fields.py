"""Vector-field expression trees on an interval or the circle.

A :class:`VectorField1D` is an immutable expression tree whose nodes can all
be evaluated to a :class:`~diffeo1d.jets.Jet` of any order up to the backend
maximum.  The canonical bump and step are built from the flat germ
``s(x) = exp(-1/x)`` (x > 0), blended as ``s(x) / (s(x) + s(1-x))``, so every
derivative is computable in closed form through jet arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import (
    Jet,
    jet_add,
    jet_exp,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    jet_sub,
)


@dataclass(frozen=True)
class Interval:
    lo: float = 0.0
    hi: float = 1.0

    @property
    def is_circle(self) -> bool:
        return False


@dataclass(frozen=True)
class Circle:
    """The circle R/Z; evaluation happens on lifts."""

    @property
    def is_circle(self) -> bool:
        return True


class VectorField1D:
    """Base class; subclasses implement :meth:`eval_jet`."""

    kind = "abstract"
    domain = Interval()
    zeros: tuple = ()

    def eval_jet(self, x: float, r: int) -> Jet:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        return self.eval_jet(x, 0).value

    def deriv(self, x: float, k: int) -> float:
        return self.eval_jet(x, k).coeffs[k]

    # expression-building sugar
    def __add__(self, other):
        return SumField(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ScaledField(self, float(other))
        return ProductField(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return ScaledField(self, -1.0)

    def children(self):
        return ()

    def params(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


class ConstantField(VectorField1D):
    kind = "constant"

    def __init__(self, value, domain=Interval()):
        self.value = float(value)
        self.domain = domain
        self.zeros = ()

    def eval_jet(self, x, r):
        return Jet.constant(x, self.value, r)

    def params(self):
        return {"value": self.value}


class PolynomialField(VectorField1D):
    """Polynomial in x with monomial coefficients (low to high)."""

    kind = "polynomial"

    def __init__(self, coeffs, domain=Interval(), zeros=()):
        self.coeffs = tuple(float(c) for c in coeffs)
        self.domain = domain
        self.zeros = tuple(zeros)

    def eval_jet(self, x, r):
        n = len(self.coeffs)
        derivs = []
        for k in range(r + 1):
            s = 0.0
            for j in range(k, n):
                s += self.coeffs[j] * math.perm(j, k) * x ** (j - k)
            derivs.append(s)
        return Jet(x, r, tuple(derivs))

    def __call__(self, x):
        # the order-0 sum of eval_jet term by term, so both agree bit for bit
        x = float(x)
        s = 0.0
        for j, c in enumerate(self.coeffs):
            s += c * x ** j
        return s

    def params(self):
        return {"coeffs": list(self.coeffs), "zeros": list(self.zeros)}


class StepField(VectorField1D):
    """Canonical smooth step: 0 for x <= lo, 1 for x >= hi, monotone between."""

    kind = "step"

    def __init__(self, lo=0.0, hi=1.0, domain=Interval()):
        if not hi > lo:
            raise ValueError("step needs hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.domain = domain
        self.zeros = ()

    def eval_jet(self, x, r):
        w = self.hi - self.lo
        u = (x - self.lo) / w
        if u <= 0.0:
            return Jet.constant(x, 0.0, r)
        if u >= 1.0:
            return Jet.constant(x, 1.0, r)
        uj = Jet.identity(u, r)
        s0 = _flat_germ_jet_of(uj)
        s1 = _flat_germ_jet_of(jet_sub(Jet.constant(u, 1.0, r), uj))
        val = jet_mul(s0, jet_reciprocal(jet_add(s0, s1)))
        # rescale from unit coordinates: D^k wrt x = D^k wrt u / w^k
        coeffs = tuple(c / w**k for k, c in enumerate(val.coeffs))
        return Jet(x, r, coeffs)

    def __call__(self, x):
        # value-only fast path: flows at order 0 evaluate the field once per
        # integrator stage, and the jet pipeline is ~30x slower than this
        u = (float(x) - self.lo) / (self.hi - self.lo)
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        a = math.exp(-1.0 / u) if 1.0 / u <= 700.0 else 0.0
        b = math.exp(-1.0 / (1.0 - u)) if 1.0 / (1.0 - u) <= 700.0 else 0.0
        return a * (1.0 / (a + b))

    def params(self):
        return {"lo": self.lo, "hi": self.hi}


def _flat_germ_jet_of(u: Jet) -> Jet:
    """Jet of ``s(u) = exp(-1/u)`` composed with the jet ``u`` (u.value > 0)."""
    if u.value <= 0.0 or 1.0 / u.value > 700.0:
        return Jet.constant(u.base_point, 0.0, u.order)
    minus_inv = jet_scale(jet_reciprocal(u), -1.0)
    return jet_exp(minus_inv)


class BumpField(VectorField1D):
    """Smooth bump: 0 outside [lo, hi], 1 on [plateau_lo, plateau_hi]."""

    kind = "bump"

    def __init__(self, lo, plateau_lo, plateau_hi, hi, domain=Interval()):
        if not lo < plateau_lo <= plateau_hi < hi:
            raise ValueError("bump needs lo < plateau_lo <= plateau_hi < hi")
        self.lo, self.plateau_lo = float(lo), float(plateau_lo)
        self.plateau_hi, self.hi = float(plateau_hi), float(hi)
        self.domain = domain
        self.zeros = ()
        self._up = StepField(lo, plateau_lo)
        self._down = StepField(-self.hi, -self.plateau_hi)

    def eval_jet(self, x, r):
        up = self._up.eval_jet(x, r)
        down = self._down.eval_jet(-x, r)
        down = Jet(x, r, tuple(c * (-1.0) ** k for k, c in enumerate(down.coeffs)))
        return jet_mul(up, down)

    def __call__(self, x):
        return self._up(float(x)) * self._down(-float(x))

    def params(self):
        return {
            "lo": self.lo,
            "plateau_lo": self.plateau_lo,
            "plateau_hi": self.plateau_hi,
            "hi": self.hi,
        }


class FlatGermField(VectorField1D):
    """``exp(-scale/(x - point))`` right of ``point``, 0 left of it.

    With ``side='left'`` the mirrored germ flat at ``point`` from the left.
    """

    kind = "flat_germ"

    def __init__(self, point=0.0, scale=1.0, side="right", domain=Interval()):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        self.point, self.scale, self.side = float(point), float(scale), side
        self.domain = domain
        self.zeros = (self.point,)

    def eval_jet(self, x, r):
        if self.side == "right":
            u = (x - self.point) / self.scale
            base = _flat_germ_jet_of(Jet.identity(u, r))
            coeffs = tuple(c / self.scale**k for k, c in enumerate(base.coeffs))
        else:
            u = (self.point - x) / self.scale
            base = _flat_germ_jet_of(Jet.identity(u, r))
            coeffs = tuple(
                c * (-1.0) ** k / self.scale**k for k, c in enumerate(base.coeffs)
            )
        return Jet(x, r, coeffs)

    def params(self):
        return {"point": self.point, "scale": self.scale, "side": self.side}


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


class SumField(VectorField1D):
    kind = "sum"

    def __init__(self, *terms):
        self.terms = tuple(terms)
        self.domain = self.terms[0].domain
        self.zeros = ()

    def eval_jet(self, x, r):
        out = self.terms[0].eval_jet(x, r)
        for t in self.terms[1:]:
            out = jet_add(out, t.eval_jet(x, r))
        return out

    def children(self):
        return self.terms


class ProductField(VectorField1D):
    kind = "product"

    def __init__(self, *factors):
        self.factors = tuple(factors)
        self.domain = self.factors[0].domain
        zs = []
        for f in self.factors:
            zs.extend(f.zeros)
        self.zeros = tuple(sorted(set(zs)))

    def eval_jet(self, x, r):
        out = self.factors[0].eval_jet(x, r)
        for f in self.factors[1:]:
            out = jet_mul(out, f.eval_jet(x, r))
        return out

    def children(self):
        return self.factors


class ScaledField(VectorField1D):
    kind = "scale"

    def __init__(self, child, factor):
        self.child = child
        self.factor = float(factor)
        self.domain = child.domain
        self.zeros = child.zeros

    def eval_jet(self, x, r):
        return jet_scale(self.child.eval_jet(x, r), self.factor)

    def __call__(self, x):
        return self.factor * self.child(x)

    def children(self):
        return (self.child,)

    def params(self):
        return {"factor": self.factor}


class ShiftedField(VectorField1D):
    """Child field translated: X(x) = child(x - delta)."""

    kind = "shift"

    def __init__(self, child, delta):
        self.child = child
        self.delta = float(delta)
        self.domain = child.domain
        self.zeros = tuple(z + self.delta for z in child.zeros)

    def eval_jet(self, x, r):
        inner = self.child.eval_jet(x - self.delta, r)
        return Jet(x, r, inner.coeffs)

    def children(self):
        return (self.child,)

    def params(self):
        return {"delta": self.delta}


class AffinePushforwardField(VectorField1D):
    """Pushforward of the child by the affine map ``phi(x) = slope*x + offset``.

    ``(phi_* X)(y) = slope * X((y - offset) / slope)``.
    """

    kind = "affine_pushforward"

    def __init__(self, child, slope, offset, domain=None):
        if slope == 0:
            raise ValueError("affine pushforward needs nonzero slope")
        self.child = child
        self.slope = float(slope)
        self.offset = float(offset)
        self.domain = domain or child.domain
        self.zeros = tuple(self.slope * z + self.offset for z in child.zeros)

    def eval_jet(self, y, r):
        inner = self.child.eval_jet((y - self.offset) / self.slope, r)
        coeffs = tuple(
            self.slope ** (1 - k) * c for k, c in enumerate(inner.coeffs)
        )
        return Jet(y, r, coeffs)

    def children(self):
        return (self.child,)

    def params(self):
        return {"slope": self.slope, "offset": self.offset}


class PushforwardField(VectorField1D):
    """General pushforward ``(phi_* X)(y) = (Dphi * X)(phi^{-1}(y))``.

    ``phi`` is any Diffeo1D-like object with ``eval_jet`` and ``inverse_value``.
    """

    kind = "pushforward"

    def __init__(self, child, phi, zeros=None):
        self.child = child
        self.phi = phi
        self.domain = child.domain
        if zeros is None:
            zeros = tuple(phi.eval_jet(z, 0).value for z in child.zeros)
        self.zeros = tuple(zeros)

    def eval_jet(self, y, r):
        x = self.phi.inverse_value(y)
        phi_jet = self.phi.eval_jet(x, r + 1)
        x_jet = self.child.eval_jet(x, r)
        dphi = Jet(x, r, phi_jet.coeffs[1:])
        num = jet_mul(dphi, x_jet)  # (Dphi * X) as a jet in x
        # transport the x-jet to a y-jet through phi^{-1}
        from .jets import jet_compose, jet_invert

        inv_jet = jet_invert(phi_jet.truncate(r)) if r >= 1 else None
        if r == 0:
            return Jet(y, 0, (num.value,))
        return jet_compose(num, inv_jet)

    def children(self):
        return (self.child,)


class PiecewiseField(VectorField1D):
    """Fields glued at breakpoints; children[i] rules on [b[i-1], b[i]]."""

    kind = "piecewise"

    def __init__(self, breakpoints, pieces, domain=Interval(), zeros=()):
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("need len(pieces) == len(breakpoints) + 1")
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.pieces = tuple(pieces)
        self.domain = domain
        self.zeros = tuple(zeros)

    def _piece_at(self, x):
        i = int(np.searchsorted(self.breakpoints, x, side="right"))
        return self.pieces[i]

    def eval_jet(self, x, r):
        return self._piece_at(x).eval_jet(x, r)

    def children(self):
        return self.pieces

    def params(self):
        return {"breakpoints": list(self.breakpoints), "zeros": list(self.zeros)}


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def field_norm(X: VectorField1D, r: int, grid=None) -> float:
    """Grid sup of max_k<=r |D^k X|; the operational C^r norm."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, 513)
    best = 0.0
    for x in grid:
        jet = X.eval_jet(float(x), r)
        m = max(abs(c) for c in jet.coeffs)
        if m > best:
            best = m
    return best


class PeriodicField(VectorField1D):
    """Degree-one periodization of a field on [0,1]: jets are read off at the
    fractional part.  The child must have matching flat jets at 0 and 1 for
    the result to be smooth on the circle."""

    kind = "periodic"

    def __init__(self, child):
        self.child = child
        self.domain = Circle()
        self.zeros = child.zeros

    def eval_jet(self, x, r):
        inner = self.child.eval_jet(x - math.floor(x), r)
        return Jet(x, r, inner.coeffs)

    def children(self):
        return (self.child,)


class ReversedField(VectorField1D):
    """Spatial reversal: X(x) = child(1 - x).

    This is the generator of t -> m f^{-t} m (m the reflection), used to
    run boundary constructions at the right endpoint with left-endpoint
    code.  Note the absence of a sign flip: it is not a pushforward.
    """

    kind = "reversed"

    def __init__(self, child):
        self.child = child
        self.domain = child.domain
        self.zeros = tuple(sorted(1.0 - z for z in child.zeros))

    def eval_jet(self, x, r):
        inner = self.child.eval_jet(1.0 - x, r)
        coeffs = tuple((-1.0) ** k * c for k, c in enumerate(inner.coeffs))
        return Jet(x, r, coeffs)

    def children(self):
        return (self.child,)
