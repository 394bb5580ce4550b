"""Diffeomorphism expression trees, flow maps and transit times.

A :class:`Diffeo1D` node evaluates to jets of any order and knows how to
invert itself pointwise (closed form where available, monotone root solve
otherwise).  Circle diffeomorphisms are handled through their lifts: a node
with a circle domain evaluates the lift ``F`` with ``F(x+1) = F(x) + 1``.
"""

from __future__ import annotations

import math
import warnings
from operator import mul

import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from .fields import Circle, Interval, VectorField1D
from .jets import (Jet, JetError, compose_coeffs, jet_compose, jet_divide,
                   jet_invert)

#: Default per-step integrator tolerance for flow maps.
FLOW_TOL = 1e-12

#: Tightest relative tolerance the flow stepper runs at (100 machine
#: epsilons, scipy's floor for DOP853); a smaller request runs at this value
#: with a warning.
FLOW_TOL_MIN = 100 * np.finfo(float).eps

#: Above this |t| a value-only flow is computed by inverting the transit
#: time instead of stepping the ODE, which would need ~|t|/step_size steps.
LONG_TIME_SWITCH = 32.0


class FlowError(RuntimeError):
    """Raised when flow integration or transit-time evaluation fails."""


# ---------------------------------------------------------------------------
# flow integration with jet transport
# ---------------------------------------------------------------------------

def _flow_by_transit(X: VectorField1D, t: float, x: float):
    """Value of the time-``t`` flow by solving ``tau(x, y) = t`` for ``y``.

    Only usable when the trajectory stays in a stretch where X keeps its
    sign, which requires the neighbouring recorded zeros (or finite domain
    ends) as a bracket.  Returns None when that data is missing, so the
    caller can fall back to integration.
    """
    v = X(x)
    if v == 0.0:
        return x
    zeros = sorted(getattr(X, "zeros", ()) or ())
    lo = max((z for z in zeros if z < x), default=X.domain.lo)
    hi = min((z for z in zeros if z > x), default=X.domain.hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    end = hi if (v > 0.0) == (t > 0.0) else lo

    def g(y):
        return transit_time(X, x, float(y)) - t

    # g(x) = -t; push y toward the blocking end until the sign flips, then
    # solve on the last subinterval
    prev = x
    for k in range(1, 64):
        y_try = end - (end - x) * 0.5**k
        try:
            gy = g(y_try)
        except FlowError:
            return None
        if not math.isfinite(gy):
            return None
        if (gy > 0.0) == (t > 0.0):
            a, b = (prev, y_try) if prev < y_try else (y_try, prev)
            return brentq(g, a, b, xtol=1e-300, rtol=8.9e-16)
        prev = y_try
    # the target time outruns quadrature resolution of tau near the zero
    return prev


# DOP853 tableau rows as Python floats; fields are autonomous, so the stage
# times C are not needed
_A = tuple(tuple(map(float, row[:s]))
           for s, row in enumerate(_dop.A[1:_dop.N_STAGES], 1))
_B, _E3, _E5 = (tuple(map(float, w)) for w in (_dop.B, _dop.E3, _dop.E5))


def _dop853(fun, y, t, tol):
    """State at time ``t`` of ``y' = fun(y)`` started from the list ``y``.

    Dormand-Prince 8(5,3) with the step control of Hairer, Norsett & Wanner,
    *Solving ODEs I* (2nd ed.), II.10, as scipy's ``DOP853`` runs it: first
    step ``min(0.05, |t|)``, error scale ``atol + max(|y|, |y_new|) * rtol``
    with ``rtol = max(tol, FLOW_TOL_MIN)`` and ``atol = tol``.  Returns None
    when the step size falls below 10 ulp of the current time.
    """
    if tol < FLOW_TOL_MIN:
        warnings.warn(f"rtol {tol} is too small; setting rtol = {FLOW_TOL_MIN}",
                      stacklevel=3)
    rtol, atol = max(tol, FLOW_TOL_MIN), tol
    direction = math.copysign(1.0, t)
    n = len(y)
    f = fun(y)
    s = 0.0
    h_abs = min(0.05, abs(t))
    while direction * (s - t) < 0.0:
        min_step = 10.0 * abs(math.nextafter(s, direction * math.inf) - s)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return None
            s_new = s + h_abs * direction
            if direction * (s_new - t) > 0.0:
                s_new = t
            h = s_new - s
            h_abs = abs(h)
            # K[i] holds the stage derivatives of component i
            K = [[v] for v in f]
            for row in _A:
                d = fun([v + sum(map(mul, row, k)) * h for v, k in zip(y, K)])
                for k, v in zip(K, d):
                    k.append(v)
            y_new = [v + h * sum(map(mul, _B, k)) for v, k in zip(y, K)]
            f_new = fun(y_new)
            e5 = e3 = 0.0
            for a, b, k, v in zip(y, y_new, K, f_new):
                k.append(v)
                scale = atol + max(abs(a), abs(b)) * rtol
                # products, not ** 2: float powers raise on overflow
                u = sum(map(mul, _E5, k)) / scale
                w = sum(map(mul, _E3, k)) / scale
                e5 += u * u
                e3 += w * w
            err = (h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
                   if e5 or e3 else 0.0)
            if err < 1.0:
                factor = min(10.0, 0.9 * err ** -0.125) if err else 10.0
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        s, y, f = s_new, y_new, f_new
    return y


def flow(X: VectorField1D, t: float, x: float, r: int = 0, tol: float = FLOW_TOL) -> Jet:
    """Jet of the time-``t`` flow map of ``X`` at ``x``, to order ``r``.

    DOP853 (:func:`_dop853`) on the variational jet system
    d/dt D^k phi_t = D^k (X o phi_t), with relative and absolute tolerance
    ``tol``; a relative tolerance below ``FLOW_TOL_MIN`` runs at that floor.
    """
    x = float(x)
    t = float(t)
    state = list(Jet.identity(x, r).coeffs)
    if t == 0.0:
        return Jet(x, r, tuple(state))
    if r == 0 and abs(t) >= LONG_TIME_SWITCH:
        y = _flow_by_transit(X, t, x)
        if y is not None:
            return Jet(x, 0, (float(y),))

    def rhs(y):
        try:
            if all(map(math.isfinite, y)):
                if r == 0:
                    return [X(y[0])]
                return compose_coeffs(X.eval_jet(y[0], r).coeffs, y)
        except (JetError, OverflowError, ZeroDivisionError):
            pass
        raise FlowError(f"flow left the evaluable region at x={x}, t={t}")

    y = _dop853(rhs, state, t, tol)
    if y is None:
        raise FlowError(f"flow integration failed at x={x}, t={t}: Required "
                        "step size is less than spacing between numbers.")
    return Jet(x, r, tuple(y))


def transit_time(X: VectorField1D, p: float, q: float) -> float:
    """Flow time from ``p`` to ``q``: the integral of ``1/X`` over [p, q].

    Refuses when X vanishes (or changes sign) between the endpoints.
    """
    p, q = float(p), float(q)
    if p == q:
        return 0.0
    lo, hi = min(p, q), max(p, q)
    sample = np.linspace(lo, hi, 33)
    vals = np.array([X(float(s)) for s in sample])
    if np.any(vals == 0.0) or (np.min(vals) < 0.0 < np.max(vals)):
        raise FlowError(f"vector field vanishes on [{lo}, {hi}]; transit time undefined")
    pts = [z for z in getattr(X, "zeros", ()) if lo < z < hi]
    val, _ = quad(lambda s: 1.0 / X(s), p, q, points=pts or None, limit=200,
                  epsabs=1e-13, epsrel=1e-12)
    return val


def jet_gap(f: Diffeo1D, g: Diffeo1D, xs, r: int) -> float:
    """Max over the points ``xs`` and orders 0..r of |D^k f - D^k g|."""
    best = 0.0
    for x in xs:
        a = f.eval_jet(float(x), r)
        b = g.eval_jet(float(x), r)
        d = max(abs(u - v) for u, v in zip(a.coeffs, b.coeffs))
        if d > best:
            best = d
    return best


# ---------------------------------------------------------------------------
# diffeomorphism nodes
# ---------------------------------------------------------------------------


class Diffeo1D:
    """Base class for diffeomorphism expression nodes."""

    kind = "abstract"
    domain = Interval()

    def eval_jet(self, x: float, r: int) -> Jet:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        return self.eval_jet(x, 0).value

    def inverse_value(self, y: float) -> float:
        """Solve f(x) = y by monotone bracketing; nodes override when closed
        forms exist."""
        if self.domain.is_circle:
            base = math.floor(y - self(0.0) + 0.5)
            lo, hi = base - 1.0, base + 1.0
            while self(lo) > y:
                lo -= 0.5
            while self(hi) < y:
                hi += 0.5
            return brentq(lambda x: self(x) - y, lo, hi, xtol=1e-14)
        lo, hi = self.domain.lo, self.domain.hi
        flo, fhi = self(lo) - y, self(hi) - y
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo > 0 or fhi < 0:
            raise FlowError(f"value {y} not attained on [{lo}, {hi}]")
        return brentq(lambda x: self(x) - y, lo, hi, xtol=1e-14)

    def inverse(self) -> "Diffeo1D":
        return InverseMap(self)

    def children(self):
        return ()

    def params(self) -> dict:
        return {}

    def __matmul__(self, other):
        """``f @ g`` is the composition f after g."""
        return Compose(self, other)


class Identity(Diffeo1D):
    kind = "identity"

    def __init__(self, domain=Interval()):
        self.domain = domain

    def eval_jet(self, x, r):
        return Jet.identity(x, r)

    def inverse_value(self, y):
        return y

    def inverse(self):
        return self


class Affine(Diffeo1D):
    """x -> slope*x + offset with slope > 0."""

    kind = "affine"

    def __init__(self, slope, offset, domain=Interval()):
        if slope <= 0:
            raise ValueError("affine diffeo needs positive slope")
        self.slope, self.offset = float(slope), float(offset)
        self.domain = domain

    def eval_jet(self, x, r):
        coeffs = [self.slope * x + self.offset] + [0.0] * r
        if r >= 1:
            coeffs[1] = self.slope
        return Jet(x, r, tuple(coeffs))

    def inverse_value(self, y):
        return (y - self.offset) / self.slope

    def inverse(self):
        return Affine(1.0 / self.slope, -self.offset / self.slope, self.domain)

    def params(self):
        return {"slope": self.slope, "offset": self.offset}


class Homothety(Affine):
    """x -> center + ratio*(x - center); an affine map tagged by its center."""

    kind = "homothety"

    def __init__(self, center, ratio, domain=Interval()):
        super().__init__(ratio, (1.0 - ratio) * center, domain)
        self.center, self.ratio = float(center), float(ratio)

    def inverse(self):
        return Homothety(self.center, 1.0 / self.ratio, self.domain)

    def params(self):
        return {"center": self.center, "ratio": self.ratio}


class Moebius(Diffeo1D):
    """x -> (a x + b) / (c x + d) with ad - bc > 0."""

    kind = "moebius"

    def __init__(self, a, b, c, d, domain=Interval()):
        if a * d - b * c <= 0:
            raise ValueError("Moebius map needs positive determinant")
        self.a, self.b, self.c, self.d = (float(v) for v in (a, b, c, d))
        self.domain = domain

    @staticmethod
    def fixing_01(ratio, domain=Interval()):
        """The Moebius map x -> ratio*x / (1 + (ratio-1)*x), fixing 0 and 1
        with derivative ``ratio`` at 0."""
        return Moebius(ratio, 0.0, ratio - 1.0, 1.0, domain)

    def eval_jet(self, x, r):
        num = Jet(x, r, tuple([self.a * x + self.b, self.a] + [0.0] * (r - 1))
                  if r >= 1 else (self.a * x + self.b,))
        den = Jet(x, r, tuple([self.c * x + self.d, self.c] + [0.0] * (r - 1))
                  if r >= 1 else (self.c * x + self.d,))
        return jet_divide(num, den)

    def inverse_value(self, y):
        return (self.d * y - self.b) / (-self.c * y + self.a)

    def inverse(self):
        return Moebius(self.d, -self.b, -self.c, self.a, self.domain)

    def params(self):
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


class Rotation(Diffeo1D):
    """Circle rotation; the lift is x -> x + angle."""

    kind = "rotation"
    domain = Circle()

    def __init__(self, angle):
        self.angle = float(angle)

    def eval_jet(self, x, r):
        coeffs = [x + self.angle] + [0.0] * r
        if r >= 1:
            coeffs[1] = 1.0
        return Jet(x, r, tuple(coeffs))

    def inverse_value(self, y):
        return y - self.angle

    def inverse(self):
        return Rotation(-self.angle)

    def params(self):
        return {"angle": self.angle}


class FlowMap(Diffeo1D):
    """Time-``t`` map of the flow of a vector field."""

    kind = "flow"

    def __init__(self, X: VectorField1D, t: float, tol: float = FLOW_TOL):
        self.X = X
        self.t = float(t)
        self.tol = float(tol)
        self.domain = X.domain

    def eval_jet(self, x, r):
        return flow(self.X, self.t, x, r, self.tol)

    def inverse_value(self, y):
        return flow(self.X, -self.t, y, 0, self.tol).value

    def inverse(self):
        return FlowMap(self.X, -self.t, self.tol)

    def params(self):
        # the default tolerance is left out, so default flows keep their JSON
        if self.tol == FLOW_TOL:
            return {"t": self.t}
        return {"t": self.t, "tol": self.tol}

    def children(self):
        return (self.X,)


class Displacement(Diffeo1D):
    """x -> x + d(x) for a displacement field with sup |Dd| < 1."""

    kind = "displacement"

    def __init__(self, d: VectorField1D, domain=None):
        self.d = d
        self.domain = domain or d.domain

    def eval_jet(self, x, r):
        dj = self.d.eval_jet(x, r)
        coeffs = list(dj.coeffs)
        coeffs[0] += x
        if r >= 1:
            coeffs[1] += 1.0
        return Jet(x, r, tuple(coeffs))

    def children(self):
        return (self.d,)


class Compose(Diffeo1D):
    """Composition children[0] o children[1] o ... (leftmost applied last)."""

    kind = "compose"

    def __init__(self, *children):
        flat = []
        for c in children:
            if isinstance(c, Compose):
                flat.extend(c.maps)
            else:
                flat.append(c)
        self.maps = tuple(flat)
        self.domain = self.maps[0].domain

    def eval_jet(self, x, r):
        out = self.maps[-1].eval_jet(x, r)
        for f in self.maps[-2::-1]:
            out = jet_compose(f.eval_jet(out.value, r), out)
        return out

    def inverse_value(self, y):
        for f in self.maps:
            y = f.inverse_value(y)
        return y

    def inverse(self):
        return Compose(*[f.inverse() for f in self.maps[::-1]])

    def children(self):
        return self.maps


class InverseMap(Diffeo1D):
    kind = "inverse"

    def __init__(self, child: Diffeo1D):
        self.child = child
        self.domain = child.domain

    def eval_jet(self, x, r):
        y = self.child.inverse_value(x)
        if r == 0:
            return Jet(x, 0, (y,))
        return jet_invert(self.child.eval_jet(y, r))

    def inverse_value(self, y):
        return self.child(y)

    def inverse(self):
        return self.child

    def children(self):
        return (self.child,)


class Power(Diffeo1D):
    """Integer iterate f^n (n may be negative); evaluated by repeated
    composition without building a chain of nodes, or as the single
    time-n*t flow when f is the time-t map of a field."""

    kind = "power"

    def __init__(self, child: Diffeo1D, n: int):
        self.child = child
        self.n = int(n)
        self.domain = child.domain
        self._flow = (FlowMap(child.X, self.n * child.t, child.tol)
                      if isinstance(child, FlowMap) else None)

    def eval_jet(self, x, r):
        if self._flow is not None:
            return self._flow.eval_jet(x, r)
        base = self.child if self.n >= 0 else self.child.inverse()
        out = Jet.identity(x, r)
        for _ in range(abs(self.n)):
            out = jet_compose(base.eval_jet(out.value, r), out)
        return out

    def inverse_value(self, y):
        if self._flow is not None:
            return self._flow.inverse_value(y)
        base = self.child if self.n >= 0 else self.child.inverse()
        for _ in range(abs(self.n)):
            y = base.inverse_value(y)
        return y

    def inverse(self):
        return Power(self.child, -self.n)

    def children(self):
        return (self.child,)

    def params(self):
        return {"n": self.n}


class PiecewiseGlue(Diffeo1D):
    """Diffeos glued at interior breakpoints; children[i] rules on
    [b[i-1], b[i]] and the images of the breakpoints separate the pieces of
    the inverse."""

    kind = "piecewise"

    def __init__(self, breakpoints, pieces, domain=Interval(), gluing_order=1):
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("need len(pieces) == len(breakpoints) + 1")
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.pieces = tuple(pieces)
        self.domain = domain
        self.gluing_order = int(gluing_order)
        self._images = tuple(self.pieces[i](b) for i, b in enumerate(self.breakpoints))

    def _piece_at(self, x):
        return self.pieces[int(np.searchsorted(self.breakpoints, x, side="right"))]

    def eval_jet(self, x, r):
        if self.domain.is_circle:
            # evaluate the degree-one lift through the fundamental domain
            n = math.floor(x)
            jet = self._piece_at(x - n).eval_jet(x - n, r)
            return Jet(x, r, (jet.coeffs[0] + n,) + jet.coeffs[1:])
        return self._piece_at(x).eval_jet(x, r)

    def inverse_value(self, y):
        n = 0
        if self.domain.is_circle:
            n = math.floor(y)
            y = y - n
        i = int(np.searchsorted(self._images, y, side="right"))
        return self.pieces[i].inverse_value(y) + n

    def children(self):
        return self.pieces

    def params(self):
        return {"breakpoints": list(self.breakpoints),
                "gluing_order": self.gluing_order}

    def check_gluing(self, r=None):
        """Max jet mismatch across breakpoints up to the gluing order."""
        r = self.gluing_order if r is None else r
        return max((jet_gap(self.pieces[i], self.pieces[i + 1], [b], r)
                    for i, b in enumerate(self.breakpoints)), default=0.0)


class CircleFromInterval(Diffeo1D):
    """Circle diffeomorphism from an interval diffeo fixing 0 and 1; the lift
    is F(x) = floor(x) + child(frac(x))."""

    kind = "circle_from_interval"
    domain = Circle()

    def __init__(self, child: Diffeo1D):
        self.child = child

    def eval_jet(self, x, r):
        n = math.floor(x)
        u = x - n
        jet = self.child.eval_jet(u, r)
        coeffs = (jet.coeffs[0] + n,) + jet.coeffs[1:]
        return Jet(x, r, coeffs)

    def inverse_value(self, y):
        n = math.floor(y)
        return n + self.child.inverse_value(y - n)

    def inverse(self):
        return CircleFromInterval(self.child.inverse())

    def children(self):
        return (self.child,)
