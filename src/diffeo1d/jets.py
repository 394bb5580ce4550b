"""Truncated Taylor-jet arithmetic.

A :class:`Jet` stores the value and the first ``order`` derivatives of a
function at a base point.  Coefficients are raw derivative values (``coeffs[k]
= D^k f``), *not* divided by ``k!``; conversion to monomial form is a local
helper.  All operations are pure and return new jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Largest jet order supported by the arithmetic backend.  Constructions only
#: ever fix a finite differentiability order, so this is a build constant
#: rather than a runtime knob.
MAX_ORDER = 8

#: Absolute tolerance for base-point agreement in compose/arithmetic.  Flow
#: endpoints agree only to integrator tolerance, so exact equality is too
#: strict.
BASE_POINT_TOL = 1e-9

_FACTORIALS = [math.factorial(k) for k in range(MAX_ORDER + 2)]


class JetError(ValueError):
    """Raised on incompatible jets or singular jet operations."""


@dataclass(frozen=True)
class Jet:
    """Value plus derivatives to ``order`` at ``base_point``."""

    base_point: float
    order: int
    coeffs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.order < 0 or self.order > MAX_ORDER:
            raise JetError(f"jet order must be in [0, {MAX_ORDER}], got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise JetError(
                f"expected {self.order + 1} coefficients, got {len(self.coeffs)}"
            )
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise JetError(f"non-finite jet coefficients: {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "base_point", float(self.base_point))

    @property
    def value(self) -> float:
        return self.coeffs[0]

    @property
    def d1(self) -> float:
        if self.order < 1:
            raise JetError("jet has no first derivative (order 0)")
        return self.coeffs[1]

    # -- conversions -------------------------------------------------------

    def series(self) -> np.ndarray:
        """Monomial (Taylor) coefficients ``coeffs[k] / k!``."""
        return np.array(
            [c / _FACTORIALS[k] for k, c in enumerate(self.coeffs)], dtype=float
        )

    @staticmethod
    def from_series(base_point: float, series) -> "Jet":
        coeffs = [c * _FACTORIALS[k] for k, c in enumerate(series)]
        return Jet(base_point, len(coeffs) - 1, tuple(coeffs))

    @staticmethod
    def constant(base_point: float, value: float, order: int) -> "Jet":
        return Jet(base_point, order, (value,) + (0.0,) * order)

    @staticmethod
    def identity(base_point: float, order: int) -> "Jet":
        coeffs = [float(base_point)] + [0.0] * order
        if order >= 1:
            coeffs[1] = 1.0
        return Jet(base_point, order, tuple(coeffs))

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise JetError(f"cannot extend jet of order {self.order} to {order}")
        return Jet(self.base_point, order, self.coeffs[: order + 1])

    def __repr__(self):
        cs = ", ".join(f"{c:.6g}" for c in self.coeffs)
        return f"Jet(x={self.base_point:.6g}, [{cs}])"


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.order != b.order:
        raise JetError(f"jet order mismatch: {a.order} vs {b.order}")
    if abs(a.base_point - b.base_point) > BASE_POINT_TOL:
        raise JetError(
            f"jet base-point mismatch: {a.base_point} vs {b.base_point}"
        )


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.base_point, a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def jet_sub(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.base_point, a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def jet_scale(a: Jet, s: float) -> Jet:
    return Jet(a.base_point, a.order, tuple(s * c for c in a.coeffs))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product to the common order."""
    _check_compatible(a, b)
    r = a.order
    out = [0.0] * (r + 1)
    for k in range(r + 1):
        s = 0.0
        for j in range(k + 1):
            s += math.comb(k, j) * a.coeffs[j] * b.coeffs[k - j]
        out[k] = s
    return Jet(a.base_point, r, tuple(out))


def _poly_mul_trunc(p: np.ndarray, q: np.ndarray, r: int) -> np.ndarray:
    out = np.zeros(r + 1)
    for i, pi in enumerate(p):
        if pi == 0.0 or i > r:
            continue
        hi = r - i + 1
        out[i : i + hi] += pi * q[:hi]
    return out


def compose_coeffs(outer, inner) -> tuple:
    """Raw coefficients of ``outer o inner`` from those of the two jets.

    Horner evaluation of the outer Taylor series in the ring of series
    truncated at order r, on Python floats; the value of ``inner`` is
    ignored (it is the base point of ``outer``).
    """
    r = len(outer) - 1
    g = [c / _FACTORIALS[k] for k, c in enumerate(inner)]
    acc = [0.0] * (r + 1)
    for k in range(r, -1, -1):
        prod = [0.0] * (r + 1)
        for i, p in enumerate(acc):
            if p == 0.0:
                continue
            # j starts at 1: the constant term of g is dropped
            for j in range(1, r - i + 1):
                prod[i + j] += p * g[j]
        prod[0] += outer[k] / _FACTORIALS[k]
        acc = prod
    acc[0] = outer[0]
    return tuple(c * _FACTORIALS[k] for k, c in enumerate(acc))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of ``outer o inner`` at ``inner.base_point`` (Faa di Bruno)."""
    if outer.order != inner.order:
        raise JetError(f"jet order mismatch: {outer.order} vs {inner.order}")
    if abs(outer.base_point - inner.value) > BASE_POINT_TOL:
        raise JetError(
            "composition base-point mismatch: outer is based at "
            f"{outer.base_point}, inner value is {inner.value}"
        )
    return Jet(inner.base_point, inner.order,
               compose_coeffs(outer.coeffs, inner.coeffs))


def jet_invert(a: Jet) -> Jet:
    """Jet of the inverse function at the point ``a.value`` (series reversion)."""
    if a.order >= 1 and a.coeffs[1] == 0.0:
        raise JetError("cannot invert a jet with vanishing first derivative")
    r = a.order
    if r == 0:
        return Jet(a.value, 0, (a.base_point,))
    f = a.series()
    # Solve g(f(h)) = h order by order: g has series coefficients b_k.
    b = np.zeros(r + 1)
    b[0] = a.base_point
    b[1] = 1.0 / f[1]
    for k in range(2, r + 1):
        # Coefficient of h^k in sum_{j<=k} b_j (f(h)-f0)^j must vanish.
        acc = 0.0
        fpow = np.zeros(r + 1)
        fpow[0] = 1.0
        shifted = f.copy()
        shifted[0] = 0.0
        for j in range(1, k + 1):
            fpow = _poly_mul_trunc(fpow, shifted, r)
            if j < k:
                acc += b[j] * fpow[k]
        b[k] = -acc / fpow[k]  # fpow is now (f-f0)^k, leading coeff f1^k
    return Jet.from_series(a.value, b)


def jet_reciprocal(a: Jet) -> Jet:
    """Jet of ``x -> 1 / a(x)``."""
    if a.coeffs[0] == 0.0:
        raise JetError("reciprocal of a jet with zero value")
    r = a.order
    f = a.series()
    out = np.zeros(r + 1)
    out[0] = 1.0 / f[0]
    for k in range(1, r + 1):
        s = 0.0
        for j in range(1, k + 1):
            s += f[j] * out[k - j]
        out[k] = -s / f[0]
    return Jet.from_series(a.base_point, out)


def jet_divide(a: Jet, b: Jet) -> Jet:
    return jet_mul(a, jet_reciprocal(b))


def jet_apply_smooth(derivs_at_value, u: Jet) -> Jet:
    """Jet of ``F o u`` given the derivatives of ``F`` at ``u.value``.

    ``derivs_at_value`` is a sequence ``[F(u0), F'(u0), ..., F^(r)(u0)]``.
    """
    outer = Jet(u.value, u.order, tuple(derivs_at_value[: u.order + 1]))
    return jet_compose(outer, u)


def jet_exp(u: Jet) -> Jet:
    e = math.exp(u.value)
    return jet_apply_smooth([e] * (u.order + 1), u)


def jet_log(u: Jet) -> Jet:
    if u.value <= 0.0:
        raise JetError("log of non-positive jet value")
    v = u.value
    derivs = [math.log(v)]
    for k in range(1, u.order + 1):
        derivs.append(((-1.0) ** (k - 1)) * _FACTORIALS[k - 1] / v**k)
    return jet_apply_smooth(derivs, u)
