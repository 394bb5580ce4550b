"""Mather invariant of fixed-point-free interval diffeomorphisms.

The invariant is represented by samples of the circle map
``M(t) = tau_right(q, phi_left^t(p))`` together with a fitted translation;
all downstream uses (triviality tests, composition checks) are metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from .diffeos import Compose, Diffeo1D, FlowMap, flow, transit_time
from .fields import Interval, VectorField1D
from .jets import Jet, jet_mul


def time_jet_of_flow(X: VectorField1D, x: float, t: float, r: int) -> Jet:
    """Jet in ``t`` of the trajectory ``t -> phi^t(x)`` at time ``t``.

    Successive time derivatives are X, (DX)X, ... evaluated at the endpoint,
    obtained by the order-lowering recursion on jets of X.
    """
    u0 = flow(X, t, x, 0).value
    coeffs = [u0]
    # a_k holds the jet (in space, at u0) of the k-th time-derivative field
    a = X.eval_jet(u0, r) if r >= 1 else None
    xjet = a
    for k in range(1, r + 1):
        coeffs.append(a.value)
        if k < r:
            da = Jet(u0, a.order - 1, a.coeffs[1:])
            a = jet_mul(da, xjet.truncate(a.order - 1))
    return Jet(t, r, tuple(coeffs))


class FlowChart(Diffeo1D):
    """psi: t -> phi^t(p), a diffeomorphism from R onto (0,1)."""

    kind = "flow_chart"
    domain = Interval(-math.inf, math.inf)

    def __init__(self, X: VectorField1D, p: float):
        self.X = X
        self.p = float(p)

    def eval_jet(self, t, r):
        return time_jet_of_flow(self.X, self.p, t, r)

    def inverse_value(self, x):
        return transit_time(self.X, self.p, x)

    def inverse(self):
        return FlowChartInverse(self.X, self.p)


class FlowChartInverse(Diffeo1D):
    """psi^{-1}: x -> tau(p, x), from (0,1) onto R."""

    kind = "flow_chart_inverse"

    def __init__(self, X: VectorField1D, p: float):
        self.X = X
        self.p = float(p)
        self.domain = X.domain

    def eval_jet(self, x, r):
        val = transit_time(self.X, self.p, x)
        coeffs = [val]
        if r >= 1:
            from .jets import jet_reciprocal

            inv = jet_reciprocal(self.X.eval_jet(x, r - 1))
            coeffs.extend(inv.coeffs)
        return Jet(x, r, tuple(coeffs))

    def inverse_value(self, t):
        return flow(self.X, t, self.p, 0).value

    def inverse(self):
        return FlowChart(self.X, self.p)


class ChartConjugated(Diffeo1D):
    """h = psi phi psi^{-1} for phi supported in a bounded time window.

    Identity outside the psi-image of the window, so it extends smoothly by
    the identity to all of [0,1].
    """

    kind = "chart_conjugated"

    def __init__(self, X: VectorField1D, p: float, phi: Diffeo1D,
                 window: tuple):
        self.X = X
        self.p = float(p)
        self.phi = phi
        self.window = (float(window[0]), float(window[1]))
        self.domain = X.domain
        pad = 0.25
        self._lo = flow(X, self.window[0] - pad, self.p, 0).value
        self._hi = flow(X, self.window[1] + pad, self.p, 0).value
        self._conjugate = Compose(FlowChart(X, self.p), phi,
                                  FlowChartInverse(X, self.p))

    def eval_jet(self, x, r):
        if not (self._lo < x < self._hi):
            return Jet.identity(x, r)
        return self._conjugate.eval_jet(x, r)

    def inverse_value(self, y):
        if not (self._lo < y < self._hi):
            return y
        t = transit_time(self.X, self.p, y)
        return flow(self.X, self.phi.inverse_value(t) - t, y, 0).value

    def children(self):
        return (self.phi,)

    def params(self):
        return {"window": list(self.window)}


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


@dataclass
class MatherSample:
    p: float
    q: float
    t_nodes: np.ndarray
    values: np.ndarray
    translation_fit: float
    max_deviation: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "translation_fit": self.translation_fit,
            "max_deviation": self.max_deviation,
            "n_nodes": int(len(self.t_nodes)),
        }

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "M"])
            for t, m in zip(self.t_nodes, self.values):
                w.writerow([repr(float(t)), repr(float(m))])


def _make_sample(p, q, ts, vals) -> MatherSample:
    dev = vals - ts
    fit = float(np.mean(dev))
    return MatherSample(p, q, np.asarray(ts), np.asarray(vals), fit,
                        float(np.max(np.abs(dev - fit))))


def default_t_nodes(n: int = 64) -> np.ndarray:
    return np.linspace(0.0, 1.0, n + 1)


def mather_map(X_left: VectorField1D, Y_right: VectorField1D, p: float,
               q: float, t_nodes=None) -> MatherSample:
    """Sample M(t) = tau_{Y_right}(q, phi_{X_left}^t(p)) on the t-grid."""
    ts = default_t_nodes() if t_nodes is None else np.asarray(t_nodes, float)
    vals = []
    for t in ts:
        z = flow(X_left, float(t), p, 0).value
        vals.append(transit_time(Y_right, q, z))
    return _make_sample(p, q, ts, np.array(vals))


def is_trivial(sample: MatherSample, tol: float) -> tuple:
    return sample.max_deviation < tol, sample.max_deviation


# ---------------------------------------------------------------------------
# perturbed maps and the composition law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """A diffeomorphism of the time line supported in (alpha-1, alpha)."""

    phi: Diffeo1D
    alpha: float


def check_windows(perturbations) -> None:
    alphas = [p.alpha for p in perturbations]
    if alphas and alphas[0] > 0:
        raise ValueError("first window endpoint must satisfy alpha_1 <= 0")
    for a, b in zip(alphas, alphas[1:]):
        if not b < a - 1:
            raise ValueError(f"windows must satisfy alpha_(i+1) < alpha_i - 1 "
                             f"(got {b} !< {a - 1})")


def perturbed_time_one(X: VectorField1D, p: float, perturbations) -> Diffeo1D:
    """g = f o h_1 o ... o h_l with h_i = psi phi_i psi^{-1}."""
    check_windows(perturbations)
    hs = [ChartConjugated(X, p, pt.phi, (pt.alpha - 1.0, pt.alpha))
          for pt in perturbations]
    return Compose(FlowMap(X, 1.0), *hs) if hs else FlowMap(X, 1.0)


def perturbed_mather_sample(X: VectorField1D, p: float, perturbations,
                            t_nodes=None) -> MatherSample:
    """Mather sample M_g^{p,p} of g = f o h_1 ... h_l, without recovering the
    generating fields of g.

    Both germ fields of g coincide with X outside the perturbed window, so
    the left flow of g is computed by pushing through iterates of g
    (psi_{X_g,p}(t) = g^n phi_X^t(g^{-n} p)) and the right transit directly
    along X above the window.  Requires X > 0 on (0,1).
    """
    check_windows(perturbations)
    if X(p) <= 0:
        raise ValueError("perturbed sampler assumes X > 0 on (0,1)")
    ts = default_t_nodes() if t_nodes is None else np.asarray(t_nodes, float)
    if not perturbations:
        return mather_map(X, X, p, p, ts)
    g = perturbed_time_one(X, p, perturbations)
    n = int(math.ceil(abs(perturbations[-1].alpha))) + 2
    ginv = g.inverse()
    base = p
    for _ in range(n):
        base = ginv(base)
    vals = []
    for t in ts:
        z = flow(X, float(t), base, 0).value
        for _ in range(n):
            z = g(z)
        vals.append(transit_time(X, p, z))
    return _make_sample(p, p, ts, np.array(vals))


class PeriodizedLift:
    """Lift of the circle map induced by a compactly supported time-line
    diffeomorphism: commutes with integer translation."""

    def __init__(self, phi: Diffeo1D, window: tuple):
        self.phi = phi
        self.lo = float(window[0])

    def __call__(self, t: float) -> float:
        k = math.floor(t - self.lo)
        return self.phi(t - k) + k


def fragmat_compose_check(X: VectorField1D, p: float, perturbations,
                          t_nodes=None) -> dict:
    """Check the composition law for the Mather invariant of
    g = f o h_1 ... h_l: modulo a pre-translation, the circle map induced by
    M_g equals phi_1 o ... o phi_l composed with the (trivial) M_f.

    Returns the fitted translation and the max mismatch over the t-grid.
    """
    ts = default_t_nodes() if t_nodes is None else np.asarray(t_nodes, float)
    sample = perturbed_mather_sample(X, p, perturbations, ts)
    lifts = [PeriodizedLift(pt.phi, (pt.alpha - 1.0, pt.alpha))
             for pt in perturbations]

    def rhs(t):
        for L in lifts[::-1]:
            t = L(t)
        return t

    rhs_vals = np.array([rhs(float(t)) for t in ts])
    # periodic interpolation of the displacement of M_g
    u = (sample.values - sample.t_nodes).copy()
    if abs(u[0] - u[-1]) > 1e-6:
        raise RuntimeError("Mather sample displacement is not 1-periodic; "
                           f"wrap defect {abs(u[0] - u[-1]):.3g}")
    u[-1] = u[0]
    us = CubicSpline(np.linspace(0.0, 1.0, len(u)), u, bc_type="periodic")

    def m_of(s):
        return s + float(us(s - math.floor(s)))

    def residual(tau):
        devs = []
        for t, r_val in zip(ts, rhs_vals):
            d = m_of(float(t) + tau) - r_val
            devs.append(abs(d - round(d)))
        return max(devs)

    taus = np.linspace(-0.5, 0.5, 501)
    coarse = min(taus, key=residual)
    res = minimize_scalar(residual, bounds=(coarse - 3e-3, coarse + 3e-3),
                          method="bounded", options={"xatol": 1e-10})
    tau = float(res.x)
    return {
        "tau": tau,
        "max_mismatch": float(residual(tau)),
        "sample": sample,
        "n_perturbations": len(perturbations),
    }
