"""Word-length certificates for distortion estimates.

Commutator curvature, Thurston-style interval certificates with the exact
14n+14 length bound, flow-root decompositions, and the upper-bound algebra
on decomposition records.  Everything here produces *certified upper
bounds* on word lengths over explicit generating sets; no routine in this
module claims that a map is or is not distorted.
"""

from __future__ import annotations


from dataclasses import dataclass

import numpy as np

from .diffeos import (FLOW_TOL_MIN, Compose, Diffeo1D, FlowMap, Identity,
                      Power, flow, jet_gap)
from .fields import BumpField, ScaledField, VectorField1D, field_norm
from .grid import GridSpec
from .metrics import cr_distance


class CertificateError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# commutator curvature
# ---------------------------------------------------------------------------


def commutator_curvature(X: VectorField1D, Y: VectorField1D, x: float,
                         h: float = 1e-3) -> dict:
    """Second time-derivative of t -> [phi_X^t, phi_Y^t](x) at t = 0.

    The analytic value is 2(DX(x)Y(x) - DY(x)X(x)); the finite-difference
    value is the central second difference of the commutator curve at
    t in {+-h, +-2h}.  The step-2h estimate is returned as well, so the
    quadratic order of the error can be checked by comparing the two.
    """
    x = float(x)
    jx = X.eval_jet(x, 1)
    jy = Y.eval_jet(x, 1)
    analytic = 2.0 * (jx.d1 * jy.value - jy.d1 * jx.value)

    def curve(t):
        z = flow(Y, -t, x).value
        z = flow(X, -t, z).value
        z = flow(Y, t, z).value
        return flow(X, t, z).value

    fd = (curve(h) - 2.0 * x + curve(-h)) / h**2
    fd2 = (curve(2 * h) - 2.0 * x + curve(-2 * h)) / (2 * h) ** 2
    return {
        "analytic": analytic,
        "finite_difference": fd,
        "finite_difference_2h": fd2,
        "error": abs(analytic - fd),
        "error_2h": abs(analytic - fd2),
    }


# ---------------------------------------------------------------------------
# words and certificates
# ---------------------------------------------------------------------------


def word_to_diffeo(generators, letters) -> Diffeo1D:
    """Compose a letter sequence over the generator list.

    Letters are (index, exponent) with exponent +-1, written in composition
    order: the leftmost letter is applied last, as in Compose.
    """
    if not letters:
        return Identity()
    maps = []
    for idx, e in letters:
        g = generators[idx]
        m = g if e == 1 else g.inverse()
        # adjacent flows of the same field merge by flow additivity; this is
        # an exact rewrite and keeps evaluation cost linear in the number of
        # distinct blocks instead of the letter count
        if (isinstance(m, FlowMap) and maps and isinstance(maps[-1], FlowMap)
                and maps[-1].X is m.X):
            merged = FlowMap(m.X, maps[-1].t + m.t, tol=m.tol)
            maps.pop()
            if merged.t != 0.0:
                maps.append(merged)
            continue
        maps.append(m)
    if not maps:
        return Identity()
    return Compose(*maps)


def _invert_letters(letters):
    return [(i, -e) for i, e in reversed(letters)]


@dataclass
class WordCertificate:
    labels: list
    generators: list
    words: list          # {target_label, letters, claimed_length}
    verification: list   # {residual_c0, length_check}
    intervals: dict

    def to_json(self) -> dict:
        return {
            "generators": self.labels,
            "words": [
                {"target_label": w["target_label"],
                 "letters": [list(l) for l in w["letters"]],
                 "claimed_length": w["claimed_length"]}
                for w in self.words
            ],
            "verification": self.verification,
            "intervals": {k: list(v) for k, v in self.intervals.items()},
        }


def _scaled_push(interval, p, direction, cover, clear):
    """Time-1 map of a bump field on ``interval`` at close to the minimal
    strength for which ``clear`` holds; ``direction`` is the sign.

    Minimality matters: word letters round-trip grid points through the
    contracted translates, and any overshoot in strength shows up as an
    inverse-derivative factor multiplying the flow-integration error.
    """

    def push(c):
        # tighter than the default flow tolerance: the certificate words
        # compose dozens of these letters
        return FlowMap(ScaledField(base, direction * c), 1.0,
                       tol=FLOW_TOL_MIN)

    a, b = interval
    w = b - a
    base = BumpField(a, a + w / 8, b - w / 8, b)
    c, cap = 1.0 / 256, 2.0**24
    while not clear(push(c)):
        c *= 2.0
        if c > cap:
            raise CertificateError(f"no strength up to {cap} separates "
                                   f"the intervals {cover}")
    lo, hi = c / 2, c
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if clear(push(mid)):
            hi = mid
        else:
            lo = mid
    return push(1.05 * hi)


def build_interval_certificate(pairs, J, I, contraction_target,
                               tol: float = 1e-6,
                               grid_n: int = 33) -> WordCertificate:
    """Certificate that each commutator [g_n, g'_n] is a 14n+14-letter word
    in the fixed four-element set S = {h, h', F, F'}.

    h contracts everything right of the target point p toward p, so the
    translates h^n(J') are pairwise disjoint and accumulate at p; h' pushes
    J off itself inside J'.  F and F' are the products of the conjugated
    pairs.  The word is h^{-n} A B C h^n with A = F h'_n F^{-1} h'_n^{-1},
    B the same with F', C = F^{-1} F'^{-1} h'_n F' F h'_n^{-1}, where
    h'_n = h^n h' h^{-n} costs 2n+1 letters; the total letter count is
    exactly 2n + 6(2n+1) + 8 = 14n+14.
    """
    j_lo, j_hi = float(J[0]), float(J[1])
    i_lo, i_hi = float(I[0]), float(I[1])
    p = float(contraction_target)
    if not (i_lo < p < j_lo < j_hi < i_hi):
        raise CertificateError("need I.lo < p < J inside I")
    pad = 0.25 * min(j_lo - p, i_hi - j_hi)
    jp_lo, jp_hi = j_lo - pad, j_hi + pad

    # support check for the supplied pairs
    outside = [x for x in np.linspace(i_lo, i_hi, 257)
               if not (j_lo < x < j_hi)]
    for n, (g, gp) in enumerate(pairs):
        worst = max(jet_gap(g, Identity(), outside, 0),
                    jet_gap(gp, Identity(), outside, 0))
        if worst > 1e-12:
            raise CertificateError(
                f"pair {n} is not supported in J (leak {worst:.3g})")

    # h: attracts toward p, strong enough that h(J') clears J'
    h = _scaled_push((p, 0.5 * (jp_hi + i_hi)), p, -1.0, "h^n(J')",
                     lambda g: g(jp_hi) < jp_lo)
    # h': pushes J off itself inside J'
    hp = _scaled_push((jp_lo, jp_hi), p, 1.0, "h'(J)",
                      lambda g: g(j_lo) > j_hi)

    # pairwise disjointness of the h-translates of J'
    ends = [(jp_lo, jp_hi)]
    for _ in range(len(pairs)):
        ends.append((h(ends[-1][0]), h(ends[-1][1])))
    for (lo1, hi1), (lo2, hi2) in zip(ends, ends[1:]):
        if not hi2 < lo1:
            raise CertificateError("h-translates of J' fail to separate")

    def conj(g, n):
        return Compose(Power(h, n), g, Power(h, -n)) if n else g

    F = Compose(*[conj(g, n) for n, (g, _) in enumerate(pairs)])
    Fp = Compose(*[conj(gp, n) for n, (_, gp) in enumerate(pairs)])
    generators = [h, hp, F, Fp]
    labels = ["h", "h_prime", "F", "F_prime"]
    H, HP, FF, FP = 0, 1, 2, 3

    xs = np.linspace(i_lo, i_hi, grid_n)
    words, verification = [], []
    for n, (g, gp) in enumerate(pairs):
        hn = [(H, 1)] * n + [(HP, 1)] + [(H, -1)] * n
        hn_inv = _invert_letters(hn)
        A = [(FF, 1)] + hn + [(FF, -1)] + hn_inv
        B = [(FP, 1)] + hn + [(FP, -1)] + hn_inv
        C = [(FF, -1), (FP, -1)] + hn + [(FP, 1), (FF, 1)] + hn_inv
        letters = [(H, -1)] * n + A + B + C + [(H, 1)] * n
        claimed = 14 * n + 14
        if len(letters) != claimed:
            raise CertificateError(
                f"letter count {len(letters)} != {claimed} at n={n}")
        words.append({"target_label": f"[g_{n}, g'_{n}]",
                      "letters": letters, "claimed_length": claimed})
        word_map = word_to_diffeo(generators, letters)
        target = Compose(g, gp, g.inverse(), gp.inverse())
        res = jet_gap(word_map, target, xs, 0)
        if res > tol:
            raise CertificateError(
                f"word {n} fails verification: residual {res:.3g}")
        verification.append({"residual_c0": res, "length_check": True})
    return WordCertificate(labels, generators, words, verification,
                           {"I": (i_lo, i_hi), "J": (j_lo, j_hi),
                            "J_prime": (jp_lo, jp_hi), "p": (p, p)})


def epsilon_schedule(J_prime, h: Diffeo1D, n_max: int) -> list:
    """Field-size budgets eps_n with d_3(h^n g h^{-n}, id) < 1/n for the
    calibration bump g of size eps_n supported in J'; each returned value
    is halved for slack.

    The true thresholds depend on the full modulus of continuity of the
    iterates of h; a single calibration family is a surrogate, so treat
    the schedule as indicative rather than sharp.
    """
    if isinstance(h, FlowMap) and h.tol < 1e-9:
        # certificate letters carry very tight value tolerances; the jet
        # transport used for C^r distances stalls at that setting and the
        # distances here are only read against thresholds of order 1/n
        h = FlowMap(h.X, h.t, tol=1e-9)
    lo, hi = float(J_prime[0]), float(J_prime[1])
    w = hi - lo
    base = BumpField(lo, lo + w / 4, hi - w / 4, hi)
    base = ScaledField(base, 1.0 / field_norm(base, 3, np.linspace(lo, hi, 129)))
    out = []
    eps = 1.0
    for n in range(1, n_max + 1):
        hn = Power(h, n)
        # the conjugate only moves points in h^n(J'); sample there, with a
        # margin, instead of wasting a global grid on the identity region
        a, b = sorted((hn(lo), hn(hi)))
        m = 0.05 * (b - a)
        grid = GridSpec(lo=a - m, hi=b + m, n=17)
        # budgets shrink with n, so the previous level is a warm start; the
        # coarse division factor is fine because the schedule only needs to
        # be a safe budget, not a sharp threshold
        eps = min(eps, 1.0 / n)
        for _ in range(30):
            g = FlowMap(ScaledField(base, eps), 1.0, tol=1e-9)
            conj = Compose(hn, g, Power(h, -n))
            d = cr_distance(conj, Identity(), 3, grid, refine=False)
            if d < 1.0 / n:
                break
            eps /= 16.0
        else:
            raise CertificateError(f"no eps found at n={n}")
        out.append(eps / 2.0)
    return out


# ---------------------------------------------------------------------------
# flow-root decompositions and the upper-bound algebra
# ---------------------------------------------------------------------------

#: Fragmentation constants: any diffeomorphism sufficiently close to the
#: identity splits into at most this many flow factors.
C0_CIRCLE = 16
C0_LINE = 14


@dataclass
class DecompositionRecord:
    eta: float
    C: int
    generating_set: list
    word: list
    recorded_A_upper: int
    residual_c0: float = float("nan")
    note: str = "certified upper bound only"

    def ratio(self, n: int) -> float:
        return self.recorded_A_upper / n

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "C": self.C,
            "n_generators": len(self.generating_set),
            "word": [list(l) for l in self.word],
            "recorded_A_upper": self.recorded_A_upper,
            "residual_c0": self.residual_c0,
            "note": self.note,
        }


def _flow_factors(f: Diffeo1D):
    if isinstance(f, Identity):
        return []
    if isinstance(f, FlowMap):
        return [f]
    if isinstance(f, Compose) and all(isinstance(m, FlowMap) for m in f.maps):
        return list(f.maps)
    raise CertificateError("input must be a flow map or a composition of "
                           "flow maps")


def flow_root_decomposition(f: Diffeo1D, eta: float) -> DecompositionRecord:
    """Write f = prod_i (phi_i^{t_i/n})^n with every root within eta of the
    identity in C^3; the word length k*n is the recorded upper bound."""
    factors = _flow_factors(f)
    k = len(factors)
    C0 = C0_CIRCLE if f.domain.is_circle else C0_LINE
    if k > C0:
        raise CertificateError(f"{k} flow factors exceed the allowed {C0}")
    grid = GridSpec(lo=0.0, hi=1.0, n=65)
    n = 1
    while n < 2**40:
        roots = [FlowMap(m.X, m.t / n) for m in factors]
        if all(cr_distance(g, Identity(), 3, grid, refine=False) < eta
               for g in roots):
            break
        n *= 2
    else:
        raise CertificateError("no root order reached the eta target")
    word = []
    for i in range(k):
        word.extend([(i, 1)] * n)
    composed = word_to_diffeo(roots, word)
    xs = np.linspace(0.05, 0.95, 33)
    res = jet_gap(composed, f, xs, 0)
    return DecompositionRecord(eta=eta, C=C0, generating_set=roots,
                               word=word, recorded_A_upper=k * n,
                               residual_c0=res)


def certificate_algebra(operation: str, *records,
                        n: int = None) -> DecompositionRecord:
    """Derive a decomposition record from existing ones.

    'product' concatenates two words over the union of the generating sets
    and doubles C; 'power' repeats a word n times; 'conjugate' sandwiches
    the first word between the second and its inverse, so the bound is
    A(f) + 2A(h).  The recorded bounds satisfy the corresponding
    inequalities by construction.
    """
    if operation == "product":
        a, b = records
        if a.eta != b.eta:
            raise CertificateError("records must share eta")
        gens = list(a.generating_set)
        offset = len(gens)
        gens.extend(b.generating_set)
        word = list(a.word) + [(i + offset, e) for i, e in b.word]
        return DecompositionRecord(
            eta=a.eta, C=2 * max(a.C, b.C), generating_set=gens, word=word,
            recorded_A_upper=a.recorded_A_upper + b.recorded_A_upper)
    if operation == "power":
        (a,) = records
        if n is None or n == 0:
            raise CertificateError("power needs a nonzero n")
        base = list(a.word) if n > 0 else _invert_letters(a.word)
        return DecompositionRecord(
            eta=a.eta, C=a.C, generating_set=list(a.generating_set),
            word=base * abs(n),
            recorded_A_upper=abs(n) * a.recorded_A_upper)
    if operation == "conjugate":
        f_rec, h_rec = records
        if f_rec.eta != h_rec.eta:
            raise CertificateError("records must share eta")
        gens = list(h_rec.generating_set)
        offset = len(gens)
        gens.extend(f_rec.generating_set)
        wh = list(h_rec.word)
        wf = [(i + offset, e) for i, e in f_rec.word]
        return DecompositionRecord(
            eta=f_rec.eta, C=2 * max(f_rec.C, h_rec.C), generating_set=gens,
            word=wh + wf + _invert_letters(wh),
            recorded_A_upper=f_rec.recorded_A_upper
            + 2 * h_rec.recorded_A_upper)
    raise CertificateError(f"unknown operation {operation!r}")


def distortion_report(f: Diffeo1D, n_list, eta: float,
                      conjugacy_record: DecompositionRecord = None) -> dict:
    """Upper bounds on word length of f^n per unit n.

    One flow-root decomposition of f is built and powered; the reported
    ratios are certified upper bounds over that fixed generating set, and
    say nothing about the infimum over all sets.  When a record for a map
    h with h f h^{-1} = f^2 is supplied, the rows also carry the bound
    from iterated conjugation, A(f^{2^n}) <= A(f) + 2n A(h), whose ratio
    against 2^n decays like (2n+1)/2^n.
    """
    base = flow_root_decomposition(f, eta)
    if conjugacy_record is not None:
        doubled = certificate_algebra("conjugate", base, conjugacy_record)
    rows = []
    for n in n_list:
        rec = certificate_algebra("power", base, n=n)
        row = {"n": n, "A_upper": rec.recorded_A_upper,
               "ratio": rec.recorded_A_upper / n}
        if conjugacy_record is not None:
            a_pow = (base.recorded_A_upper
                     + 2 * n * conjugacy_record.recorded_A_upper)
            row["bs_A_upper"] = a_pow
            row["bs_ratio"] = a_pow / 2.0**n
            row["bs_C"] = doubled.C
        rows.append(row)
    return {"eta": eta, "rows": rows, "base": base,
            "note": "ratios are certified upper bounds over one generating "
                    "set; a decreasing trend is evidence, not proof"}
