"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
the benchmark times), hands the harness one round of operations at a time
through ``ops(k)``, and checks the outputs afterwards in ``check``.  The
checks compare against computations made apart from the operation under
test, or against properties the method guarantees; ``tampers`` returns
deliberately wrong copies of the results for the self-test, each of which
some check must reject.

An operation is one conjugacy, one reduction, one CLI subcommand call or
one certificate word.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil

import numpy as np

# stage functions are called through their modules, so that the traced
# run's wrappers (installed on the modules) see the calls
from diffeo1d import cli, conjugacy, distortion, reduce
from diffeo1d.diffeos import (
    Affine,
    Compose,
    Displacement,
    FlowMap,
    Homothety,
    Moebius,
    PiecewiseGlue,
)
from diffeo1d.fields import (
    AffinePushforwardField,
    BumpField,
    PiecewiseField,
    PolynomialField,
    PushforwardField,
    ScaledField,
    SumField,
)
from diffeo1d.grid import GridSpec
from diffeo1d.reduce import ReductionInput, ReductionTrace
from diffeo1d.serialize import to_json

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))
QUARTIC = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))


@dataclasses.dataclass
class Problem:
    """A check that rejected the output of operation ``op``."""

    op: int
    check: str
    message: str


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------


class Conjugacy:
    """Conjugacies of the logistic time-1 map f, alternating an affine
    conjugator and the time-1 flow of a small bump field.  Each item runs
    ``synthesize_conjugacy`` (r=2) from the planted conjugator as germ and
    two ``sigma_offset`` calls; the orbit stepping makes thousands of short
    r=0 and r=2 flows of a polynomial field.

    The bump amplitude is drawn from a narrow band because the cost of a
    flow item grows with it."""

    name = "conjugacy"
    known_faults = frozenset()

    #: tolerances: planted conjugator, offset pair, witness residuals
    PLANT_TOL = 1e-7
    SIGMA_TOL = 1e-7
    RES_C0_MAX = 1e-9
    RES_CR_MAX = 1e-8

    NODES = np.linspace(0.05, 0.95, 33)
    #: certification grid of the witness: 9 nodes for C^0 and for C^2
    GRID = GridSpec(0.05, 0.95, 8)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.f = FlowMap(LOGISTIC, 1.0)

    def _items(self, k):
        rng = _rng(self.seed, k)
        slope = float(rng.uniform(0.4, 0.8))
        offset = float(rng.uniform(0.05, 0.95 - slope))
        amp = float(rng.uniform(0.01, 0.012))
        phi_a = Affine(slope, offset)
        phi_b = FlowMap(ScaledField(BumpField(0.05, 0.2, 0.8, 0.95), amp), 1.0)
        return [("conjugacy.affine", phi_a,
                 AffinePushforwardField(LOGISTIC, slope, offset)),
                ("conjugacy.flow", phi_b,
                 PushforwardField(LOGISTIC, phi_b, zeros=(0.0, 1.0)))]

    def ops(self, k):
        def run(phi, g_field):
            g = Compose(phi, self.f, phi.inverse())
            witness = conjugacy.synthesize_conjugacy(
                self.f, g, phi, base_x=0.1, r=2, grid=self.GRID)
            s1 = conjugacy.sigma_offset(LOGISTIC, g_field, phi, phi, 0.2, 0.8)
            s2 = conjugacy.sigma_offset(LOGISTIC, g_field, phi, phi,
                                        0.35, 0.65)
            return {"planted": phi, "witness": witness, "sigma": (s1, s2)}

        return [(label, 1, lambda phi=phi, gf=gf: run(phi, gf))
                for label, phi, gf in self._items(k)]

    def check(self, results):
        out = []
        for i, (_, res) in enumerate(results):
            w, planted = res["witness"], res["planted"]
            err = max(abs(w.phi(float(x)) - planted(float(x)))
                      for x in self.NODES)
            if not err < self.PLANT_TOL:
                out.append(Problem(i, "planted",
                                   f"conjugator misses the planted one by {err:.3g}"))
            s1, s2 = res["sigma"]
            if not abs(s1 - s2) < self.SIGMA_TOL:
                out.append(Problem(i, "sigma", f"sigma {s1!r} != {s2!r}"))
            if not (w.residual_c0 < self.RES_C0_MAX
                    and w.residual_cr < self.RES_CR_MAX):
                out.append(Problem(i, "residuals",
                                   f"witness residuals {w.residual_c0:.3g}, "
                                   f"{w.residual_cr:.3g}"))
        return out

    def tampers(self, results):
        label, res = results[0]
        shifted = Compose(Affine(1.0, 1e-6), res["planted"])
        s1, s2 = res["sigma"]
        wit = dataclasses.replace(res["witness"], residual_cr=1e-6)
        return [
            ("planted conjugator shifted by 1e-6",
             [(label, dict(res, planted=shifted))]),
            ("second sigma off by 1e-6",
             [(label, dict(res, sigma=(s1, s2 + 1e-6)))]),
            ("C^r residual raised to 1e-6",
             [(label, dict(res, witness=wit))]),
        ]


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _flat_ended_field():
    X = SumField(ScaledField(BumpField(0.0, 0.15, 0.85, 1.0), 1.2e-6),
                 ScaledField(BumpField(0.3, 0.4, 0.6, 0.7), 0.02))
    # SumField takes no zero set; declare the flat endpoints
    X.zeros = (0.0, 1.0)
    return X


def _fd_distance(g, n=512):
    """C^2 distance of g to the identity from values only: fourth-order
    central differences on a grid of spacing 1/n, at nodes whose stencil
    stays inside [0, 1]."""
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    v = np.array([g(float(x)) for x in xs])
    d1 = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    d2 = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1]
          - v[4:]) / (12 * h * h)
    return float(max(np.max(np.abs(v - xs)), np.max(np.abs(d1 - 1.0)),
                     np.max(np.abs(d2))))


def _glue_points(node, kind):
    """(node, breakpoint index) for every ``kind`` node in an expression."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, kind):
            out.extend((n, i) for i in range(len(n.breakpoints)))
        stack.extend(n.children() if hasattr(n, "children") else ())
    return out


def _glue_mismatch(node, i, r):
    """Largest jet mismatch of orders 0..r between the two pieces meeting at
    breakpoint i, relative to the derivative scale there: order k is
    measured against max(1, |D^1|) / h^(k-1), h the distance from the
    breakpoint to the nearer end of [0, 1]."""
    b = node.breakpoints[i]
    left = node.pieces[i].eval_jet(b, r).coeffs
    right = node.pieces[i + 1].eval_jet(b, r).coeffs
    h = min(b, 1.0 - b)
    d1 = max(1.0, abs(left[1]), abs(right[1])) if r >= 1 else 1.0
    worst = abs(left[0] - right[0])
    for k in range(1, r + 1):
        worst = max(worst, abs(left[k] - right[k]) * h ** (k - 1) / d1)
    return worst


class Reduction:
    """``reduce_interval`` (r=2) on two inputs, one per driver: the quartic
    x^2(1-x)^2 at epsilon 0.05 (homothety flattening) and a field flat at
    both ends, declared ITI there, at epsilon 0.2 (integer-offset driver).

    Every call gets its own epsilon, so none is served from the module-level
    calibration cache.  The quartic's epsilon depends on the round only: its
    distance check fails on every run (a fault of the program, see
    ``known_faults``), and a failure kept in the benchmark must not depend
    on the seed."""

    name = "reduction"
    #: the reported quartic distance misses the peak of |D^2 g| near 0.15
    known_faults = frozenset({"quartic.distance"})

    R = 2
    CONJ_TOL = 1e-12
    DIST_RTOL = 0.02
    GLUE_TOL = 1e-6
    IDENTITY_TOL = 1e-9
    SAMPLES = (0.2, 0.5, 0.8)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.flat = _flat_ended_field()

    def ops(self, k):
        eps_q = 0.05 * (1.0 + 1e-3 * k)
        eps_f = 0.2 * (1.0 + float(_rng(self.seed, k).uniform(-0.01, 0.01)))
        quartic = ReductionInput(QUARTIC)
        flat = ReductionInput(self.flat, True, True)

        def run(name, data, eps):
            return {"input": name, "X": data.X, "epsilon": eps,
                    "trace": reduce.reduce_interval(data, eps, self.R)}

        return [("reduce.reduce_s.quartic", 1,
                 lambda: run("quartic", quartic, eps_q)),
                ("reduce.reduce_s.flat_ends", 1,
                 lambda: run("flat_ends", flat, eps_f))]

    def check(self, results):
        out = []
        for i, (_, res) in enumerate(results):
            name, trace, eps = res["input"], res["trace"], res["epsilon"]

            def bad(check, msg):
                out.append(Problem(i, f"{name}.{check}", msg))

            ds = [s.dr_to_isometry for s in trace.steps]
            if not (all(b < a for a, b in zip(ds, ds[1:])) and ds[-1] < eps):
                bad("trace", f"distances {ds} not decreasing below {eps}")
            step = trace.steps[-1]
            f = FlowMap(res["X"], 1.0)
            phi, g = step.conjugator, step.conjugate
            err = max(abs(phi(f(float(x))) - g(phi(float(x))))
                      for x in self.SAMPLES)
            if not err < self.CONJ_TOL:
                bad("conjugacy", f"|phi f - g phi| = {err:.3g}")
            fd = _fd_distance(g)
            if not abs(step.dr_to_isometry - fd) <= self.DIST_RTOL * fd:
                bad("distance", f"reported {step.dr_to_isometry:.6g}, "
                                f"finite differences {fd:.6g}")
            self._check_tags(step, bad)
            glue = [_glue_mismatch(n, j, self.R)
                    for n, j in _glue_points(phi, PiecewiseGlue)]
            glue += [_glue_mismatch(n, j, self.R)
                     for n, j in _glue_points(g.X, PiecewiseField)]
            if glue and not max(glue) < self.GLUE_TOL:
                bad("gluing", f"jet mismatch {max(glue):.3g} at a gluing point")
        return out

    def _check_tags(self, step, bad):
        tags = [(t.endpoint, t.tag) for t in step.boundary_tags]
        if step.info.get("case") == "flatten":
            lam = step.info["lam"]
            if not (tags == [(0.0, "homothety"), (1.0, "homothety")]
                    and all(t.value == lam for t in step.boundary_tags)):
                bad("tags", f"expected homothety tags of ratio {lam}: {tags}")
            return
        power = step.boundary_tags[-1].value
        if not (tags == [(0.0, "identity"), (1.0, "power_of_f")]
                and power == round(power) and power == step.sigma):
            bad("tags", f"expected identity at 0 and f^sigma at 1: "
                        f"{[t.to_json() for t in step.boundary_tags]}")
        x0 = step.info["x0"]
        err = max(abs(step.conjugator(x) - x) for x in (x0 / 4, x0 / 2))
        if not err < self.IDENTITY_TOL:
            bad("tags", f"conjugator is not the identity near 0: {err:.3g}")

    def tampers(self, results):
        out = []
        for label, res in results:
            trace = res["trace"]
            step = trace.steps[-1]

            def with_step(desc, **changes):
                new = dataclasses.replace(step, **changes)
                t = ReductionTrace(trace.steps[:-1] + [new],
                                   trace.target_epsilon)
                out.append((f"{res['input']}: {desc}",
                            [(label, dict(res, trace=t))]))

            with_step("distance off by 10%",
                      dr_to_isometry=step.dr_to_isometry * 1.1)
            with_step("conjugator composed with a 1e-6 dilation",
                      conjugator=Compose(step.conjugator,
                                         Homothety(0.5, 1.0 + 1e-6)))
            tags = list(step.boundary_tags)
            tags[-1] = dataclasses.replace(tags[-1], value=tags[-1].value + 1)
            with_step("boundary tag value off by one", boundary_tags=tags)
            out.append((f"{res['input']}: trace ends above epsilon",
                        [(label, dict(res, epsilon=step.dr_to_isometry))]))
            glued = _glue_points(step.conjugator, PiecewiseGlue)
            if glued:
                node = glued[0][0]
                pieces = list(node.pieces)
                lam = pieces[0].ratio
                pieces[0] = Homothety(0.0, lam * (1.0 + 1e-3))
                bent = PiecewiseGlue(node.breakpoints, pieces,
                                     gluing_order=node.gluing_order)
                with_step("homothety piece off by 1e-3 in ratio",
                          conjugator=bent)
        return out


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------


def _displacements(rng, n, scale=0.05):
    """n bump displacements x + c * scale * Bump(lo, lo + .15, hi - .15, hi)
    with c ~ U(0.55, 0.75).  The supports are fixed per slot, spread over
    lo in [0, 0.3] and hi in [0.7, 1], and the amplitude band is narrow:
    quad's cost for Var(log Df) depends on where D^2 f changes sign and on
    the amplitude, and a scene's cost should vary little between seeds."""
    out = []
    for i in range(n):
        lo = 0.3 * (i + 0.5) / n
        hi = 0.7 + 0.3 * (i + 0.5) / n
        c = float(rng.uniform(0.55, 0.75))
        out.append(Displacement(ScaledField(
            BumpField(lo, lo + 0.15, hi - 0.15, hi), scale * c)))
    return out


class Scene:
    """One seeded scene file run through ``diffeo1d.cli.main`` one
    subcommand at a time (var, liouville, asymvar, eval), with reports
    written under the run's work directory.  The scene holds pairs of bump
    displacements f, g with their composition fg, and Moebius maps
    x -> ax/((a-1)x+1).  No flow is solved: the cost is jets, field nodes
    and quad inside var_log_derivative, plus the cli/serialize layer."""

    name = "scene"
    known_faults = frozenset()
    COMMANDS = ("var", "liouville", "asymvar", "eval")
    PAIRS = 2
    MOEBIUS = 2

    MOEBIUS_TOL = 1e-8
    VAR_SLACK = 1e-9
    LIOUVILLE_SLACK = 1e-6
    LIOUVILLE_ZERO = 1e-8
    TV_RTOL = 1e-4
    TV_NODES = 4097

    def __init__(self, seed: int, workdir):
        rng = _rng(seed, 0)
        self.workdir = workdir
        self._tv_cache = {}
        objects, self.pairs, self.moebius = {}, [], {}
        maps = _displacements(rng, 2 * self.PAIRS)
        for i in range(self.PAIRS):
            f, g = maps[2 * i], maps[2 * i + 1]
            objects.update({f"f{i}": f, f"g{i}": g, f"fg{i}": Compose(f, g)})
            self.pairs.append((f"f{i}", f"g{i}", f"fg{i}"))
        for j in range(self.MOEBIUS):
            a = float(rng.uniform(1.5, 3.0))
            objects[f"m{j}"] = Moebius.fixing_01(a)
            self.moebius[f"m{j}"] = a
        self.objects = objects
        names = list(objects)
        tasks = [{"command": "var", "name": f"var_{n}", "object": n}
                 for n in names]
        tasks += [{"command": "liouville", "name": f"liouville_{n}",
                   "object": n} for n in names]
        tasks += [{"command": "asymvar", "name": f"asymvar_{n}", "object": n,
                   "n_max": 3} for n in self.moebius]
        tasks += [{"command": "eval", "name": f"eval_{n}", "object": n,
                   "grid": {"lo": 0.0, "hi": 1.0, "n": 64}} for n in names]
        self.scene = workdir / "scene.json"
        self.scene.write_text(json.dumps({
            "version": 1,
            "objects": {n: {"type": "diffeo", "node": to_json(o)}
                        for n, o in objects.items()},
            "tasks": tasks}))

    def ops(self, k):
        out = self.workdir / f"round{k}"

        def run(cmd):
            code = cli.main([cmd, "--scene", str(self.scene),
                             "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"diffeo1d {cmd} exited with {code}")
            return {"command": cmd, "out": out}

        return [(f"cli.main_s.{cmd}", 1, lambda cmd=cmd: run(cmd))
                for cmd in self.COMMANDS]

    @staticmethod
    def _read(out, prefix, name):
        return json.loads((out / f"{prefix}_{name}.json").read_text())

    def _tv(self, name):
        """Total variation of log Df summed over a fine grid of first
        derivatives: a lower bound that converges to Var(log Df)."""
        if name not in self._tv_cache:
            f = self.objects[name]
            d = [f.eval_jet(float(x), 1).coeffs[1]
                 for x in np.linspace(0.0, 1.0, self.TV_NODES)]
            self._tv_cache[name] = float(np.sum(np.abs(np.diff(np.log(d)))))
        return self._tv_cache[name]

    def check(self, results):
        out = []
        for i, (_, res) in enumerate(results):
            cmd, d = res["command"], res["out"]

            def bad(check, msg):
                out.append(Problem(i, f"{cmd}.{check}", msg))

            if cmd == "var":
                var = {n: self._read(d, "var", n)["var_log_derivative"]
                       for n in self.objects}
                for n, a in self.moebius.items():
                    if not abs(var[n] - 2 * math.log(a)) < self.MOEBIUS_TOL:
                        bad("moebius", f"Var {n} = {var[n]!r}, "
                                       f"2 log a = {2 * math.log(a)!r}")
                for f, g, fg in self.pairs:
                    if not var[fg] <= var[f] + var[g] + self.VAR_SLACK:
                        bad("subadditive", f"Var {fg} = {var[fg]} > "
                                           f"Var {f} + Var {g}")
                for n, v in var.items():
                    tv = self._tv(n)
                    if not (tv <= v * (1 + 1e-12) + 1e-12
                            and v - tv <= self.TV_RTOL * v):
                        bad("grid", f"Var {n} = {v!r}, grid variation {tv!r}")
            elif cmd == "liouville":
                length = {n: self._read(d, "liouville", n)["liouville_length"]
                          for n in self.objects}
                for f, g, fg in self.pairs:
                    if not (length[fg] <= length[f] + length[g]
                            + self.LIOUVILLE_SLACK):
                        bad("subadditive",
                            f"Liouville length of {fg} exceeds {f} + {g}")
                for n in self.moebius:
                    if not length[n] < self.LIOUVILLE_ZERO:
                        bad("moebius",
                            f"Liouville length of {n} = {length[n]:.3g}")
            elif cmd == "asymvar":
                for n, a in self.moebius.items():
                    est = self._read(d, "asymvar", n)["estimate"]
                    if not abs(est - 2 * math.log(a)) < self.MOEBIUS_TOL:
                        bad("moebius", f"asymvar {n} = {est!r}, "
                                       f"2 log a = {2 * math.log(a)!r}")
            elif cmd == "eval":
                for n in self.objects:
                    vals = self._read(d, "eval", n)["values"]
                    if not np.all(np.diff(vals) > 0):
                        bad("increasing", f"eval values of {n} do not increase")
        return out

    def tampers(self, results):
        """Rewrite one report per check in a copy of the round's output."""
        base = results[0][1]["out"]
        cases = [
            ("Moebius Var off by 1e-6", "var", "var_m0",
             "var_log_derivative", lambda v: v + 1e-6),
            ("displacement Var off by 1e-3", "var", "var_f0",
             "var_log_derivative", lambda v: v * (1 + 1e-3)),
            ("Var of fg above the sum", "var", "var_fg0",
             "var_log_derivative", lambda v: v + 10.0),
            ("Liouville length of a Moebius map 1e-6", "liouville",
             "liouville_m0", "liouville_length", lambda v: 1e-6),
            ("Liouville length of fg above the sum", "liouville",
             "liouville_fg0", "liouville_length", lambda v: v + 10.0),
            ("asymvar estimate off by 1e-6", "asymvar", "asymvar_m0",
             "estimate", lambda v: v + 1e-6),
            ("eval values with a repeat", "eval", "eval_f0", "values",
             lambda v: v[:1] + v[:-1]),
        ]
        out = []
        for n, (desc, cmd, report, key, change) in enumerate(cases):
            d = self.workdir / f"tampered{n}"
            shutil.copytree(base, d)
            path = d / f"{report}.json"
            data = json.loads(path.read_text())
            data[key] = change(data[key])
            path.write_text(json.dumps(data))
            out.append((desc, [(f"cli.main_s.{cmd}",
                                {"command": cmd, "out": d})]))
        return out


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


class Certificate:
    """``build_interval_certificate`` over the criterion-7 bump pairs,
    reduced to two pairs, with a seeded amplitude factor.  Value-only r=0
    flows of bump fields at tolerance 1e-14 composed into long words: the
    scalar field path, no quad and little jet work."""

    name = "certificate"
    known_faults = frozenset()
    PAIRS = 2
    J, I, P = (0.4, 0.6), (0.0, 1.0), 0.15
    TOL = 1e-6
    #: the certificate verifies its words on this many grid points
    GRID_N = 9
    NODES = (0.47, 0.53)

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def _pairs(self, k):
        a = float(_rng(self.seed, k).uniform(0.8, 1.2))
        pairs = []
        for n in range(self.PAIRS):
            amp = a * 2e-3 / (n + 1)
            pairs.append((
                FlowMap(ScaledField(BumpField(0.40, 0.45, 0.50, 0.55), amp), 1.0),
                FlowMap(ScaledField(BumpField(0.45, 0.50, 0.55, 0.60), amp), 1.0)))
        return pairs

    def ops(self, k):
        pairs = self._pairs(k)

        def run():
            cert = distortion.build_interval_certificate(
                pairs, self.J, self.I, self.P, tol=self.TOL,
                grid_n=self.GRID_N)
            return {"pairs": pairs, "cert": cert}

        return [("distortion.certificate", self.PAIRS, run)]

    @staticmethod
    def _apply(generators, letters, x):
        """The word applied letter by letter, rightmost letter first."""
        for idx, e in reversed(letters):
            g = generators[idx]
            x = g(x) if e == 1 else g.inverse_value(x)
        return x

    def check(self, results):
        out = []
        for i, (_, res) in enumerate(results):
            cert, pairs = res["cert"], res["pairs"]

            def bad(check, msg):
                out.append(Problem(i, check, msg))

            if len(cert.words) != len(pairs):
                bad("words", f"{len(cert.words)} words for {len(pairs)} pairs")
            for n, (word, (g, gp)) in enumerate(zip(cert.words, pairs)):
                letters = word["letters"]
                if not len(letters) == word["claimed_length"] == 14 * n + 14:
                    bad("length", f"word {n} has {len(letters)} letters, "
                                  f"claims {word['claimed_length']}")
                target = Compose(g, gp, g.inverse(), gp.inverse())
                err = max(abs(self._apply(cert.generators, letters, float(x))
                              - target(float(x))) for x in self.NODES)
                if not err < self.TOL:
                    bad("value", f"word {n} misses the commutator by {err:.3g}")
            h = cert.generators[0]
            lo, hi = cert.intervals["J_prime"]
            spans = [(lo, hi)]
            for _ in range(len(pairs)):
                lo, hi = h(lo), h(hi)
                spans.append((lo, hi))
            spans.sort()
            if not all(a[1] < b[0] for a, b in zip(spans, spans[1:])):
                bad("disjoint", f"h-translates of J' overlap: {spans}")
        return out

    def tampers(self, results):
        label, res = results[0]
        cert = res["cert"]
        words = [dict(w) for w in cert.words]
        words[-1]["letters"] = words[-1]["letters"][1:]
        dropped = dataclasses.replace(cert, words=words)
        inflated = [dict(w) for w in cert.words]
        inflated[0]["letters"] = inflated[0]["letters"] + [(0, 1), (0, -1)]
        inflated[0]["claimed_length"] += 2
        padded = dataclasses.replace(cert, words=inflated)
        weak = FlowMap(cert.generators[0].X, 0.05, tol=1e-14)
        overlapping = dataclasses.replace(
            cert, generators=[weak] + cert.generators[1:])
        return [
            ("a word with one letter dropped",
             [(label, dict(res, cert=dropped))]),
            ("a word padded by h h^-1 and a matching claim",
             [(label, dict(res, cert=padded))]),
            ("a contraction too weak to separate J'",
             [(label, dict(res, cert=overlapping))]),
        ]


WORKLOADS = {w.name: w for w in (Conjugacy, Reduction, Scene, Certificate)}
