"""End-to-end acceptance runs: one test per headline guarantee.

Each test checks both the numerical claims and its wall-clock budget, so a
verbose run prints one pass/fail line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from diffeo1d.conjugacy import sigma_offset, synthesize_conjugacy
from diffeo1d.diffeos import (
    Affine,
    Compose,
    FlowMap,
    Homothety,
    Identity,
    Moebius,
    transit_time,
)
from diffeo1d.distortion import (
    C0_CIRCLE,
    C0_LINE,
    build_interval_certificate,
    commutator_curvature,
    flow_root_decomposition,
)
from diffeo1d.fields import (
    AffinePushforwardField,
    BumpField,
    PeriodicField,
    PiecewiseField,
    PolynomialField,
    ProductField,
    PushforwardField,
    ScaledField,
    SumField,
)
from diffeo1d.mather import Perturbation, fragmat_compose_check, mather_map
from diffeo1d.metrics import (
    asymptotic_variation,
    liouville_length,
    var_log_derivative,
)
from diffeo1d.reduce import ReductionInput, flatten_field, reduce_interval
from diffeo1d.serialize import to_json
from diffeo1d.diffeos import Displacement

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))
QUARTIC = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))


def unit_moebius(a):
    return Moebius(a, 0.0, a - 1.0, 1.0)


def small_displacement(rng, scale=0.05):
    c = float(rng.uniform(0.3, 1.0))
    lo = float(rng.uniform(0.0, 0.3))
    hi = float(rng.uniform(0.7, 1.0))
    return Displacement(ScaledField(BumpField(lo, lo + 0.15, hi - 0.15, hi),
                                    scale * c))


def test_criterion_1_commutator_curvature():
    start = time.time()
    rng = np.random.default_rng(20240817)

    def random_field():
        cs = rng.uniform(-1, 1, 4)
        a = rng.uniform(0.0, 0.1)
        d = rng.uniform(0.9, 1.0)
        return ScaledField(ProductField(PolynomialField(cs),
                                        BumpField(a, a + 0.25, d - 0.25, d)),
                           0.05)

    total_h = total_2h = 0.0
    for _ in range(20):
        X, Y = random_field(), random_field()
        for x in rng.uniform(0.15, 0.85, 10):
            out = commutator_curvature(X, Y, float(x), h=1e-3)
            assert out["error"] <= 1e-4
            total_h += out["error"]
            total_2h += out["error_2h"]
    # quadratic order: the aggregate error drops by ~4 when h is halved
    assert 3.5 <= total_2h / total_h <= 4.5
    assert time.time() - start < 30.0


def test_criterion_2_transit_time():
    start = time.time()
    q = math.e / (1.0 + math.e)
    assert abs(transit_time(LOGISTIC, 0.5, q) - 1.0) < 1e-8
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        a, b, c = rng.uniform(0.05, 0.95, 3)
        lhs = transit_time(LOGISTIC, a, b) + transit_time(LOGISTIC, b, c)
        assert abs(lhs - transit_time(LOGISTIC, a, c)) < 1e-9
    assert time.time() - start < 5.0


def test_criterion_3_conjugacy_synthesis():
    start = time.time()
    rng = np.random.default_rng(20240817)
    f = FlowMap(LOGISTIC, 1.0)
    grid = np.linspace(0.05, 0.95, 33)
    for i in range(10):
        if i % 2 == 0:
            slope = float(rng.uniform(0.4, 0.8))
            offset = float(rng.uniform(0.05, 0.95 - slope))
            phi = Affine(slope, offset)
            g_field = AffinePushforwardField(LOGISTIC, slope, offset)
        else:
            Y = ScaledField(BumpField(0.05, 0.2, 0.8, 0.95),
                            float(rng.uniform(0.01, 0.05)))
            phi = FlowMap(Y, 1.0)
            g_field = PushforwardField(LOGISTIC, phi, zeros=(0.0, 1.0))
        g = Compose(phi, f, phi.inverse())
        witness = synthesize_conjugacy(f, g, phi, base_x=0.1, r=2)
        c0 = max(abs(witness.phi(float(v)) - phi(float(v))) for v in grid)
        assert c0 < 1e-7
        s1 = sigma_offset(LOGISTIC, g_field, phi, phi, 0.2, 0.8)
        s2 = sigma_offset(LOGISTIC, g_field, phi, phi, 0.35, 0.65)
        assert abs(s1 - s2) < 1e-7
    assert time.time() - start < 60.0


def test_criterion_4_flattening():
    start = time.time()
    out = flatten_field(QUARTIC, eta=0.1, r=2)
    assert out.norm_Y < 0.1
    lam = out.lam
    for z in (0.0, 1.0):
        h = Homothety(z, lam)
        x = z + (1.0 if z == 0.0 else -1.0) / (16 * lam)
        got = out.phi.eval_jet(x, 2)
        want = h.eval_jet(x, 2)
        assert all(a == b for a, b in zip(got.coeffs, want.coeffs))
    assert out.transit_match_residual < 1e-8
    assert time.time() - start < 120.0


def interior_parabolic_field(amp=1.2e-6):
    par = ProductField(PolynomialField([0.25, -1.0, 1.0], zeros=(0.5,)),
                       ScaledField(BumpField(0.35, 0.45, 0.55, 0.65), 5.0))
    S = SumField(ScaledField(BumpField(0.0, 0.15, 0.35, 0.45), amp),
                 ScaledField(BumpField(0.55, 0.65, 0.85, 1.0), amp),
                 par)
    return PiecewiseField([0.5], [S, S], zeros=(0.0, 0.5, 1.0))


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


def test_criterion_5_almost_reducibility():
    start = time.time()
    # finite-order endpoints: homothety flattening
    trace1 = reduce_interval(ReductionInput(QUARTIC), 0.05, 2)
    assert trace1.final_distance() < 0.05
    # the reported distance finds the peak of |D^2 g| near x = 0.15
    fd = _fd_distance(trace1.steps[-1].conjugate)
    assert abs(trace1.final_distance() - fd) <= 0.02 * fd
    for tag in trace1.steps[-1].boundary_tags:
        assert tag.tag == "homothety"
        assert tag.jet_residual < 1e-6
    # flat endpoints with an interior parabolic zero: integer-offset driver
    trace2 = reduce_interval(ReductionInput(interior_parabolic_field(),
                                            True, True), 0.2, 2)
    step = trace2.steps[-1]
    assert step.dr_to_isometry < 0.05
    for tag in step.boundary_tags:
        assert tag.tag == "power_of_f"
        assert tag.jet_residual < 1e-6
    assert abs(step.sigma - round(step.sigma)) < 1e-6
    assert abs(step.tau - round(step.tau)) < 1e-6
    assert time.time() - start < 600.0


def test_criterion_6_mather_invariant():
    start = time.time()
    trivial = mather_map(LOGISTIC, LOGISTIC, 0.5, 0.4)
    assert trivial.max_deviation < 1e-8
    from diffeo1d.fields import Interval
    phi = Displacement(ScaledField(
        BumpField(-0.9, -0.7, -0.4, -0.2, domain=Interval(-12.0, 12.0)),
        0.08))
    out = fragmat_compose_check(LOGISTIC, 0.5, [Perturbation(phi, 0.0)])
    assert out["sample"].max_deviation > 0.01
    assert out["max_mismatch"] < 1e-6
    assert time.time() - start < 120.0


def test_criterion_7_distortion_certificates():
    start = time.time()
    pairs = []
    for n in range(5):
        amp = 2e-3 / (n + 1)
        g = FlowMap(ScaledField(BumpField(0.40, 0.45, 0.50, 0.55), amp), 1.0)
        gp = FlowMap(ScaledField(BumpField(0.45, 0.50, 0.55, 0.60), amp), 1.0)
        pairs.append((g, gp))
    cert = build_interval_certificate(pairs, (0.4, 0.6), (0.0, 1.0), 0.15)
    for n, (word, check) in enumerate(zip(cert.words, cert.verification)):
        assert word["claimed_length"] == 14 * n + 14
        assert len(word["letters"]) == word["claimed_length"]
        assert check["residual_c0"] < 1e-6
    # flow-root decompositions stay within the fragmentation constants
    assert (C0_LINE, C0_CIRCLE) == (14, 16)
    X3 = PolynomialField([0.0, 0.0, 1.0, -1.0], zeros=(0.0, 1.0))
    line = flow_root_decomposition(
        Compose(FlowMap(QUARTIC, 1.0), FlowMap(X3, 1.0)), eta=0.05)
    assert line.C == 14 and len(line.generating_set) <= 14
    circle = flow_root_decomposition(
        FlowMap(PeriodicField(ScaledField(BumpField(0.1, 0.3, 0.6, 0.9),
                                          0.05)), 1.0), eta=0.05)
    assert circle.C == 16 and len(circle.generating_set) <= 16
    assert time.time() - start < 120.0


def test_criterion_8_length_functionals():
    start = time.time()
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        f = small_displacement(rng)
        g = small_displacement(rng)
        lhs = var_log_derivative(Compose(f, g))
        assert lhs <= var_log_derivative(f) + var_log_derivative(g) + 1e-9
    for a in (1.5, 2.0, 3.0):
        est = asymptotic_variation(unit_moebius(a), 4)["estimate"]
        assert abs(est - 2 * math.log(a)) < 1e-6
    assert liouville_length(unit_moebius(2.0)) < 1e-8
    for _ in range(20):
        f = small_displacement(rng)
        g = small_displacement(rng)
        lhs = liouville_length(Compose(f, g))
        assert lhs <= liouville_length(f) + liouville_length(g) + 1e-6
    assert time.time() - start < 180.0


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    from diffeo1d import cli

    objects = {
        "logistic": ("field", LOGISTIC),
        "bump": ("field", ScaledField(BumpField(0.1, 0.3, 0.6, 0.9), 0.05)),
        "f": ("diffeo", FlowMap(LOGISTIC, 1.0)),
        "moebius": ("diffeo", Moebius(2.0, 0.0, 1.0, 1.0)),
        "two_flows": ("diffeo", Compose(
            FlowMap(QUARTIC, 1.0),
            FlowMap(PolynomialField([0.0, 0.0, 1.0, -1.0],
                                    zeros=(0.0, 1.0)), 1.0))),
    }
    tasks = [
        {"command": "eval", "name": "eval_f", "object": "f",
         "grid": {"lo": 0.05, "hi": 0.95, "n": 33}},
        {"command": "var", "name": "var_moebius", "object": "moebius"},
        {"command": "asymvar", "name": "asymvar_moebius",
         "object": "moebius", "n_max": 3},
        {"command": "liouville", "name": "liou_moebius", "object": "moebius",
         "x": 0.2, "y": 0.7},
        {"command": "mather", "name": "mather_log", "left_field": "logistic",
         "right_field": "logistic", "p": 0.5, "q": 0.4},
        {"command": "curvature", "name": "curv", "field_x": "logistic",
         "field_y": "bump", "x": 0.4},
        {"command": "report", "name": "dist_report", "object": "two_flows",
         "eta": 0.05, "n_list": [1, 2, 4]},
    ]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "version": 1,
        "objects": {k: {"type": t, "node": to_json(o)}
                    for k, (t, o) in objects.items()},
        "tasks": tasks,
    }))
    commands = ["eval", "var", "asymvar", "liouville", "mather", "certify",
                "report"]
    outs = []
    for run in (1, 2):
        out = tmp_path / f"out{run}"
        for cmd in commands:
            assert cli.main([cmd, "--scene", str(scene),
                             "--out", str(out)]) == 0
        outs.append(out)
    first = sorted(p.name for p in outs[0].glob("*.json"))
    second = sorted(p.name for p in outs[1].glob("*.json"))
    assert first == second and len(first) == len(tasks)
    for name in first:
        assert ((outs[0] / name).read_bytes()
                == (outs[1] / name).read_bytes())
    assert time.time() - start < 60.0
