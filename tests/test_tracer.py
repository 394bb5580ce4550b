"""The benchmark's tracer (bench/tracer.py) wraps diffeo1d functions by
attribute name.  A rename under src/ would otherwise break only a traced
benchmark run; here it fails the suite."""

import importlib.util
from pathlib import Path

import scipy.integrate

from diffeo1d import conjugacy, diffeos, distortion, metrics, reduce

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    bindings = [(reduce, "calibrate_flow_eta"), (reduce, "flatten_field"),
                (reduce, "interpolate_ITI"), (reduce, "quad"),
                (conjugacy, "conjugacy_residuals"),
                (conjugacy, "synthesize_conjugacy"), (diffeos, "flow"),
                (diffeos, "transit_time"), (metrics, "cr_distance"),
                (metrics, "var_log_derivative"),
                (metrics, "liouville_length"),
                (distortion, "word_to_diffeo"),
                (distortion, "build_interval_certificate")]
    originals = [getattr(mod, name) for mod, name in bindings]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for (mod, name), fn in zip(bindings, originals):
            assert getattr(mod, name) is not fn, name
    finally:
        tracer.uninstall()
    for (mod, name), fn in zip(bindings, originals):
        assert getattr(mod, name) is fn, name
    assert reduce.quad is scipy.integrate.quad
