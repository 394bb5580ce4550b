"""Command-line surface.

Scene files drive everything: a scene is JSON with a version integer, a
dictionary of named field/diffeo expressions (the serialization schema of
:mod:`diffeo1d.serialize`), and an ordered task list.  Each subcommand runs
the scene tasks matching its command; quick one-off tasks can instead be
assembled from flags without a task list.

Exit codes: 0 all tasks succeeded, 2 schema or reference error, 3 numeric
failure (message carries the task index), 4 an invariant check failed.

Reports are JSON with sorted keys and embed the grid/tolerance
configuration used, so identical scenes produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .conjugacy import ConjugacyError, synthesize_conjugacy
from .diffeos import Diffeo1D, FlowError
from .distortion import (
    CertificateError,
    build_interval_certificate,
    commutator_curvature,
    distortion_report,
)
from .fields import VectorField1D
from .grid import GridFunction, GridSpec
from .jets import JetError
from .mather import default_t_nodes, is_trivial, mather_map
from .metrics import (
    asymptotic_variation,
    liouville_cocycle,
    liouville_length,
    var_log_derivative,
)
from .reduce import (
    ReduceError,
    ReductionInput,
    flatten_field,
    reduce_interval,
)
from .serialize import SerializeError, _build

SCENE_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

_NUMERIC_ERRORS = (FlowError, JetError, ReduceError, ConjugacyError,
                   CertificateError, ArithmeticError)


class SchemaError(ValueError):
    pass


class InvariantError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------


def load_scene(path) -> dict:
    try:
        with open(path) as fh:
            scene = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read scene: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"scene is not valid JSON: {e}")
    if not isinstance(scene, dict):
        raise SchemaError("scene must be a JSON object")
    if scene.get("version") != SCENE_VERSION:
        raise SchemaError(
            f"scene version {scene.get('version')!r}; this build reads "
            f"version {SCENE_VERSION}")
    objects = scene.get("objects", {})
    if not isinstance(objects, dict):
        raise SchemaError("scene objects must be a name -> node mapping")
    built = {}
    for name, entry in objects.items():
        if not isinstance(entry, dict) or "type" not in entry or "node" not in entry:
            raise SchemaError(f"object {name!r} needs 'type' and 'node'")
        if entry["type"] not in ("field", "diffeo"):
            raise SchemaError(f"object {name!r} has unknown type "
                              f"{entry['type']!r}")
        try:
            built[name] = _build(entry["node"], entry["type"])
        except (SerializeError, KeyError, IndexError, TypeError) as e:
            raise SchemaError(f"object {name!r} does not build: {e}")
    tasks = scene.get("tasks", [])
    if not isinstance(tasks, list):
        raise SchemaError("scene tasks must be a list")
    for i, t in enumerate(tasks):
        if not isinstance(t, dict) or "command" not in t:
            raise SchemaError(f"task {i} needs a 'command'")
    return {"objects": built, "tasks": tasks}


def _resolve(objects, name, want=None):
    if name not in objects:
        raise SchemaError(f"undefined object {name!r}")
    obj = objects[name]
    if want is VectorField1D and not isinstance(obj, VectorField1D):
        raise SchemaError(f"object {name!r} is not a vector field")
    if want is Diffeo1D and not isinstance(obj, Diffeo1D):
        raise SchemaError(f"object {name!r} is not a diffeomorphism")
    return obj


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


def _task_eval(objects, task, flags):
    obj = _resolve(objects, task["object"])
    r = int(task.get("order", flags.order))
    grid = task.get("grid", {})
    spec = GridSpec(lo=float(grid.get("lo", 0.0)), hi=float(grid.get("hi", 1.0)),
                    n=int(grid.get("n", 64)))
    gf = GridFunction.sample(obj, spec, r, source=task["object"])
    report = {
        "object": task["object"],
        "order": r,
        "grid": spec.describe(),
        "values": [float(v) for v in gf.values()],
    }
    return report, gf


def _task_var(objects, task, flags):
    f = _resolve(objects, task["object"], Diffeo1D)
    v = var_log_derivative(f)
    return {"object": task["object"], "var_log_derivative": v}, None


def _task_asymvar(objects, task, flags):
    f = _resolve(objects, task["object"], Diffeo1D)
    out = asymptotic_variation(f, int(task.get("n_max", 8)))
    out["object"] = task["object"]
    return out, None


def _task_liouville(objects, task, flags):
    f = _resolve(objects, task["object"], Diffeo1D)
    report = {"object": task["object"],
              "liouville_length": liouville_length(f)}
    if "x" in task and "y" in task:
        report["cocycle"] = liouville_cocycle(f, float(task["x"]),
                                              float(task["y"]))
    return report, None


def _task_mather(objects, task, flags):
    X = _resolve(objects, task["left_field"], VectorField1D)
    Y = _resolve(objects, task["right_field"], VectorField1D)
    sample = mather_map(X, Y, float(task["p"]), float(task["q"]),
                        default_t_nodes(int(task.get("n_nodes", 64))))
    tol = float(task.get("tol", flags.tol))
    trivial, dev = is_trivial(sample, tol)
    report = sample.to_json()
    report.update({"left_field": task["left_field"],
                   "right_field": task["right_field"],
                   "trivial": bool(trivial), "tol": tol})
    return report, sample


def _task_conjugate(objects, task, flags):
    f = _resolve(objects, task["f"], Diffeo1D)
    g = _resolve(objects, task["g"], Diffeo1D)
    phi0 = _resolve(objects, task["germ"], Diffeo1D)
    witness = synthesize_conjugacy(f, g, phi0, float(task["base_x"]),
                                   r=int(task.get("order", flags.order)))
    report = witness.to_json()
    report.update({"f": task["f"], "g": task["g"], "germ": task["germ"]})
    return report, None


def _task_flatten(objects, task, flags):
    X = _resolve(objects, task["field"], VectorField1D)
    res = flatten_field(X, float(task["eta"]),
                        int(task.get("order", flags.order)))
    report = res.to_json()
    report["field"] = task["field"]
    return report, None


def _task_reduce(objects, task, flags):
    X = _resolve(objects, task["field"], VectorField1D)
    data = ReductionInput(X, task.get("iti_left"), task.get("iti_right"))
    trace = reduce_interval(data, float(task["epsilon"]),
                            int(task.get("order", flags.order)))
    try:
        trace.validate()
    except ReduceError as e:
        raise InvariantError(str(e))
    report = trace.to_json()
    report["field"] = task["field"]
    return report, None


def _task_certify(objects, task, flags):
    pairs = [( _resolve(objects, a, Diffeo1D), _resolve(objects, b, Diffeo1D))
             for a, b in task["pairs"]]
    cert = build_interval_certificate(
        pairs, tuple(task["J"]), tuple(task["I"]),
        float(task["contraction_target"]),
        tol=float(task.get("tol", flags.tol)))
    return cert.to_json(), None


def _task_report(objects, task, flags):
    f = _resolve(objects, task["object"], Diffeo1D)
    rep = distortion_report(f, [int(n) for n in task.get("n_list", [1, 2, 4])],
                            float(task.get("eta", 0.05)))
    rep["base"] = rep["base"].to_json()
    rep["object"] = task["object"]
    return rep, None


def _task_curvature(objects, task, flags):
    X = _resolve(objects, task["field_x"], VectorField1D)
    Y = _resolve(objects, task["field_y"], VectorField1D)
    out = commutator_curvature(X, Y, float(task["x"]),
                               h=float(task.get("h", 1e-3)))
    out.update({"field_x": task["field_x"], "field_y": task["field_y"]})
    return out, None


_TASKS = {
    "eval": _task_eval,
    "var": _task_var,
    "asymvar": _task_asymvar,
    "liouville": _task_liouville,
    "mather": _task_mather,
    "conjugate": _task_conjugate,
    "flatten": _task_flatten,
    "reduce": _task_reduce,
    "certify": _task_certify,
    "report": _task_report,
    "curvature": _task_curvature,
}

_ALIASES = {"var_log_derivative": "var", "reduce_interval": "reduce"}

#: extra task types runnable under a subcommand
_EXTRA_TASKS = {"certify": {"curvature"}}


def _canon(command: str) -> str:
    return _ALIASES.get(command, command)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.ndarray):
        return [float(v) for v in o]
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def _write_report(out_dir: Path, name: str, report: dict, flags) -> None:
    report = dict(report)
    report["config"] = {"order": flags.order, "tol": flags.tol}
    text = json.dumps(report, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    (out_dir / f"{name}.json").write_text(text)


def _write_svg(path: Path, xs, ys) -> None:
    """Minimal deterministic polyline plot."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    w, h, m = 640, 400, 40
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (w - 2 * m) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (h - 2 * m) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(
        f"{m + (x - x0) * sx:.2f},{h - m - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys))
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="black"/>'
        "</svg>\n")


def run_tasks(scene: dict, tasks: list, flags, out_dir: Path) -> None:
    objects = scene["objects"]
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, task in enumerate(tasks):
        cmd = _canon(task["command"])
        if cmd not in _TASKS:
            raise SchemaError(f"task {i}: unknown command {task['command']!r}")
        name = task.get("name", f"{cmd}_{i}")
        try:
            report, extra = _TASKS[cmd](objects, task, flags)
        except _NUMERIC_ERRORS as e:
            raise FlowError(f"task {i} ({cmd}): {e}")
        _write_report(out_dir, name, report, flags)
        if isinstance(extra, GridFunction):
            extra.to_csv(out_dir / f"{name}.csv")
            if flags.svg:
                _write_svg(out_dir / f"{name}.svg", extra.nodes,
                           extra.values())
        elif extra is not None and hasattr(extra, "to_csv"):
            extra.to_csv(out_dir / f"{name}.csv")
            if flags.svg and hasattr(extra, "t_nodes"):
                _write_svg(out_dir / f"{name}.svg", extra.t_nodes,
                           extra.values)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: flag name -> scene task key, per subcommand, for piecemeal use
_FLAG_KEYS = {
    "eval": ["object"],
    "var": ["object"],
    "asymvar": ["object", "n_max"],
    "liouville": ["object", "x", "y"],
    "mather": ["left_field", "right_field", "p", "q", "n_nodes"],
    "conjugate": ["f", "g", "germ", "base_x"],
    "flatten": ["field", "eta"],
    "reduce": ["field", "epsilon"],
    "certify": [],
    "report": ["object", "eta"],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffeo1d",
        description="dynamics of one-dimensional diffeomorphisms: reports "
                    "from scene files")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, keys in _FLAG_KEYS.items():
        p = sub.add_parser(cmd)
        p.add_argument("--scene", required=True, help="scene JSON path")
        p.add_argument("--out", default="out", help="report directory")
        p.add_argument("--order", type=int, default=2)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--svg", action="store_true",
                       help="also emit SVG plots where a task samples a curve")
        for key in keys:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scene = load_scene(args.scene)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA

    supplied = {k: v for k in _FLAG_KEYS[args.command]
                if (v := getattr(args, k, None)) is not None}
    if supplied:
        tasks = [dict(supplied, command=args.command)]
    else:
        allowed = {args.command} | _EXTRA_TASKS.get(args.command, set())
        tasks = [t for t in scene["tasks"] if _canon(t["command"]) in allowed]
    try:
        if not tasks:
            raise SchemaError(f"no {args.command!r} tasks in scene and no "
                              "task flags given")
        run_tasks(scene, tasks, args, Path(args.out))
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvariantError as e:
        print(f"invariant check failed: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except _NUMERIC_ERRORS as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
