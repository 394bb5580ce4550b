"""Scene loading, task dispatch, exit codes and report determinism."""

import json
import subprocess
import sys

import pytest

from diffeo1d import cli
from diffeo1d.diffeos import FlowMap, Identity, Moebius
from diffeo1d.fields import PolynomialField
from diffeo1d.reduce import ReduceError, ReductionStep, ReductionTrace
from diffeo1d.serialize import to_json

LOGISTIC = PolynomialField([0.0, 1.0, -1.0], zeros=(0.0, 1.0))
QUARTIC = PolynomialField([0.0, 0.0, 1.0, -2.0, 1.0], zeros=(0.0, 1.0))


def write_scene(path, objects, tasks):
    scene = {
        "version": 1,
        "objects": {name: {"type": kind, "node": to_json(obj)}
                    for name, (kind, obj) in objects.items()},
        "tasks": tasks,
    }
    path.write_text(json.dumps(scene))
    return path


@pytest.fixture
def basic_scene(tmp_path):
    return write_scene(
        tmp_path / "scene.json",
        {"id": ("diffeo", Identity()),
         "f": ("diffeo", FlowMap(LOGISTIC, 1.0)),
         "X": ("field", LOGISTIC)},
        [{"command": "var", "name": "v", "object": "id"},
         {"command": "eval", "name": "e", "object": "f",
          "grid": {"lo": 0.1, "hi": 0.9, "n": 9}}],
    )


def test_var_task_runs(basic_scene, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["var", "--scene", str(basic_scene),
                     "--out", str(out)]) == 0
    report = json.loads((out / "v.json").read_text())
    assert report["var_log_derivative"] == 0.0
    assert report["config"] == {"order": 2, "tol": 1e-6}


def test_eval_task_writes_csv_and_svg(basic_scene, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["eval", "--scene", str(basic_scene),
                     "--out", str(out), "--svg"]) == 0
    assert (out / "e.json").exists()
    assert (out / "e.csv").exists()
    svg = (out / "e.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_flag_assembled_task(basic_scene, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["var", "--scene", str(basic_scene),
                     "--out", str(out), "--object", "f"]) == 0
    report = json.loads((out / "var_0.json").read_text())
    assert report["var_log_derivative"] > 0.0


def test_var_log_derivative_alias_runs_under_var(tmp_path):
    scene = write_scene(
        tmp_path / "s.json", {"m": ("diffeo", Moebius(2.0, 0.0, 1.0, 1.0))},
        [{"command": "var_log_derivative", "name": "alias", "object": "m"},
         {"command": "var", "name": "plain", "object": "m"}])
    out = tmp_path / "out"
    assert cli.main(["var", "--scene", str(scene), "--out", str(out)]) == 0
    assert ((out / "alias.json").read_bytes()
            == (out / "plain.json").read_bytes())


def test_undefined_object_is_schema_error(tmp_path, capsys):
    scene = write_scene(tmp_path / "s.json", {},
                        [{"command": "var", "object": "nope"}])
    assert cli.main(["var", "--scene", str(scene)]) == cli.EXIT_SCHEMA
    assert "nope" in capsys.readouterr().err


def test_bad_version_rejected(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": 99, "objects": {}, "tasks": []}))
    assert cli.main(["var", "--scene", str(p)]) == cli.EXIT_SCHEMA


def test_no_matching_tasks(basic_scene):
    assert cli.main(["flatten", "--scene", str(basic_scene)]) == cli.EXIT_SCHEMA


def test_numeric_failure_exit_code(tmp_path):
    # mixed boundary flags make the reduction refuse; that is a numeric
    # failure of the task, not a schema problem
    scene = write_scene(
        tmp_path / "s.json", {"X": ("field", QUARTIC)},
        [{"command": "reduce", "object": "X", "field": "X",
          "epsilon": 1e-3, "iti_left": True, "iti_right": False}])
    assert cli.main(["reduce", "--scene", str(scene),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERIC


def test_invariant_failure_exit_code(tmp_path, monkeypatch):
    scene = write_scene(
        tmp_path / "s.json", {"X": ("field", QUARTIC)},
        [{"command": "reduce", "object": "X", "field": "X",
          "epsilon": 1e-3}])

    def bad_trace(data, epsilon, r):
        step = ReductionStep(conjugator=Identity(), conjugate=Identity(),
                             dr_to_isometry=1.0, r=r, boundary_tags=[])
        trace = ReductionTrace([step], epsilon)
        # skip the driver's own validation, as if a bug slipped through
        return trace

    monkeypatch.setattr(cli, "reduce_interval", bad_trace)
    assert cli.main(["reduce", "--scene", str(scene),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_INVARIANT


def test_reports_are_deterministic(basic_scene, tmp_path):
    outs = []
    for d in ("out1", "out2"):
        out = tmp_path / d
        assert cli.main(["eval", "--scene", str(basic_scene),
                         "--out", str(out), "--svg"]) == 0
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    assert files1 == files2
    for name in files1:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_console_script_entry(basic_scene, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "diffeo1d.cli", "var",
         "--scene", str(basic_scene), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
