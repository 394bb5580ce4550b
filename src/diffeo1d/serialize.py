"""JSON serialization of expression trees.

Every serializable node becomes ``{"kind": ..., "params": {...},
"children": [...]}``.  Output is deterministic: keys are sorted and floats
use ``repr``-faithful JSON encoding, so two dumps of the same tree are
byte-identical.

The kind "piecewise" exists for both fields and diffeomorphisms; which one
is meant follows from context (a flow's child is a field, a composition's
children are diffeomorphisms), so deserialization is driven by the two
entry points :func:`field_from_json` and :func:`diffeo_from_json`.

Derived nodes whose state is not captured by ``params``/``children`` (orbit
and transit conjugators, general pushforwards) are not serializable and
raise :class:`SerializeError`.
"""

from __future__ import annotations

import json

from . import diffeos as D
from . import fields as F
from .fields import Circle, Interval

_DEFAULT_DOMAIN = Interval()


class SerializeError(ValueError):
    pass


def _domain_to_json(domain):
    if domain.is_circle:
        return {"type": "circle"}
    return {"type": "interval", "lo": domain.lo, "hi": domain.hi}


def _domain_from_json(d):
    if d is None:
        return _DEFAULT_DOMAIN
    if d["type"] == "circle":
        return Circle()
    return Interval(d["lo"], d["hi"])


def to_json(obj) -> dict:
    """Recursive {kind, params, children} encoding of a field or diffeo."""
    kind = obj.kind
    is_field = isinstance(obj, F.VectorField1D)
    known = _FIELD_KINDS if is_field else _DIFFEO_KINDS
    if kind not in known:
        raise SerializeError(f"{type(obj).__name__} does not serialize")
    node = {
        "kind": kind,
        "params": obj.params(),
        "children": [to_json(c) for c in obj.children()],
    }
    domain = obj.domain
    if not (isinstance(domain, Interval) and domain == _DEFAULT_DOMAIN):
        node["params"]["domain"] = _domain_to_json(domain)
    return node


def dumps(obj) -> str:
    return json.dumps(to_json(obj), sort_keys=True, separators=(",", ":"))


# --- reconstruction ---------------------------------------------------------
#
# Builders receive (params-without-domain, built children, domain).  Nodes
# whose constructor does not take a domain ignore the argument; their domain
# is either fixed by the class or inherited from the children.

_FIELD_BUILDERS = {
    "constant": lambda p, ch, dom: F.ConstantField(p["value"], domain=dom),
    "polynomial": lambda p, ch, dom: F.PolynomialField(
        p["coeffs"], domain=dom, zeros=p["zeros"]),
    "step": lambda p, ch, dom: F.StepField(p["lo"], p["hi"], domain=dom),
    "bump": lambda p, ch, dom: F.BumpField(
        p["lo"], p["plateau_lo"], p["plateau_hi"], p["hi"], domain=dom),
    "flat_germ": lambda p, ch, dom: F.FlatGermField(
        p["point"], p["scale"], p["side"], domain=dom),
    "sum": lambda p, ch, dom: F.SumField(*ch),
    "product": lambda p, ch, dom: F.ProductField(*ch),
    "scale": lambda p, ch, dom: F.ScaledField(ch[0], p["factor"]),
    "shift": lambda p, ch, dom: F.ShiftedField(ch[0], p["delta"]),
    "affine_pushforward": lambda p, ch, dom: F.AffinePushforwardField(
        ch[0], p["slope"], p["offset"]),
    "piecewise": lambda p, ch, dom: F.PiecewiseField(
        p["breakpoints"], ch, domain=dom, zeros=p["zeros"]),
    "periodic": lambda p, ch, dom: F.PeriodicField(ch[0]),
    "reversed": lambda p, ch, dom: F.ReversedField(ch[0]),
}

_DIFFEO_BUILDERS = {
    "identity": lambda p, ch, dom: D.Identity(domain=dom),
    "affine": lambda p, ch, dom: D.Affine(p["slope"], p["offset"], domain=dom),
    "homothety": lambda p, ch, dom: D.Homothety(
        p["center"], p["ratio"], domain=dom),
    "moebius": lambda p, ch, dom: D.Moebius(
        p["a"], p["b"], p["c"], p["d"], domain=dom),
    "rotation": lambda p, ch, dom: D.Rotation(p["angle"]),
    "compose": lambda p, ch, dom: D.Compose(*ch),
    "inverse": lambda p, ch, dom: D.InverseMap(ch[0]),
    "circle_from_interval": lambda p, ch, dom: D.CircleFromInterval(ch[0]),
    "piecewise": lambda p, ch, dom: D.PiecewiseGlue(
        p["breakpoints"], ch, domain=dom, gluing_order=p["gluing_order"]),
}

# flow, displacement, power carry cross-type or extra arguments and are
# rebuilt by hand in _build
_FIELD_KINDS = frozenset(_FIELD_BUILDERS)
_DIFFEO_KINDS = frozenset(_DIFFEO_BUILDERS) | {"flow", "displacement", "power"}


def _build(node, expect: str):
    if not isinstance(node, dict) or "kind" not in node:
        raise SerializeError(f"not a node: {node!r}")
    kind = node["kind"]
    params = dict(node.get("params", {}))
    dom = _domain_from_json(params.pop("domain", None))
    raw_children = node.get("children", [])

    if expect == "diffeo":
        if kind == "flow":
            X = _build(raw_children[0], "field")
            return D.FlowMap(X, params["t"], params.get("tol", D.FLOW_TOL))
        if kind == "displacement":
            d = _build(raw_children[0], "field")
            return D.Displacement(d)
        if kind == "power":
            return D.Power(_build(raw_children[0], "diffeo"), params["n"])
        table = _DIFFEO_BUILDERS
    else:
        table = _FIELD_BUILDERS
    if kind not in table:
        raise SerializeError(f"unknown {expect} kind {kind!r}")
    children = [_build(c, expect) for c in raw_children]
    return table[kind](params, children, dom)


def field_from_json(node) -> F.VectorField1D:
    return _build(node, "field")


def diffeo_from_json(node) -> D.Diffeo1D:
    return _build(node, "diffeo")


def loads(s: str, expect: str = "diffeo"):
    node = json.loads(s)
    if expect not in ("diffeo", "field"):
        raise SerializeError(f"expect must be 'diffeo' or 'field', not {expect!r}")
    return _build(node, expect)
