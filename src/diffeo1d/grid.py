"""Evaluation grids and sampled jets.

A :class:`GridSpec` fixes the nodes a metric is reported on, so that every
number in a report is reproducible.  A :class:`GridFunction` is a sampled
expression: one jet per node, exportable as CSV.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from .serialize import SerializeError, dumps


@dataclass(frozen=True)
class GridSpec:
    lo: float = 0.0
    hi: float = 1.0
    n: int = 512
    breakpoints: tuple = ()

    def nodes(self) -> np.ndarray:
        xs = np.linspace(self.lo, self.hi, self.n + 1)
        if self.breakpoints:
            xs = np.unique(np.concatenate([xs, np.asarray(self.breakpoints)]))
            xs = xs[(xs >= self.lo) & (xs <= self.hi)]
        return xs

    def refined(self) -> "GridSpec":
        return GridSpec(self.lo, self.hi, 2 * self.n, self.breakpoints)

    def describe(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "n": self.n,
                "breakpoints": list(self.breakpoints)}


def expression_breakpoints(obj) -> tuple:
    """Collect breakpoints declared anywhere in an expression tree."""
    out = set()
    stack = [obj]
    while stack:
        node = stack.pop()
        out.update(getattr(node, "breakpoints", ()))
        stack.extend(node.children() if hasattr(node, "children") else ())
    return tuple(sorted(out))


@dataclass
class GridFunction:
    nodes: np.ndarray
    jets: list
    source: str = ""

    def __post_init__(self):
        if len(self.nodes) < 2 or np.any(np.diff(self.nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing, >= 2 of them")
        if len(self.jets) != len(self.nodes):
            raise ValueError("one jet per node required")

    @staticmethod
    def sample(f, spec: GridSpec, r: int, source: str = "") -> "GridFunction":
        xs = spec.nodes()
        jets = [f.eval_jet(float(x), r) for x in xs]
        if not source:
            try:
                key = dumps(f)
            except SerializeError:
                key = type(f).__name__
            source = hashlib.sha256(
                repr((key, spec.describe(), r)).encode()
            ).hexdigest()[:16]
        return GridFunction(xs, jets, source)

    @property
    def order(self) -> int:
        return self.jets[0].order

    def values(self) -> np.ndarray:
        return np.array([j.value for j in self.jets])

    def to_csv(self, path) -> None:
        r = self.order
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["node", "value"] + [f"D{k}" for k in range(1, r + 1)])
            for x, j in zip(self.nodes, self.jets):
                w.writerow([repr(float(x))] + [repr(c) for c in j.coeffs])
