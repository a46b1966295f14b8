"""Regression-corpus files: a shrunk failing graph plus its divergence.

Graphs go through the one constraint-graph codec of :mod:`repro.io`
(re-exported here): the rebuilt graph has the same vertex and edge
insertion order, delays, weights and edge kinds as the original.
Determinism matters because every analysis iterates vertices and edges
in insertion order, so a repro that only matched up to reordering could
fail to reproduce the divergence it was shrunk for.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.graph import ConstraintGraph
from repro.io import (
    FORMAT_VERSION,
    MAX_ABS_WEIGHT,
    graph_from_dict,
    graph_to_dict,
    validate_graph_dict,
)

__all__ = ["FORMAT_VERSION", "MAX_ABS_WEIGHT", "dump_repro",
           "graph_from_dict", "graph_to_dict", "graphs_equal", "load_repro",
           "validate_graph_dict"]


def graphs_equal(a: ConstraintGraph, b: ConstraintGraph) -> bool:
    """Structural equality: same polarity, ordered vertices and edges."""
    return graph_to_dict(a) == graph_to_dict(b)


def dump_repro(path: Union[str, Path], graph: ConstraintGraph, *,
               check: str, message: str, seed: int, scenario: str) -> None:
    """Write a shrunk failing graph plus its divergence metadata."""
    payload = {
        "check": check,
        "message": message,
        "seed": seed,
        "scenario": scenario,
        "graph": graph_to_dict(graph),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_repro(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a repro file back; ``result["graph"]`` stays a dict (use
    :func:`graph_from_dict` to instantiate it)."""
    return json.loads(Path(path).read_text())
