"""QPU models: coupling topology plus point-in-time calibration data.

Each qubit carries a readout error, each coupling edge a symmetric
two-qubit gate error.  Calibration is static for the lifetime of a model.

Calibration file schema::

    {"name": str, "num_qubits": int, "readout_error": [float; n],
     "edges": [{"q": [u, v], "gate_error": float}, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import _graphs
from ._fields import load_object, number
from .errors import SchemaError


@dataclass(frozen=True)
class QpuModel:
    """Coupling graph annotated with readout and two-qubit gate errors."""

    name: str
    num_qubits: int
    readout_error: tuple[float, ...]
    gate_error: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        if len(self.readout_error) != self.num_qubits:
            raise SchemaError(
                f"readout_error has {len(self.readout_error)} entries for "
                f"{self.num_qubits} qubits"
            )
        clean_r = tuple(float(e) for e in self.readout_error)
        for q, e in enumerate(clean_r):
            if not (0.0 <= e <= 1.0) or not math.isfinite(e):
                raise SchemaError(f"readout_error[{q}] = {e} outside [0, 1]")
        clean_g: dict[tuple[int, int], float] = {}
        for (u, v), e in self.gate_error.items():
            if u == v:
                raise SchemaError(f"self-loop edge ({u},{v})")
            edge = _graphs.norm_edge(int(u), int(v))
            if not (0 <= edge[0] < self.num_qubits and 0 <= edge[1] < self.num_qubits):
                raise SchemaError(f"edge {edge} references a missing qubit")
            if edge in clean_g:
                raise SchemaError(f"duplicate edge {edge}")
            e = float(e)
            if not (0.0 <= e <= 1.0) or not math.isfinite(e):
                raise SchemaError(f"gate_error[{edge}] = {e} outside [0, 1]")
            clean_g[edge] = e
        object.__setattr__(self, "readout_error", clean_r)
        object.__setattr__(self, "gate_error", dict(sorted(clean_g.items())))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.gate_error)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "readout_error": list(self.readout_error),
            "edges": [
                {"q": [u, v], "gate_error": e} for (u, v), e in self.gate_error.items()
            ],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def load_calibration(text: str) -> QpuModel:
    """Parse and validate a calibration document."""
    doc = load_object(
        text, "calibration file", ("name", "num_qubits", "readout_error", "edges"), SchemaError
    )
    if not isinstance(doc["name"], str):
        raise SchemaError("field 'name' must be a string")
    n = number(int, doc["num_qubits"], "num_qubits", SchemaError)
    readout = doc["readout_error"]
    if not isinstance(readout, list):
        raise SchemaError("field 'readout_error' must be a list")
    gate_error: dict[tuple[int, int], float] = {}
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise SchemaError("field 'edges' must be a list")
    for i, entry in enumerate(edges):
        if not isinstance(entry, dict) or "q" not in entry or "gate_error" not in entry:
            raise SchemaError(f"edges[{i}] needs fields 'q' and 'gate_error'")
        pair = entry["q"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"edges[{i}].q must be a two-element list")
        u, v = (number(int, q, f"edges[{i}].q", SchemaError) for q in pair)
        edge = _graphs.norm_edge(u, v)
        if edge in gate_error:
            raise SchemaError(f"edges[{i}] duplicates edge {edge}")
        gate_error[edge] = number(float, entry["gate_error"], f"edges[{i}].gate_error", SchemaError)
    return QpuModel(
        name=doc["name"],
        num_qubits=n,
        readout_error=tuple(
            number(float, e, f"readout_error[{q}]", SchemaError) for q, e in enumerate(readout)
        ),
        gate_error=gate_error,
    )


@dataclass(frozen=True)
class Fleet:
    """Ordered collection of QPU models with optional prior H-Scores."""

    qpus: tuple[QpuModel, ...]
    priors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [q.name for q in self.qpus]
        if len(set(names)) != len(names):
            raise SchemaError(f"fleet has duplicate QPU names: {names}")
        for name in self.priors:
            if name not in names:
                raise SchemaError(f"prior H-Score for unknown QPU '{name}'")

    def __len__(self) -> int:
        return len(self.qpus)

    def __iter__(self):
        return iter(self.qpus)

    def get(self, name: str) -> QpuModel:
        for q in self.qpus:
            if q.name == name:
                return q
        raise KeyError(name)

    def prior(self, name: str) -> float:
        return float(self.priors.get(name, 0.0))
