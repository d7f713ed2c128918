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
from ._seeds import rng_from
from .errors import SchemaError

TOPOLOGY_KINDS = ("line", "ring", "heavy_hex_16", "t_shape_7", "grid")

# Heavy-hex unit layout: a 12-qubit hexagonal ring closed by two bridge
# qubits plus two spurs; 16 qubits, 18 edges, max degree 3.
_HEAVY_HEX_16_EDGES: tuple[tuple[int, int], ...] = tuple(
    [(i, (i + 1) % 12) for i in range(12)]
    + [(0, 12), (6, 12), (3, 13), (9, 13), (1, 14), (7, 15)]
)

# 7-qubit T/H-shaped layout used by small IBM-style devices.
_T_SHAPE_7_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6),
)


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

    def adjacency(self) -> dict[int, set[int]]:
        return _graphs.adjacency(range(self.num_qubits), self.edges)

    def is_connected(self) -> bool:
        return _graphs.is_connected(self.adjacency())

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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"calibration file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("calibration document must be a JSON object")
    for required in ("name", "num_qubits", "readout_error", "edges"):
        if required not in doc:
            raise SchemaError(f"calibration document missing field '{required}'")
    if not isinstance(doc["name"], str):
        raise SchemaError("field 'name' must be a string")
    n = _number(int, doc["num_qubits"], "num_qubits")
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
        u, v = (_number(int, q, f"edges[{i}].q") for q in pair)
        edge = _graphs.norm_edge(u, v)
        if edge in gate_error:
            raise SchemaError(f"edges[{i}] duplicates edge {edge}")
        gate_error[edge] = _number(float, entry["gate_error"], f"edges[{i}].gate_error")
    return QpuModel(
        name=doc["name"],
        num_qubits=n,
        readout_error=tuple(
            _number(float, e, f"readout_error[{q}]") for q, e in enumerate(readout)
        ),
        gate_error=gate_error,
    )


def _number(kind: type, value, field: str):
    """``kind(value)`` for a calibration field, or a SchemaError naming it."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise SchemaError(f"field '{field}' must be {noun}, got {value!r}") from exc


@dataclass(frozen=True)
class ErrorProfile:
    """How to populate calibration values on a synthesized topology.

    ``uniform`` assigns the same rate everywhere; ``random`` draws each
    rate from the given half-open ranges, reproducibly under ``seed``.
    """

    kind: str = "uniform"  # "uniform" | "random"
    readout: float = 0.01
    gate: float = 0.005
    readout_range: tuple[float, float] = (0.005, 0.05)
    gate_range: tuple[float, float] = (0.002, 0.02)
    seed: int = 0

    @classmethod
    def uniform(cls, readout: float, gate: float) -> "ErrorProfile":
        return cls(kind="uniform", readout=readout, gate=gate)

    @classmethod
    def random(
        cls,
        readout_range: tuple[float, float],
        gate_range: tuple[float, float],
        seed: int,
    ) -> "ErrorProfile":
        return cls(
            kind="random",
            readout_range=readout_range,
            gate_range=gate_range,
            seed=seed,
        )


def synthesize_topology(
    kind: str,
    num_qubits: int | None = None,
    profile: ErrorProfile | None = None,
    name: str | None = None,
    rows: int | None = None,
    cols: int | None = None,
) -> QpuModel:
    """Build a QPU model with a named topology family and synthetic errors.

    ``line``/``ring`` take ``num_qubits``; ``grid`` takes ``rows`` and
    ``cols``; ``heavy_hex_16`` and ``t_shape_7`` are fixed layouts.
    """
    profile = profile or ErrorProfile()
    if kind == "line":
        n = _require_size(kind, num_qubits, minimum=2)
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "ring":
        n = _require_size(kind, num_qubits, minimum=3)
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "heavy_hex_16":
        n = 16
        edges = list(_HEAVY_HEX_16_EDGES)
    elif kind == "t_shape_7":
        n = 7
        edges = list(_T_SHAPE_7_EDGES)
    elif kind == "grid":
        if not rows or not cols or rows < 1 or cols < 1:
            raise SchemaError("grid topology needs positive 'rows' and 'cols'")
        n = rows * cols
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
    else:
        raise SchemaError(f"unknown topology kind '{kind}'")

    edges = sorted(_graphs.norm_edge(u, v) for u, v in edges)
    if profile.kind == "uniform":
        readout = tuple(float(profile.readout) for _ in range(n))
        gate = {e: float(profile.gate) for e in edges}
    elif profile.kind == "random":
        rng = rng_from(profile.seed, "topology", kind, n)
        lo, hi = profile.readout_range
        readout = tuple(float(x) for x in rng.uniform(lo, hi, size=n))
        glo, ghi = profile.gate_range
        gate = {e: float(x) for e, x in zip(edges, rng.uniform(glo, ghi, size=len(edges)))}
    else:
        raise SchemaError(f"unknown error profile kind '{profile.kind}'")

    return QpuModel(
        name=name or f"{kind}_{n}",
        num_qubits=n,
        readout_error=readout,
        gate_error=gate,
    )


def _require_size(kind: str, num_qubits: int | None, minimum: int) -> int:
    if num_qubits is None or num_qubits < minimum:
        raise SchemaError(f"topology '{kind}' needs num_qubits >= {minimum}")
    return num_qubits


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
