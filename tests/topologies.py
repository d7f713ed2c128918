"""Small QPUs with uniform error rates on named layouts, for tests that need no calibration file."""

from qdisco.hardware import QpuModel

# Heavy-hex unit layout: a 12-qubit hexagonal ring closed by two bridge
# qubits plus two spurs; 16 qubits, 18 edges, max degree 3.
HEAVY_HEX_16_EDGES = [(i, (i + 1) % 12) for i in range(12)] + [
    (0, 12), (6, 12), (3, 13), (9, 13), (1, 14), (7, 15),
]


def uniform_qpu(kind, num_qubits=None, readout=0.01, gate=0.005, name=None, rows=None, cols=None) -> QpuModel:
    """``readout`` error on every qubit and ``gate`` error on every edge of a named layout.

    ``line`` and ``ring`` take ``num_qubits``, ``grid`` takes ``rows`` and
    ``cols``, and ``heavy_hex_16`` is fixed.  The name defaults to ``{kind}_{n}``.
    """
    n = num_qubits
    if kind == "line":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "heavy_hex_16":
        n, edges = 16, HEAVY_HEX_16_EDGES
    else:  # grid, row-major
        n = rows * cols
        edges = [(q, q + 1) for q in range(n) if (q + 1) % cols] + [(q, q + cols) for q in range(n - cols)]
    return QpuModel(name or f"{kind}_{n}", n, (readout,) * n, {e: gate for e in edges})
