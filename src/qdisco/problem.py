"""Combinatorial problem encodings over spin variables.

A cost function is a weighted sum of spin monomials plus a constant.  The
toolkit minimizes cost everywhere: MaxCut instances are encoded as the
negated cut so that the best cut has the lowest cost.

Bit/spin convention (fixed globally): measured bit 0 maps to spin +1 and
bit 1 to spin -1; basis index ``b`` carries qubit 0 in its least
significant bit.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._fields import load_object, number
from .errors import CapacityError, DimensionError, SchemaError

BRUTE_FORCE_MAX_SPINS = 24
# basis states per block of a cost vector: the block's n bit rows and its sum stay in cache
_ENUM_BLOCK = 1 << 15


@dataclass(frozen=True)
class SpinPolynomial:
    """Canonical weighted spin-monomial cost function.

    ``terms`` holds (weight, support) pairs with sorted duplicate-free
    supports.  Construction reduces repeated indices via s_i^2 = 1, merges
    equal supports, drops zero weights and sorts terms, so two polynomials
    representing the same function compare equal.
    """

    num_spins: int
    terms: tuple[tuple[float, tuple[int, ...]], ...] = ()
    constant_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.num_spins < 0:
            raise ValueError(f"num_spins must be >= 0, got {self.num_spins}")
        merged: dict[tuple[int, ...], float] = {}
        extra_offset = 0.0
        for weight, support in self.terms:
            w = float(weight)
            if not math.isfinite(w):
                raise ValueError("term weights must be finite")
            reduced = _reduce_support(support, self.num_spins)
            if reduced:
                merged[reduced] = merged.get(reduced, 0.0) + w
            else:
                extra_offset += w
        canon = tuple(
            (w, s) for s, w in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if w != 0.0
        )
        offset = float(self.constant_offset) + extra_offset
        if not math.isfinite(offset):
            raise ValueError("constant_offset must be finite")
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "constant_offset", offset)

    def canonical_key(self) -> str:
        """Stable identity string (used to tag benchmark references)."""
        payload = {
            "n": self.num_spins,
            "offset": self.constant_offset,
            "terms": [[w, list(s)] for w, s in self.terms],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _reduce_support(support: Sequence[int], num_spins: int) -> tuple[int, ...]:
    counts: dict[int, int] = {}
    for idx in support:
        i = int(idx)
        if not 0 <= i < num_spins:
            raise ValueError(f"spin index {i} out of range for n={num_spins}")
        counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(i for i, c in counts.items() if c % 2))


@dataclass(frozen=True)
class SpinAssignment(Sequence):
    """Length-n sequence over {-1, +1}."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.values)
        if any(v not in (-1, 1) for v in vals):
            raise ValueError("spin values must be -1 or +1")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, item):
        return self.values[item]

    @classmethod
    def from_bits(cls, bits: Sequence[int] | str) -> "SpinAssignment":
        return cls(tuple(1 - 2 * int(b) for b in bits))

    @classmethod
    def from_index(cls, index: int, num_spins: int) -> "SpinAssignment":
        return cls(tuple(1 - 2 * ((index >> i) & 1) for i in range(num_spins)))

    def to_bits(self) -> str:
        """Bitstring with position j holding qubit j's bit."""
        return "".join("0" if v == 1 else "1" for v in self.values)

    def to_index(self) -> int:
        return sum((1 << i) for i, v in enumerate(self.values) if v == -1)

    def flipped(self) -> "SpinAssignment":
        return SpinAssignment(tuple(-v for v in self.values))


@dataclass(frozen=True)
class ProblemGraph:
    """Weighted undirected graph; the MaxCut instance carrier."""

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {self.num_vertices}")
        seen: set[tuple[int, int]] = set()
        canon = []
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u},{v}) has non-finite weight")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v, w))
        # bounds every cost value and every subgraph's total weight
        if not math.isfinite(sum(abs(w) for _, _, w in canon)):
            raise ValueError("edges: the weights' magnitudes sum past the float range")
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def cut_value(self, s: Sequence[int]) -> float:
        """Total weight of edges whose endpoints get opposite spins."""
        if len(s) != self.num_vertices:
            raise DimensionError(
                f"assignment of length {len(s)} for {self.num_vertices} vertices"
            )
        return sum(w for u, v, w in self.edges if s[u] != s[v])

    def to_json_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "edges": [[u, v, w] for u, v, w in self.edges],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProblemGraph":
        n = number(int, doc.get("num_vertices"), "num_vertices", SchemaError)
        if not isinstance(doc.get("edges"), list):
            raise SchemaError("field 'edges' must be a list")
        edges = []
        for i, edge in enumerate(doc["edges"]):
            if not isinstance(edge, list) or len(edge) != 3:
                raise SchemaError(f"edges[{i}] must be a [u, v, weight] list")
            edges.append(tuple(
                number(kind, x, f"edges[{i}][{j}]", SchemaError)
                for j, (kind, x) in enumerate(zip((int, int, float), edge))
            ))
        try:
            return cls(n, tuple(edges))
        except ValueError as exc:
            raise SchemaError(f"malformed problem graph document: {exc}") from exc


def evaluate_cost(poly: SpinPolynomial, s: Sequence[int]) -> float:
    """Evaluate constant_offset + sum_k w_k * prod_{i in t_k} s_i."""
    if len(s) != poly.num_spins:
        raise DimensionError(
            f"assignment length {len(s)} != num_spins {poly.num_spins}"
        )
    total = poly.constant_offset
    for w, support in poly.terms:
        prod = 1
        for i in support:
            prod *= s[i]
        total += w * prod
    return total


def maxcut_to_spin_polynomial(g: ProblemGraph) -> SpinPolynomial:
    """Encode MaxCut as cost C(s) = sum_e w_e (s_u s_v - 1) / 2 = -cut(s)."""
    terms = tuple((w / 2.0, (u, v)) for u, v, w in g.edges)
    return SpinPolynomial(g.num_vertices, terms, constant_offset=-g.total_weight / 2.0)


def labs_to_spin_polynomial(n: int) -> SpinPolynomial:
    """Sidelobe energy E(s) = sum_{k=1}^{n-1} C_k(s)^2 as a spin polynomial.

    C_k = sum_{i=0}^{n-1-k} s_i s_{i+k}.  Squaring and reducing s_i^2 = 1
    leaves a constant plus degree-2 and degree-4 monomials.
    """
    if n < 2:
        raise CapacityError(f"LABS needs n >= 2, got {n}")
    terms: list[tuple[float, tuple[int, ...]]] = []
    offset = 0.0
    for k in range(1, n):
        m = n - k  # number of products in C_k
        offset += m  # diagonal i == j contributes m ones
        for i in range(m):
            for j in range(i + 1, m):
                terms.append((2.0, (i, i + k, j, j + k)))
    return SpinPolynomial(n, tuple(terms), constant_offset=offset)


def spin_parities(n: int, supports, start: int = 0, stop: int | None = None):
    """Yield each support's parity over the basis states from ``start`` up to ``stop`` (2^n).

    A parity is a ``uint8`` row, 1 where the product of the support's spins
    is -1: the xor of the support's rows of index bits, unpacked once.
    """
    idx = np.arange(start, 1 << n if stop is None else stop, dtype=np.int64)
    bits = [((idx >> i) & 1).astype(np.uint8) for i in range(n)]
    for support in supports:
        yield functools.reduce(np.bitwise_xor, (bits[i] for i in support), np.zeros(len(idx), np.uint8))


@functools.lru_cache(maxsize=128)
def cost_vector(poly: SpinPolynomial) -> np.ndarray:
    """Cost of every assignment, indexed by basis state (read-only array).

    Index b encodes qubit i's bit at position i (LSB first); bit 0 is spin
    +1.  Evaluated in cache-sized blocks: each term adds w or -w, picked by
    its parity (``spin_parities``), to the offset, in term order.
    """
    n = poly.num_spins
    if n > BRUTE_FORCE_MAX_SPINS:
        raise CapacityError(
            f"cost enumeration capped at {BRUTE_FORCE_MAX_SPINS} spins, got {n}"
        )
    size = 1 << n
    out = np.empty(size, dtype=np.float64)
    for start in range(0, size, _ENUM_BLOCK):
        block = out[start : start + _ENUM_BLOCK]
        block.fill(poly.constant_offset)
        parities = spin_parities(n, (support for _, support in poly.terms), start, start + len(block))
        for (w, _), parity in zip(poly.terms, parities):
            block += np.where(parity, -w, w)
    out.setflags(write=False)
    return out


def minimum_cost_indices(poly: SpinPolynomial) -> tuple[float, np.ndarray]:
    """Exact minimum cost and all minimizing basis indices."""
    costs = cost_vector(poly)
    best = float(costs.min())
    return best, np.flatnonzero(costs == best)


def brute_force_optimum(
    poly: SpinPolynomial,
) -> tuple[float, tuple[SpinAssignment, ...]]:
    """Exhaustive minimum and the complete set of minimizers (n <= 24)."""
    best, idx = minimum_cost_indices(poly)
    argmins = tuple(SpinAssignment.from_index(int(b), poly.num_spins) for b in idx)
    return best, argmins


@dataclass(frozen=True)
class ProblemInstance:
    """A loaded problem file: either a MaxCut graph or a LABS size."""

    kind: str  # "maxcut" | "labs"
    graph: ProblemGraph | None = None
    labs_n: int | None = None
    polynomial: SpinPolynomial = field(init=False)

    def __post_init__(self) -> None:
        if self.kind == "maxcut":
            if self.graph is None:
                raise ValueError("maxcut instance needs a graph")
            poly = maxcut_to_spin_polynomial(self.graph)
        elif self.kind == "labs":
            if self.labs_n is None:
                raise ValueError("labs instance needs a size")
            poly = labs_to_spin_polynomial(self.labs_n)
        else:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        object.__setattr__(self, "polynomial", poly)

    @property
    def num_spins(self) -> int:
        return self.polynomial.num_spins


def parse_problem_json(text: str) -> ProblemInstance:
    """Parse a problem file: graph fields or ``{"labs": n}``."""
    doc = load_object(text, "problem file", (), SchemaError)
    if "labs" in doc:
        # refused before the O(n^3) encoding
        n = number(int, doc["labs"], "labs", SchemaError, low=2, high=BRUTE_FORCE_MAX_SPINS)
        return ProblemInstance(kind="labs", labs_n=n)
    if "num_vertices" not in doc or "edges" not in doc:
        raise SchemaError("problem file needs 'num_vertices' and 'edges' (or 'labs')")
    return ProblemInstance(kind="maxcut", graph=ProblemGraph.from_json_dict(doc))
