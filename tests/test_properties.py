"""Hypothesis property tests for invariants the method relies on."""

import collections
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from qdisco.decomposer import balanced_mincut
from qdisco.problem import ProblemGraph

WEIGHTS = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def partition_inputs(draw):
    """A weighted graph (negative weights allowed) and feasible capacities."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = ProblemGraph(n, tuple((u, v, draw(WEIGHTS)) for u, v in sorted(chosen)))
    caps = draw(st.lists(st.integers(1, n), min_size=1, max_size=5))
    caps[-1] += max(0, n - sum(caps))
    return g, caps, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=150, deadline=None)
@given(partition_inputs())
def test_balanced_mincut_partition_invariants(inputs):
    g, caps, seed = inputs
    part = balanced_mincut(g, caps, seed=seed)

    members = sorted(v for p in range(len(caps)) for v in part.part_vertices(p))
    assert members == list(range(g.num_vertices))

    sizes = collections.Counter(part.assignment)
    assert all(sizes[p] <= c for p, c in enumerate(caps))

    crossing = tuple(e for e in g.edges if part.assignment[e[0]] != part.assignment[e[1]])
    assert part.cut_edges == crossing
