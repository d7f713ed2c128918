"""Hypothesis property tests for invariants the method relies on."""

import collections
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisco._fields import number
from qdisco.decomposer import balanced_mincut
from qdisco.errors import ConfigError, SchemaError
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


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63),
    st.floats(),  # NaN and infinities included
    st.integers(-(2**63), 2**63).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([int, float]),
    value=JSON_VALUES,
    error=st.sampled_from([ConfigError, SchemaError]),
)
def test_field_reader_accepts_exactly_finite_numbers(kind, value, error):
    finite_number = type(value) in (int, float) and value - value == 0
    if finite_number and (kind is float or value == math.floor(value)):
        got = number(kind, value, "f", error)
        assert type(got) is kind and got == kind(value)
    else:
        with pytest.raises(error, match="field 'f' must be"):
            number(kind, value, "f", error)
