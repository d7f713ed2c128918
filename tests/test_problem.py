import itertools

import numpy as np
import pytest

from qdisco.errors import CapacityError, DimensionError, SchemaError
from qdisco.problem import (
    _ENUM_BLOCK,
    ProblemGraph,
    SpinAssignment,
    SpinPolynomial,
    brute_force_optimum,
    cost_vector,
    evaluate_cost,
    labs_to_spin_polynomial,
    maxcut_to_spin_polynomial,
    parse_problem_json,
    spin_parities,
)

from oracles import _sign_product, cut_by_counting, labs_energy_direct, random_maxcut_graph

TRIANGLE = ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


class TestSpinPolynomial:
    def test_merges_duplicate_supports(self):
        poly = SpinPolynomial(2, ((1.0, (0, 1)), (0.5, (1, 0))))
        assert poly.terms == ((1.5, (0, 1)),)

    def test_drops_zero_weights(self):
        poly = SpinPolynomial(2, ((1.0, (0, 1)), (-1.0, (0, 1))))
        assert poly.terms == ()

    def test_reduces_repeated_indices(self):
        # s0 * s0 * s1 = s1, and s0^2 alone is the constant 1
        poly = SpinPolynomial(2, ((2.0, (0, 0, 1)), (3.0, (0, 0))))
        assert poly.terms == ((2.0, (1,)),)
        assert poly.constant_offset == 3.0

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SpinPolynomial(2, ((1.0, (0, 2)),))

    def test_canonical_equality(self):
        a = SpinPolynomial(3, ((1.0, (2, 0)), (0.5, (1,))))
        b = SpinPolynomial(3, ((0.5, (1,)), (1.0, (0, 2))))
        assert a == b

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError):
            SpinPolynomial(2, ((float("nan"), (0, 1)),))


class TestSpinAssignment:
    def test_round_trips_bits_and_index(self):
        s = SpinAssignment((1, -1, 1))
        assert s.to_bits() == "010"
        assert SpinAssignment.from_bits("010") == s
        assert SpinAssignment.from_index(s.to_index(), 3) == s

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SpinAssignment((1, 0, -1))


class TestEvaluateCost:
    def test_all_ones_product(self):
        poly = SpinPolynomial(2, ((1.0, (0, 1)),))
        assert evaluate_cost(poly, SpinAssignment((1, 1))) == 1.0

    def test_single_sign_flip(self):
        poly = SpinPolynomial(2, ((1.0, (0, 1)),))
        assert evaluate_cost(poly, SpinAssignment((1, -1))) == -1.0

    def test_triangle_cut_of_two(self):
        poly = maxcut_to_spin_polynomial(TRIANGLE)
        # hand oracle over all 8 assignments: best cost is -2 (cut of 2)
        values = {}
        for spins in itertools.product((-1, 1), repeat=3):
            values[spins] = evaluate_cost(poly, SpinAssignment(spins))
        assert values[(1, 1, -1)] == -2.0
        assert min(values.values()) == -2.0

    def test_length_mismatch(self):
        poly = SpinPolynomial(2, ((1.0, (0, 1)),))
        with pytest.raises(DimensionError):
            evaluate_cost(poly, SpinAssignment((1, 1, 1)))


class TestMaxcutEncoding:
    def test_single_unit_edge(self):
        poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
        assert poly.terms == ((0.5, (0, 1)),)
        assert poly.constant_offset == -0.5

    def test_unit_triangle(self):
        poly = maxcut_to_spin_polynomial(TRIANGLE)
        assert poly.terms == ((0.5, (0, 1)), (0.5, (0, 2)), (0.5, (1, 2)))
        assert poly.constant_offset == -1.5
        best, _ = brute_force_optimum(poly)
        assert best == -2.0

    def test_empty_graph(self):
        poly = maxcut_to_spin_polynomial(ProblemGraph(3, ()))
        assert poly.terms == ()
        assert poly.constant_offset == 0.0
        for spins in itertools.product((-1, 1), repeat=3):
            assert evaluate_cost(poly, SpinAssignment(spins)) == 0.0

    def test_cost_equals_negated_cut(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            g = random_maxcut_graph(rng, int(rng.integers(2, 9)), 0.5, weighted=True)
            poly = maxcut_to_spin_polynomial(g)
            spins = tuple(int(x) for x in rng.choice((-1, 1), g.num_vertices))
            assert evaluate_cost(poly, SpinAssignment(spins)) == pytest.approx(
                -cut_by_counting(g, spins)
            )


class TestLabsEncoding:
    def test_n2_is_constant_one(self):
        poly = labs_to_spin_polynomial(2)
        assert poly.terms == ()
        assert poly.constant_offset == 1.0

    def test_n3_all_plus(self):
        poly = labs_to_spin_polynomial(3)
        # C1 = 2, C2 = 1 -> E = 5
        assert evaluate_cost(poly, SpinAssignment((1, 1, 1))) == 5.0

    def test_n4_minimum_is_two(self):
        poly = labs_to_spin_polynomial(4)
        best, _ = brute_force_optimum(poly)
        assert best == 2.0

    def test_rejects_small_n(self):
        with pytest.raises(CapacityError):
            labs_to_spin_polynomial(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_direct_autocorrelation(self, n):
        poly = labs_to_spin_polynomial(n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            spins = tuple(int(x) for x in rng.choice((-1, 1), n))
            assert evaluate_cost(poly, SpinAssignment(spins)) == pytest.approx(
                labs_energy_direct(spins)
            )


class TestBruteForce:
    def test_single_edge_argmins(self):
        poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
        best, argmins = brute_force_optimum(poly)
        assert best == -1.0
        assert set(a.values for a in argmins) == {(1, -1), (-1, 1)}

    def test_triangle_has_six_argmins(self):
        _, argmins = brute_force_optimum(maxcut_to_spin_polynomial(TRIANGLE))
        assert len(argmins) == 6

    def test_constant_polynomial(self):
        poly = SpinPolynomial(3, (), constant_offset=2.5)
        best, argmins = brute_force_optimum(poly)
        assert best == 2.5
        assert len(argmins) == 8

    def test_size_guard(self):
        with pytest.raises(CapacityError):
            brute_force_optimum(SpinPolynomial(25, ()))

    def test_cost_vector_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(4)
        g = random_maxcut_graph(rng, 6, 0.6, weighted=True)
        poly = maxcut_to_spin_polynomial(g)
        costs = cost_vector(poly)
        for b in range(64):
            s = SpinAssignment.from_index(b, 6)
            assert costs[b] == pytest.approx(evaluate_cost(poly, s))


BLOCK_BITS = _ENUM_BLOCK.bit_length() - 1  # n at which a cost vector is one whole block


class TestCostVector:
    """Blocks of parities give the plain per-term float sum, in term order, bit for bit."""

    @pytest.mark.parametrize("n", [BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1, BLOCK_BITS + 2])
    def test_equals_the_per_term_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        terms = [
            (
                float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4)),
                tuple(int(i) for i in rng.choice(n, size=rng.integers(0, 5), replace=False)),
            )
            for _ in range(40)
        ]
        poly = SpinPolynomial(n, tuple(terms), constant_offset=float(rng.standard_normal()))
        assert {len(support) for _, support in poly.terms} == {1, 2, 3, 4}
        want = np.full(1 << n, poly.constant_offset)
        for w, support in poly.terms:
            want += w * _sign_product(n, support, {})
        got = cost_vector.__wrapped__(poly)  # uncached
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_parities_are_the_sign_products(self):
        supports = [(), (0,), (2, 5), (0, 1, 3, 6), (6,)]
        signs = [_sign_product(7, support, {}) for support in supports]
        for start, stop in ((0, None), (0, 1), (37, 100), (64, 128)):
            got = list(spin_parities(7, supports, start, stop))
            assert [row.dtype for row in got] == [np.uint8] * len(supports)
            for row, sign in zip(got, signs):
                assert np.array_equal(1.0 - 2.0 * row, sign[start:stop])


class TestSpinFlipSymmetry:
    def test_even_support_polynomials_are_flip_invariant(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            g = random_maxcut_graph(rng, n, 0.5, weighted=True)
            poly = maxcut_to_spin_polynomial(g)
            spins = SpinAssignment(tuple(int(x) for x in rng.choice((-1, 1), n)))
            assert evaluate_cost(poly, spins) == pytest.approx(
                evaluate_cost(poly, spins.flipped())
            )

    def test_labs_is_flip_invariant(self):
        poly = labs_to_spin_polynomial(6)
        rng = np.random.default_rng(2)
        for _ in range(10):
            spins = SpinAssignment(tuple(int(x) for x in rng.choice((-1, 1), 6)))
            assert evaluate_cost(poly, spins) == pytest.approx(
                evaluate_cost(poly, spins.flipped())
            )


class TestProblemGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ProblemGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            ProblemGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_json_round_trip(self):
        g = ProblemGraph(4, ((0, 1, 1.0), (2, 3, 0.5)))
        assert ProblemGraph.from_json_dict(g.to_json_dict()) == g


class TestProblemFiles:
    def test_parses_maxcut(self):
        inst = parse_problem_json('{"num_vertices": 2, "edges": [[0, 1, 1.0]]}')
        assert inst.kind == "maxcut"
        assert inst.polynomial.terms == ((0.5, (0, 1)),)

    def test_parses_labs(self):
        inst = parse_problem_json('{"labs": 4}')
        assert inst.kind == "labs"
        assert inst.num_spins == 4

    def test_rejects_garbage(self):
        with pytest.raises(SchemaError):
            parse_problem_json("not json")
        with pytest.raises(SchemaError):
            parse_problem_json('{"something": 1}')
