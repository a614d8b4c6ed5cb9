import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from geodiag.kahler import (
    HALF_PI,
    AngleApproximationError,
    AngleRealization,
    ExactAngle,
    Grassmannian,
    angles_in_product,
    approximate_angle,
    grassmannian_product_embeddings,
    _convergents,
    realize_angle,
)


def cosines(k):
    return {a.cosine for a in angles_in_product(k)}


class TestAnglesInProduct:
    def test_two_copies(self):
        assert cosines(2) == {Fraction(0), Fraction(1)}

    def test_five_copies_contains_the_known_rank_two_angle(self):
        assert cosines(5) == {Fraction(1, 5), Fraction(3, 5), Fraction(1)}

    def test_four_copies(self):
        assert cosines(4) == {Fraction(0), Fraction(1, 2), Fraction(1)}

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            angles_in_product(0)

    @given(st.integers(min_value=1, max_value=60))
    def test_symmetry_under_s_reflection(self, k):
        forward = {Fraction(abs(2 * s - k), k) for s in range(k + 1)}
        backward = {Fraction(abs(2 * (k - s) - k), k) for s in range(k + 1)}
        assert forward == backward == cosines(k)

    @given(st.integers(min_value=1, max_value=40))
    def test_unreduced_numerator_parity(self, k):
        for s in range(k + 1):
            assert abs(2 * s - k) % 2 == k % 2

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=6))
    def test_monotone_refinement(self, k, c):
        assert cosines(k) <= cosines(c * k)

    def test_equals_the_sorted_set_of_every_s(self):
        for k in range(1, 201):
            expected = sorted({Fraction(abs(2 * s - k), k) for s in range(k + 1)})
            angles = angles_in_product(k)
            assert [a.cosine for a in angles] == expected
            assert angles == [ExactAngle.from_cosine(q) for q in expected]

    def test_radians_consistent_with_cosine(self):
        for a in angles_in_product(7):
            assert abs(math.cos(a.radians) - float(a.cosine)) <= 1e-12


class TestRealizeAngle:
    def test_fifth(self):
        r = realize_angle(Fraction(1, 5), 2)
        assert (r.k, r.s, r.n) == (5, 2, 10)
        assert r.ambient == Grassmannian(5, 10)
        assert str(r.ambient) == "G5(C15)"

    def test_half_needs_doubling(self):
        r = realize_angle(Fraction(1, 2), 1)
        assert (r.k, r.s, r.n) == (4, 1, 4)
        assert str(r.ambient) == "G4(C8)"

    def test_one_is_the_identity_embedding(self):
        r = realize_angle(1, 3)
        assert (r.k, r.s, r.n) == (1, 1, 3)
        assert str(r.ambient) == "G1(C4)"

    def test_zero_is_the_totally_real_pair(self):
        r = realize_angle(0, 1)
        assert (r.k, r.s) == (2, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            realize_angle(Fraction(6, 5), 1)
        with pytest.raises(ValueError):
            realize_angle(Fraction(-1, 5), 1)
        with pytest.raises(ValueError):
            realize_angle(Fraction(1, 5), 0)

    @given(
        st.fractions(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=5),
    )
    def test_formula_holds_exactly(self, q, m):
        r = realize_angle(q, m)
        assert Fraction(abs(2 * r.s - r.k), r.k) == q
        assert r.n == r.k * m
        assert 0 <= r.s <= r.k

    @given(st.fractions(min_value=0, max_value=1))
    def test_k_is_minimal_of_its_form(self, q):
        r = realize_angle(q, 1)
        a, b = q.numerator, q.denominator
        assert r.k == (b if (b - a) % 2 == 0 else 2 * b)

    def test_formula_check_on_a_thousand_random_rationals(self):
        import random

        rnd = random.Random(11)
        for _ in range(1000):
            b = rnd.randint(1, 400)
            q = Fraction(rnd.randint(0, b), b)
            r = realize_angle(q, rnd.randint(1, 4))
            assert Fraction(abs(2 * r.s - r.k), r.k) == q


class TestGrassmannianProductEmbeddings:
    def test_two_parts_of_three(self):
        assert grassmannian_product_embeddings(2, 3) == [(2, 1)]

    def test_three_parts_of_six(self):
        assert set(grassmannian_product_embeddings(3, 6)) == {(4, 1, 1), (3, 2, 1), (2, 2, 2)}

    def test_single_part(self):
        assert grassmannian_product_embeddings(1, 5) == [(5,)]

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            grassmannian_product_embeddings(4, 3)

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=12))
    def test_parts_partition_n(self, k, n):
        if k > n:
            return
        parts = grassmannian_product_embeddings(k, n)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert len(p) == k
            assert sum(p) == n
            assert all(x >= 1 for x in p)
            assert list(p) == sorted(p, reverse=True)


class TestApproximateAngle:
    def test_quarter_turn(self):
        r = approximate_angle(math.pi / 4, 1e-3, 1)
        assert abs(math.acos(float(r.cosine)) - math.pi / 4) < 1e-3
        assert r.k <= 2000

    def test_zero_is_exact(self):
        r = approximate_angle(0.0, 1e-9, 2)
        assert r.cosine == 1
        assert (r.k, r.s) == (1, 1)

    def test_right_angle_is_exact(self):
        r = approximate_angle(math.pi / 2, 1e-9, 1)
        assert r.cosine == 0
        assert (r.k, r.s) == (2, 1)

    def test_tight_tolerance_still_terminates(self):
        target = 1.234567
        r = approximate_angle(target, 1e-12, 1)
        assert abs(math.acos(float(r.cosine)) - target) < 1e-12

    def test_near_zero_targets_need_large_k(self):
        # realizable nonzero angles scale like 2/sqrt(k): a 0.01 rad target
        # within 1e-3 forces k of order 4/theta^2, far beyond 2000
        r = approximate_angle(0.01, 1e-3, 1)
        assert abs(math.acos(float(r.cosine)) - 0.01) < 1e-3
        assert r.k > 2000

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            approximate_angle(-0.5, 1e-3, 1)
        with pytest.raises(ValueError):
            approximate_angle(2.0, 1e-3, 1)
        with pytest.raises(ValueError):
            approximate_angle(0.5, 0.0, 1)
        for epsilon in (math.nan, math.inf):
            with pytest.raises(ValueError):
                approximate_angle(0.5, epsilon, 1)

    def test_target_below_float_cosine_resolution_raises(self):
        # cos(1e-9) rounds to 1.0: the only convergent is angle 0, 1e-9 away
        with pytest.raises(AngleApproximationError):
            approximate_angle(1e-9, 1e-12, 1)

    def test_exhausted_walk_names_what_it_tried(self):
        # epsilon below every reachable error: all 36 convergents of cos(0.5) miss
        message = (
            f"no convergent of the float cosine {math.cos(0.5)!r} lies within 1e-300"
            " of 0.5 (convergents tried: 36)"
        )
        with pytest.raises(AngleApproximationError, match=f"^{re.escape(message)}$"):
            approximate_angle(0.5, 1e-300, 1)

    def test_walks_are_short(self):
        # a float cosine in [cos(pi/2), 1] has denominator at most 2^106, so
        # Lame's bound ends its continued fraction within 155 convergents
        rnd = random.Random(5)
        targets = [HALF_PI, math.nextafter(HALF_PI, 0), 1e-8]
        targets += [rnd.uniform(0, HALF_PI) for _ in range(2000)]
        for target in targets:
            cosine = Fraction(math.cos(target))
            walk = list(_convergents(cosine))
            assert len(walk) <= 160, target
            assert Fraction(*walk[-1]) == cosine


class TestExactAngleType:
    def test_validates_cosine_range(self):
        with pytest.raises(ValueError):
            ExactAngle.from_cosine(Fraction(3, 2))

    def test_validates_consistency(self):
        with pytest.raises(ValueError):
            ExactAngle(Fraction(1, 2), 1.0)

    def test_realization_invariants_enforced(self):
        with pytest.raises(ValueError):
            AngleRealization(k=2, s=3, m=1, n=2, ambient=Grassmannian(2, 2))
        with pytest.raises(ValueError):
            AngleRealization(k=2, s=1, m=1, n=3, ambient=Grassmannian(2, 3))
