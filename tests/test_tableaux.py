import copy
import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import geodiag.catalog as catalog_mod
import geodiag.tableaux as tableaux_mod
from geodiag.catalog import (
    Field,
    TotGeodInclusion,
    are_homothetic,
    is_totally_geodesic,
    list_totally_geodesic,
    space,
)
from geodiag.tableaux import (
    AdaptedTableau,
    Box,
    ClassifiedSubmanifold,
    ProductSpace,
    classify,
    count_classes,
    diagonal_curvature,
    enumerate_tableaux,
)

from oracles import brute_force_count, tableau_count


def mixed_product(c1=1, c2=2, c3=1):
    return ProductSpace((space("R", 3, c1), space("C", 3, c2), space("H", 3, c3)))


def box(i, field, n, curv, amb_field, amb_n, amb_curv):
    return Box(i, TotGeodInclusion(space(field, n, curv), space(amb_field, amb_n, amb_curv)))


def product_over_elementary_symmetric(cs):
    """``prod(c) / e_{m-1}(c)``, the expanded form of the diagonal curvature."""
    prod = Fraction(1)
    for c in cs:
        prod *= c
    e = Fraction(0)
    for combo in itertools.combinations(cs, len(cs) - 1):
        term = Fraction(1)
        for c in combo:
            term *= c
        e += term
    return prod / e


def random_products(seed, count, max_r=4):
    rnd = random.Random(seed)
    for _ in range(count):
        r = rnd.randint(1, max_r)
        factors = []
        for _ in range(r):
            field = rnd.choice(["R", "C", "H", "O"])
            n = 2 if field == "O" else rnd.randint(2, 4)
            c = Fraction(rnd.randint(1, 8), rnd.randint(1, 8))
            factors.append(space(field, n, c))
        yield ProductSpace(tuple(factors))


class TestDiagonalCurvature:
    def test_three_factor_formula(self):
        c1, c2, c3 = Fraction(3), Fraction(5, 2), Fraction(7, 3)
        got = diagonal_curvature([c1, c2 / 4, c3])
        assert got == c1 * c2 * c3 / (c1 * c2 + 4 * c1 * c3 + c2 * c3)

    def test_equal_pair(self):
        assert diagonal_curvature([1, 1]) == Fraction(1, 2)

    def test_harmonic_triple(self):
        assert diagonal_curvature([2, 3, 6]) == 1

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            diagonal_curvature([])
        with pytest.raises(ValueError):
            diagonal_curvature([1, 0])
        with pytest.raises(ValueError):
            diagonal_curvature([1, -2])

    @given(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50), min_size=1, max_size=6))
    def test_harmonic_identity(self, cs):
        assert 1 / diagonal_curvature(cs) == sum(1 / c for c in cs)

    @given(
        st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50), min_size=2, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, cs, rnd):
        shuffled = list(cs)
        rnd.shuffle(shuffled)
        assert diagonal_curvature(shuffled) == diagonal_curvature(cs)

    @given(st.fractions(min_value=Fraction(1, 50), max_value=50))
    def test_single_argument_identity(self, c):
        assert diagonal_curvature([c]) == c

    @given(st.lists(st.fractions(min_value=Fraction(1, 99), max_value=99), min_size=1, max_size=6))
    def test_equals_the_elementary_symmetric_form(self, cs):
        got = diagonal_curvature(cs)
        assert type(got) is Fraction
        assert got == product_over_elementary_symmetric(cs)


def reference_curvature(cs):
    """``1 / sum(1 / c)`` in ``Fraction`` arithmetic, with the errors of ``diagonal_curvature``."""
    cs = [Fraction(c) for c in cs]
    if not cs:
        raise ValueError("need at least one curvature")
    if any(c <= 0 for c in cs):
        raise ValueError("curvatures must be positive")
    return 1 / sum(1 / c for c in cs)


class TestIntegerHarmonicSum:
    """The integer form of ``diagonal_curvature`` against the plain ``Fraction`` sum."""

    @staticmethod
    def as_input(c, kind):
        if kind == "int":
            return c.numerator
        return str(c) if kind == "str" else c

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_fraction_reference(self, seed):
        rnd = random.Random(seed)
        for _ in range(200):
            kinds = [rnd.choice(["Fraction", "int", "str"]) for _ in range(rnd.randint(1, 6))]
            cs = [
                self.as_input(Fraction(rnd.randint(1, 60), 1 if kind == "int" else rnd.randint(1, 60)), kind)
                for kind in kinds
            ]
            got = diagonal_curvature(cs)
            assert type(got) is Fraction
            assert got == reference_curvature(cs), cs

    @pytest.mark.parametrize(
        "cs",
        [[], [0], [Fraction(0)], ["0"], [1, 0], [-2], [Fraction(3, 2), Fraction(-1, 3)], ["-1/4", "2"]],
    )
    def test_same_errors_as_the_reference(self, cs):
        with pytest.raises(ValueError) as expected:
            reference_curvature(cs)
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            diagonal_curvature(cs)


class TestEnumeration:
    def test_single_row_diagonal_over_all_three_factors(self):
        M = mixed_product()
        target = AdaptedTableau.from_rows(
            [
                [
                    box(1, "R", 3, 1, "R", 3, 1),
                    box(2, "R", 3, Fraction(2, 4), "C", 3, 2),
                    box(3, "R", 3, 1, "H", 3, 1),
                ]
            ]
        )
        assert target in set(enumerate_tableaux(M, {1, 2, 3}))

    def test_two_row_tableau_with_complex_diagonal(self):
        M = mixed_product()
        target = AdaptedTableau.from_rows(
            [
                [box(2, "C", 2, 2, "C", 3, 2), box(3, "C", 2, 1, "H", 3, 1)],
                [box(1, "R", 2, 1, "R", 3, 1)],
            ]
        )
        assert target in set(enumerate_tableaux(M, {1, 2, 3}))

    def test_real_plane_has_only_the_improper_tableau(self):
        M = ProductSpace((space("R", 2, 1),))
        ts = list(enumerate_tableaux(M, {1}))
        assert len(ts) == 1
        (row,) = ts[0].rows
        assert row[0].inclusion.improper

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            list(enumerate_tableaux(mixed_product(), set()))

    @pytest.mark.parametrize("subset, index", [({9}, 9), ({3, 9, 7}, 3), ({0}, 0)])
    def test_rejects_out_of_range_factors_at_the_call(self, subset, index):
        M = ProductSpace((space("R", 3, 1), space("C", 3, 2)))
        with pytest.raises(ValueError, match=rf"^factor index {index} out of range 1\.\.2$"):
            enumerate_tableaux(M, subset)

    @pytest.mark.parametrize(
        "M",
        [
            *random_products(seed=17, count=8, max_r=4),
            ProductSpace(
                (
                    space("R", 2, 1),
                    space("C", 2, 2),
                    space("H", 2, Fraction(1, 2)),
                    space("R", 3, 3),
                    space("R", 2, Fraction(1, 4)),
                )
            ),
        ],
        ids=str,
    )
    def test_stream_is_duplicate_free_and_canonical(self, M):
        factors = [(f.field.value, f.n, f.curvature) for f in M.factors]
        for size in range(1, M.r + 1):
            for subset in itertools.combinations(range(1, M.r + 1), size):
                keys = [t.sort_key() for t in enumerate_tableaux(M, subset)]
                assert len(set(keys)) == len(keys)
                assert keys == sorted(keys)
                assert len(keys) == tableau_count(factors, tuple(i - 1 for i in subset))

    @pytest.mark.parametrize("build", [AdaptedTableau, AdaptedTableau.from_rows])
    def test_rows_validated(self, build):
        r2 = box(1, "R", 2, 1, "R", 3, 1)
        with pytest.raises(ValueError, match="mutually homothetic"):
            build(((r2, box(2, "C", 2, 2, "C", 3, 2)),))
        with pytest.raises(ValueError, match="factor 1 appears in more than one box"):
            build(((r2,), (r2,)))
        with pytest.raises(ValueError, match="factor 1 appears in more than one box"):
            build(((r2, box(1, "R", 2, 1, "R", 3, 1)),))
        with pytest.raises(ValueError, match="rows must be non-empty"):
            build(((r2,), ()))
        for factor in (0, -1):
            with pytest.raises(ValueError, match=f"factor indices start at 1, got {factor}"):
                build(((Box(factor, r2.inclusion),),))


class TestClassify:
    def test_figure_entry_complex_diagonal_with_real_cofactor(self):
        c1, c2, c3 = Fraction(1), Fraction(2), Fraction(1)
        M = mixed_product(c1, c2, c3)
        want = (
            ("C", 2, c2 * c3 / (c2 + c3)),
            ("R", 2, c1),
        )
        found = [
            e
            for e in classify(M)
            if e.flat_dim == 0
            and tuple((f.field.value, f.n, f.curvature) for f in e.semisimple_factors) == want
        ]
        assert found, "expected the two-row entry CH2(c2c3/(c2+c3)) x RH2(c1)"

    def test_maximal_flat_is_present(self):
        M = mixed_product()
        flats = [e for e in classify(M) if not e.semisimple_factors and e.flat_dim == M.r]
        assert len(flats) == 1

    def test_two_diagonal_real_plane_in_complex_product(self):
        M = ProductSpace((space("C", 2, 1), space("C", 2, 1)))
        found = [
            e
            for e in classify(M)
            if len(e.semisimple_factors) == 1
            and e.semisimple_factors[0].curvature == Fraction(1, 8)
            and e.flat_dim == 0
        ]
        assert found
        assert all(f.field is Field.R and f.n == 2 for e in found for f in e.semisimple_factors)

    def test_count_examples(self):
        assert count_classes(ProductSpace((space("R", 2, 1),))) == 3
        assert count_classes(ProductSpace((space("O", 2, 1),))) == 13
        assert count_classes(ProductSpace((space("R", 2, 1), space("R", 2, 1)))) == 9

    @pytest.mark.parametrize(
        "factors",
        [
            [("R", 2, Fraction(1)), ("R", 2, Fraction(1))],
            [("R", 3, Fraction(1)), ("C", 3, Fraction(2)), ("H", 3, Fraction(1))],
            [("C", 2, Fraction(1)), ("C", 2, Fraction(1))],
            [("H", 2, Fraction(1)), ("O", 2, Fraction(1))],
            [("C", 2, Fraction(1, 4)), ("R", 4, Fraction(3))],
            [("R", 2, Fraction(1)), ("R", 2, Fraction(1)), ("R", 2, Fraction(1))],
        ],
    )
    def test_count_matches_brute_force_oracle(self, factors):
        M = ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        assert count_classes(M) == brute_force_count(factors)

    def test_mixed_type_products_are_rejected(self):
        with pytest.raises(ValueError):
            ProductSpace((space("R", 2, 1), space("R", 2, 1, compact_dual=True)))


class TestProductMemo:
    """One classify queries the catalog once per factor and each row curvature once."""

    @staticmethod
    def counted_classify(monkeypatch, M):
        calls = {"list": [], "curvature": 0, "from_rows": 0, "is_tg": 0}
        list_tg, curvature = tableaux_mod.list_totally_geodesic, tableaux_mod.diagonal_curvature
        from_rows, is_tg = AdaptedTableau.from_rows.__func__, catalog_mod.is_totally_geodesic

        def counting_list(ambient, include_improper=False):
            calls["list"].append(ambient)
            return list_tg(ambient, include_improper)

        def counting_curvature(cs):
            calls["curvature"] += 1
            return curvature(cs)

        def counting_from_rows(cls, rows):
            calls["from_rows"] += 1
            return from_rows(cls, rows)

        def counting_is_tg(sub, ambient):
            calls["is_tg"] += 1
            return is_tg(sub, ambient)

        with monkeypatch.context() as patch:
            patch.setattr(tableaux_mod, "list_totally_geodesic", counting_list)
            patch.setattr(tableaux_mod, "diagonal_curvature", counting_curvature)
            patch.setattr(AdaptedTableau, "from_rows", classmethod(counting_from_rows))
            patch.setattr(catalog_mod, "is_totally_geodesic", counting_is_tg)
            return list(classify(M)), calls

    @pytest.mark.parametrize(
        "factors",
        [
            [("R", 3, 1), ("C", 3, 2), ("H", 3, 1)],
            [("C", 2, 1), ("C", 2, 1), ("R", 3, Fraction(1, 2)), ("O", 2, 3)],
        ],
    )
    def test_catalog_once_per_factor_and_curvature_once_per_row(self, monkeypatch, factors):
        make = lambda: ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        M = make()
        entries, calls = self.counted_classify(monkeypatch, M)
        assert calls["list"] == list(M.factors)
        distinct_rows = {row for e in entries for row in e.tableau.rows}
        assert 0 < calls["curvature"] <= len(distinct_rows)
        # the benchmark's traced runs must reach these spans
        assert calls["from_rows"] == len({e.tableau for e in entries if e.tableau.rows})
        assert calls["is_tg"] > 0
        # an equal but fresh product builds its own memo and repeats the counts
        again, calls_again = self.counted_classify(monkeypatch, make())
        assert calls_again == calls
        assert again == entries

    def test_copied_product_classifies_identically(self):
        M = mixed_product(Fraction(5, 3), Fraction(7, 2), Fraction(2))
        entries = list(classify(M))
        clone = copy.deepcopy(M)
        assert clone == M and hash(clone) == hash(M)
        assert list(classify(clone)) == entries

    @pytest.mark.parametrize("hot", [False, True])
    def test_copied_memo_rows_keep_their_key_and_space(self, hot, monkeypatch):
        M = mixed_product(Fraction(5, 3), Fraction(7, 2), Fraction(2))
        entries = list(classify(M)) if hot else None
        calls = []
        real = tableaux_mod.diagonal_curvature

        def counting(curvatures):
            calls.append(curvatures)
            return real(curvatures)

        monkeypatch.setattr(tableaux_mod, "diagonal_curvature", counting)
        clones = [copy.deepcopy(M), pickle.loads(pickle.dumps(M))]
        # copied rows are not validated again
        assert calls == []
        monkeypatch.undo()
        for clone in clones:
            assert ("_memo" in clone.__dict__) == hot
            copied = list(classify(clone))
            assert copied == (entries or list(classify(M)))
            for e in copied:
                for row, factor in zip(e.tableau.rows, e.semisimple_factors):
                    assert type(row) is tableaux_mod.Row
                    assert row.key == tableaux_mod._row_key(row) and row.space == factor

    def test_from_rows_sorts_boxes_and_rows(self):
        a = box(1, "R", 2, 1, "R", 3, 1)
        b = box(2, "R", 2, Fraction(1, 2), "C", 3, 2)
        c = box(3, "C", 2, 1, "H", 3, 1)
        t = AdaptedTableau.from_rows([[c], [b, a]])
        assert t.rows == ((a, b), (c,))
        assert t == AdaptedTableau.from_rows([(a, b), [c]])
        assert AdaptedTableau(((c,), (a, b))) == t
        assert AdaptedTableau(((b, a), (c,))) == t


class TestCopiesKeepTheirState:
    """Copies and pickles of rows, tableaux and entries are equal and keep what they carry."""

    ROUND_TRIPS = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    }

    @staticmethod
    def entries():
        M = mixed_product(Fraction(5, 3), Fraction(7, 2), Fraction(2))
        entries = [e for e in classify(M) if len(e.tableau.rows) >= 2 and e.flat_dim]
        assert entries
        return entries

    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    def test_rows_keep_mask_key_and_space(self, trip):
        for e in self.entries():
            for row in e.tableau.rows:
                assert row.mask == sum(1 << b.factor for b in row)
                clone = self.ROUND_TRIPS[trip](row)
                assert type(clone) is tableaux_mod.Row and clone == row
                assert clone.mask == row.mask and clone.key == row.key and clone.space == row.space

    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    def test_tableaux_and_entries_stay_equal(self, trip):
        for e in self.entries():
            tableau = self.ROUND_TRIPS[trip](e.tableau)
            assert tableau == e.tableau and hash(tableau) == hash(e.tableau)
            assert tableau.sort_key() == e.tableau.sort_key()
            assert tableau.box_factors() == e.tableau.box_factors()
            entry = self.ROUND_TRIPS[trip](e)
            assert entry == e and hash(entry) == hash(e)

    def test_records_stay_frozen_and_validated(self):
        e = self.entries()[0]
        with pytest.raises(ValueError, match="flat dimension exceeds"):
            dataclasses.replace(e, flat_dim=99)
        for obj, name in ((e.tableau, "rows"), (e, "flat_dim"), (e, "tableau")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        # slotted: no per-instance dictionary
        assert not hasattr(e, "__dict__") and not hasattr(e.tableau, "__dict__")


class TestTrustedConstruction:
    """The stream's tableaux and entries skip validation; any other rows are validated."""

    @pytest.mark.parametrize(
        "M", [*random_products(seed=31, count=10, max_r=4), mixed_product()], ids=str
    )
    def test_memo_tableaux_equal_validated_rebuilds(self, M):
        for size in range(1, M.r + 1):
            for subset in itertools.combinations(range(1, M.r + 1), size):
                for t in enumerate_tableaux(M, subset):
                    rows = t.rows
                    rebuilt = AdaptedTableau(tuple(map(tuple, rows)))
                    assert rebuilt == t and rebuilt.rows == rows
                    assert rebuilt.sort_key() == t.sort_key()
                    assert rebuilt.box_factors() == t.box_factors() == set(subset)
                    # reversed rows are validated and brought back into canonical order
                    assert AdaptedTableau.from_rows(reversed(rows)) == t
                    assert AdaptedTableau.from_rows(rows[::-1]) == t
                    assert AdaptedTableau(rows[::-1]).rows == rows

    def test_stream_tableaux_are_not_validated_again(self, monkeypatch):
        M = mixed_product()
        validated = []
        post_init = AdaptedTableau.__post_init__

        def counting(tableau):
            validated.append(tableau.rows)
            post_init(tableau)

        monkeypatch.setattr(AdaptedTableau, "__post_init__", counting)
        entries = list(classify(M))
        # only the empty tableau of the purely flat entries is built by the constructor
        assert validated == [()]
        assert len({e.tableau for e in entries}) > 100
        memo_rows = M._memo.tableaux(0b1110)[-1]
        assert AdaptedTableau(memo_rows).rows == memo_rows
        assert type(AdaptedTableau(memo_rows).rows) is tuple
        assert validated[-1] is memo_rows

    @pytest.mark.parametrize("M", list(random_products(seed=23, count=8, max_r=3)), ids=str)
    def test_stream_equals_validated_rebuilds(self, M):
        rnd = random.Random(str(M))
        for e in classify(M):
            rows = tuple(tuple(row) for row in e.tableau.rows)
            assert all(type(row) is tuple for row in rows)
            shuffled = [rnd.sample(row, len(row)) for row in rnd.sample(rows, len(rows))]
            for rebuilt in (
                AdaptedTableau(rows),
                AdaptedTableau.from_rows(reversed(rows)),
                AdaptedTableau(tuple(map(tuple, shuffled))),
                AdaptedTableau.from_rows(shuffled),
            ):
                assert rebuilt == e.tableau and rebuilt.rows == e.tableau.rows
                assert rebuilt.sort_key() == e.tableau.sort_key()
                assert rebuilt.box_factors() == e.tableau.box_factors()
            validated = ClassifiedSubmanifold(
                e.semisimple_factors, e.flat_dim, AdaptedTableau(rows), e.complement_factors
            )
            assert validated == e

    def test_memo_rows_sharing_a_factor_raise(self):
        M = ProductSpace((space("R", 3, 1), space("R", 3, 2)))
        single, pair = (next(r for r in M._memo.rows if r.mask == mask) for mask in (0b10, 0b110))
        with pytest.raises(ValueError, match="factor 1 appears in more than one box"):
            AdaptedTableau.from_rows([single, pair])

    def test_memo_row_with_a_plain_row_is_validated(self):
        M = mixed_product()
        memo_row = next(r for r in M._memo.rows if r.mask == 0b10)
        c2 = box(2, "C", 2, 2, "C", 3, 2)
        h2 = box(3, "H", 2, 1, "H", 3, 1)
        with pytest.raises(ValueError, match="mutually homothetic"):
            AdaptedTableau.from_rows([memo_row, (c2, h2)])
        with pytest.raises(ValueError, match="mutually homothetic"):
            AdaptedTableau((memo_row, (h2, c2)))
        mixed = AdaptedTableau.from_rows([[h2], memo_row])
        assert mixed == AdaptedTableau((tuple(memo_row), (h2,)))
        assert mixed.box_factors() == {1, 3}

    def test_empty_rows_make_the_empty_tableau(self):
        assert AdaptedTableau.from_rows([]) == AdaptedTableau(())
        assert AdaptedTableau.from_rows([]).box_factors() == frozenset()


class TestStreamInvariants:
    @pytest.mark.parametrize("M", list(random_products(seed=7, count=6, max_r=3)), ids=str)
    def test_structural_invariants(self, M):
        for e in classify(M):
            boxes = e.tableau.box_factors()
            # flat part and semisimple part live on disjoint factors
            assert not (set(e.complement_factors) & boxes)
            assert set(e.complement_factors) | boxes == set(range(1, M.r + 1))
            # maximal-rank entries split into per-factor pieces
            if e.total_rank == M.r:
                assert all(len(row) == 1 for row in e.tableau.rows)
            for row, factor in zip(e.tableau.rows, e.semisimple_factors):
                # rows are homothety classes matching the reported factor
                for b in row:
                    assert are_homothetic(b.inclusion.sub, factor)
                    assert is_totally_geodesic(b.inclusion.sub, M.factor(b.factor))
            # every box targets the correct ambient factor
            assert e.tableau.is_adapted_to(M)

    @pytest.mark.parametrize("M", list(random_products(seed=29, count=6)), ids=str)
    def test_stream_size_is_within_the_stated_bound(self, M):
        # (r + 1) * Bell(r) * prod(1 + c_i), c_i the catalog classes of factor i
        classes = [len(list_totally_geodesic(f, include_improper=True)) for f in M.factors]
        assert all(c <= max(3 * f.n, 11) for c, f in zip(classes, M.factors))
        bell = [1, 1, 2, 5, 15][M.r]
        assert count_classes(M) <= (M.r + 1) * bell * math.prod(1 + c for c in classes)

    def test_row_curvatures_recompute(self):
        M = mixed_product(Fraction(5, 3), Fraction(7, 2), Fraction(2))
        for e in classify(M):
            for row, factor in zip(e.tableau.rows, e.semisimple_factors):
                assert factor.curvature == diagonal_curvature(
                    [b.inclusion.sub.curvature for b in row]
                )

    def test_stream_is_lazily_truncatable(self):
        import itertools
        import time

        # five quaternionic factors explode combinatorially; taking a few
        # entries must not materialize the whole stream
        heavy = ProductSpace(tuple(space("H", 4, 1) for _ in range(5)))
        start = time.perf_counter()
        first = list(itertools.islice(classify(heavy), 10))
        assert len(first) == 10
        assert time.perf_counter() - start < 1.0
