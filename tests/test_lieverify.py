import copy
import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geodiag.lieverify as lieverify_mod
from geodiag.catalog import TotGeodInclusion, space
from geodiag.cli import parse_product
from geodiag.tableaux import (
    AdaptedTableau,
    Box,
    ClassifiedSubmanifold,
    ProductSpace,
    classify,
    diagonal_curvature,
)
from geodiag.lieverify import (
    TOL_ARITHMETIC,
    ProductModel,
    SubspaceBasis,
    bracket,
    calibration_constant,
    check_element,
    construct_diagonal_cp,
    construct_grassmannian_product,
    grassmannian_decomp,
    is_lie_triple_system,
    kahler_angle_of,
    sectional_curvature,
    sphere_decomp,
    verify_classification_entry,
)

from lieverify_support import (
    bracket_relation_residuals,
    conjugated_basis,
    conjugated_decomp,
    model_bracket,
    random_special_unitary,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def full_p_basis(decomp):
    model = ProductModel.single(decomp)
    return SubspaceBasis(model, model.p_coords)


class TestBracket:
    def test_antisymmetry_on_equal_arguments(self):
        x = 1j * SIGMA_X / 2
        assert np.allclose(bracket(x, x), 0)

    def test_su2_generators_against_direct_multiplication(self):
        e, f = 1j * SIGMA_X / 2, 1j * SIGMA_Y / 2
        # oracle: multiply the 2x2 matrices by hand
        oracle = e @ f - f @ e
        assert np.allclose(oracle, -1j * SIGMA_Z / 2)
        assert np.allclose(bracket(e, f), oracle)

    def test_jacobi_identity(self):
        rng = np.random.default_rng(3)

        def rand_su(n):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (z - z.conj().T) / 2
            return a - np.trace(a) / n * np.eye(n)

        x, y, z = (rand_su(4) for _ in range(3))
        lhs = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        assert np.linalg.norm(lhs) <= 1e-12 * max(
            np.linalg.norm(m) for m in (x, y, z)
        ) ** 3 * 10

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bracket(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_element_validation(self):
        check_element(1j * SIGMA_Z)
        with pytest.raises(ValueError):
            check_element(SIGMA_X)  # Hermitian, not skew
        with pytest.raises(ValueError):
            check_element(1j * np.eye(2))  # skew-Hermitian but has trace


class TestCartanDecompositions:
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 5), (2, 2), (2, 3), (3, 3), (2, 10)])
    def test_grassmannian_bracket_relations(self, k, n):
        res = bracket_relation_residuals(grassmannian_decomp(k, n))
        assert max(res.values()) <= 1e-10

    @pytest.mark.parametrize("m", [2, 3, 5, 11])
    def test_sphere_bracket_relations(self, m):
        res = bracket_relation_residuals(sphere_decomp(m))
        assert max(res.values()) <= 1e-10

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 2), (3, 3)])
    def test_dimensions(self, k, n):
        d = grassmannian_decomp(k, n)
        assert d.p_dim == 2 * k * n
        assert len(d.k_basis) == k * k + n * n - 1

    def test_complex_structure_squares_to_minus_one(self):
        d = grassmannian_decomp(3, 3)
        for v in d.p_basis:
            jjv = bracket(d.J_generator, bracket(d.J_generator, v))
            assert np.linalg.norm(jjv + v) <= 1e-10


def classical_gram_schmidt(raw):
    """Reference orthonormalization: subtract the projections of each raw row, then normalize."""
    rows = []
    for v in np.asarray(raw, dtype=float):
        w = v - sum(((q @ v) * q for q in rows), np.zeros_like(v))
        rows.append(w / np.linalg.norm(w))
    return np.array(rows)


class TestClosedFormModels:
    @pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (3, 3), (14, 14)])
    def test_k_basis_is_an_orthonormal_basis_of_s_u_k_plus_u_n(self, k, n):
        K = grassmannian_decomp(k, n).k_basis
        assert len(K) == k * k + n * n - 1
        F = K.reshape(len(K), -1)
        np.testing.assert_allclose((F.conj() @ F.T).real, np.eye(len(K)), rtol=0, atol=1e-12)
        assert not K[:, :k, k:].any() and not K[:, k:, :k].any()
        check_element(K)

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (3, 3)])
    def test_cartan_generators_are_gram_schmidt_of_consecutive_differences(self, k, n):
        N = k + n
        raw = np.zeros((N - 1, N, N), dtype=complex)
        for a in range(N - 1):
            raw[a, a, a], raw[a, a + 1, a + 1] = 1j, -1j
        expected = classical_gram_schmidt(raw.view(float).reshape(N - 1, -1))
        cartan = np.ascontiguousarray(grassmannian_decomp(k, n).k_basis[-(N - 1) :])
        np.testing.assert_allclose(cartan.view(float).reshape(N - 1, -1), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (2, 3), (14, 14)])
    def test_complex_structure_is_the_closed_form(self, k, n):
        expected = 1j * np.diag([n] * k + [-k] * n) / (n + k)
        np.testing.assert_allclose(grassmannian_decomp(k, n).J_generator, expected, rtol=0, atol=1e-15)


class TestOrthonormalization:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_random_family_matches_classical_gram_schmidt(self, seed, dim):
        model = ProductModel((grassmannian_decomp(1, 3), sphere_decomp(4)), (1.0, 0.5))
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((dim, len(model.p_coords))) @ model.p_coords
        V = SubspaceBasis.orthonormalized(model, raw)
        np.testing.assert_allclose(V.coords, classical_gram_schmidt(raw), rtol=0, atol=1e-12)
        assert V.coords.flags.c_contiguous

    @pytest.mark.parametrize(
        "coefficients",
        [
            np.eye(6)[[0, 3, 5]],
            -3.0 * np.eye(6)[[4, 1]],
            np.triu(np.ones((6, 6))),
            np.tril(np.ones((6, 6))) * [1.0, -2.0, 3.0, -4.0, 5.0, -6.0],
        ],
    )
    def test_basis_aligned_family_matches_classical_gram_schmidt(self, coefficients):
        model = ProductModel.single(grassmannian_decomp(1, 3))
        raw = coefficients @ model.p_coords
        V = SubspaceBasis.orthonormalized(model, raw)
        np.testing.assert_allclose(V.coords, classical_gram_schmidt(raw), rtol=0, atol=1e-12)
        assert V.coords.flags.c_contiguous

    def test_remainders_are_measured_against_a_relative_floor(self):
        # the remainder of row 1 is 1e-9 * |b|; the floor is 1e-10 * max(1, |row 1|)
        a, b = np.eye(4)[:2]
        rows = lieverify_mod._orthonormal_rows(np.array([a, a + 1e-9 * b]))
        np.testing.assert_allclose(rows, np.array([a, b]), rtol=0, atol=1e-6)
        for raw in ([a, a + 1e-11 * b], [100.0 * a, 100.0 * a + 1e-9 * b]):
            with pytest.raises(ValueError, match="rank-deficient"):
                lieverify_mod._orthonormal_rows(np.array(raw))

    def test_more_rows_than_coordinates_raise(self):
        model = ProductModel.single(sphere_decomp(2))
        D = model.p_coords.shape[1]
        raw = np.random.default_rng(0).standard_normal((D + 1, D))
        with pytest.raises(ValueError, match="rank-deficient"):
            SubspaceBasis.orthonormalized(model, raw)


class TestModelIdentity:
    def test_models_compare_and_hash_by_identity(self):
        d = grassmannian_decomp(1, 2)
        copy_ = conjugated_decomp(d, np.eye(3))
        model, other = ProductModel.single(d), ProductModel.single(d)
        V = full_p_basis(d)
        W = SubspaceBasis(model, model.p_coords)
        for a, b in ((d, copy_), (model, other), (V, W)):
            assert a == a and b == b
            assert a != b
            assert hash(a) == hash(a) and len({a, b}) == 2
        assert grassmannian_decomp(1, 2) == d


class TestLieTripleSystem:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 2)])
    def test_full_p_is_a_triple_system(self, k, n):
        ok, residual = is_lie_triple_system(full_p_basis(grassmannian_decomp(k, n)), 1e-12)
        assert ok and residual <= 1e-12

    def test_single_vector_is_a_triple_system(self):
        d = grassmannian_decomp(2, 2)
        model = ProductModel.single(d)
        V = SubspaceBasis.orthonormalized(model, model.p_coords[:1])
        ok, residual = is_lie_triple_system(V)
        assert ok and residual == 0.0

    def test_random_plane_is_generically_not_a_triple_system(self):
        # seed recorded; every small seed gives residual far above tolerance
        d = grassmannian_decomp(2, 2)
        model = ProductModel.single(d)
        rng = np.random.default_rng(0)
        basis = model.p_coords
        W = SubspaceBasis.orthonormalized(model, rng.standard_normal((2, len(basis))) @ basis)
        ok, residual = is_lie_triple_system(W, 1e-9)
        assert not ok
        assert residual > 0.1

    def test_degenerate_family_rejected(self):
        d = grassmannian_decomp(1, 2)
        model = ProductModel.single(d)
        v = model.p_coords[0]
        with pytest.raises(ValueError):
            SubspaceBasis.orthonormalized(model, np.array([v, 2.0 * v]))


class TestSectionalCurvature:
    def test_projective_line_reads_the_anchor_value(self):
        V = full_p_basis(grassmannian_decomp(1, 1))
        sec = sectional_curvature(V, V.coords[0], V.coords[1])
        assert abs(sec - 4.0) <= 1e-12
        assert abs(calibration_constant() - 2.0) <= 1e-12

    def test_the_anchor_is_the_per_matrix_formula_exactly(self):
        x, y = grassmannian_decomp(1, 1).p_basis
        assert calibration_constant() == ref_raw_curvature((1.0,), (x,), (y,))

    def test_holomorphic_to_real_pinching_ratio(self):
        d = grassmannian_decomp(1, 3)
        V = full_p_basis(d)
        model = V.ambient
        x = model.p_coords[0]
        hol = sectional_curvature(V, x, model.J(x))
        real = sectional_curvature(V, x, model.p_coords[2])
        assert abs(hol / real - 4.0) <= 1e-10
        assert abs(hol - 4.0) <= 1e-12
        assert abs(real - 1.0) <= 1e-12

    def test_sphere_model_reads_one(self):
        V = full_p_basis(sphere_decomp(4))
        for i in range(V.dim):
            for j in range(i + 1, V.dim):
                assert abs(sectional_curvature(V, V.coords[i], V.coords[j]) - 1.0) <= 1e-12

    def test_diagonal_sphere_halves_the_curvature(self):
        V = construct_diagonal_cp(2, 2, 1)
        sec = sectional_curvature(V, V.coords[0], V.coords[1])
        assert abs(sec - 2.0) <= 1e-8  # half the projective-line anchor 4

    def test_dependent_plane_rejected(self):
        V = full_p_basis(grassmannian_decomp(1, 1))
        with pytest.raises(ValueError):
            sectional_curvature(V, V.coords[0], V.coords[0])

    def test_two_diagonal_curvatures_stay_in_the_pinched_interval(self):
        rng = np.random.default_rng(11)
        anchor = 4.0
        for s in (0, 1, 2):
            V = construct_diagonal_cp(2, s, 2)
            for _ in range(25):
                x = V.random_unit_vector(rng)
                y = V.random_unit_vector(rng)
                y = y - (x @ y) * x
                ny = math.sqrt(y @ y)
                if ny < 1e-6:
                    continue
                sec = sectional_curvature(V, x, y / ny)
                assert anchor / 8 - 1e-8 <= sec <= anchor / 2 + 1e-8


class TestKahlerAngle:
    def test_full_p_is_complex(self):
        d = grassmannian_decomp(2, 3)
        V = full_p_basis(d)
        v = V.random_unit_vector(np.random.default_rng(5))
        assert kahler_angle_of(V, v) <= 1e-12

    def test_totally_real_plane(self):
        d = grassmannian_decomp(1, 3)
        model = ProductModel.single(d)
        V = SubspaceBasis.orthonormalized(model, model.p_coords[[0, 2]])
        assert abs(kahler_angle_of(V, V.coords[0]) - math.pi / 2) <= 1e-12

    def test_three_diagonal_with_one_conjugation(self):
        V = construct_diagonal_cp(3, 1, 1)
        rng = np.random.default_rng(9)
        expected = math.acos(1 / 3)
        for _ in range(20):
            assert abs(kahler_angle_of(V, V.random_unit_vector(rng)) - expected) <= 1e-9

    def test_zero_vector_rejected(self):
        V = full_p_basis(grassmannian_decomp(1, 1))
        with pytest.raises(ValueError):
            kahler_angle_of(V, np.zeros(V.coords.shape[1]))

    def test_sphere_model_has_no_complex_structure(self):
        V = full_p_basis(sphere_decomp(3))
        with pytest.raises(ValueError):
            kahler_angle_of(V, V.coords[0])


class TestDiagonalCp:
    def test_one_copy_is_the_full_tangent_space(self):
        for s in (0, 1):
            V = construct_diagonal_cp(1, s, 2)
            assert V.dim == 4
            ok, _ = is_lie_triple_system(V, 1e-12)
            assert ok
            assert kahler_angle_of(V, V.coords[0]) <= 1e-12

    def test_two_copies_complex_versus_totally_real(self):
        rng = np.random.default_rng(4)
        complex_diag = construct_diagonal_cp(2, 2, 1)
        real_diag = construct_diagonal_cp(2, 1, 1)
        for _ in range(10):
            assert kahler_angle_of(complex_diag, complex_diag.random_unit_vector(rng)) <= 1e-12
            assert (
                abs(kahler_angle_of(real_diag, real_diag.random_unit_vector(rng)) - math.pi / 2)
                <= 1e-12
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sweep_matches_the_cosine_formula(self, k):
        rng = np.random.default_rng(k)
        for s in range(k + 1):
            for n in (1, 2):
                V = construct_diagonal_cp(k, s, n)
                ok, residual = is_lie_triple_system(V, 1e-9)
                assert ok, (k, s, n, residual)
                expected = math.acos(abs(2 * s - k) / k)
                for _ in range(10):
                    v = V.random_unit_vector(rng)
                    assert abs(kahler_angle_of(V, v) - expected) <= 1e-9


class TestRealizationsAgreeNumerically:
    # every rational cosine whose minimal realization fits in k <= 5
    @pytest.mark.parametrize(
        "q", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(3, 5)]
    )
    @pytest.mark.parametrize("m", [1, 2])
    def test_realized_cosine_matches_measured_angle(self, q, m):
        from geodiag.kahler import realize_angle

        r = realize_angle(q, m)
        assert r.k <= 5
        V = construct_diagonal_cp(r.k, r.s, r.m)
        rng = np.random.default_rng(int(q * 30) + m)
        expected = math.acos(float(q))
        for _ in range(10):
            v = V.random_unit_vector(rng)
            assert abs(kahler_angle_of(V, v) - expected) <= 1e-9


class TestGrassmannianProducts:
    def test_disjoint_lines_commute(self):
        for k in (2, 3):
            ambient = grassmannian_decomp(k, k)
            V = construct_grassmannian_product((1,) * k, ambient)
            ok, residual = is_lie_triple_system(V, 1e-10)
            assert ok, residual
            model = V.ambient
            for i in range(k):
                for j in range(i + 1, k):
                    for a in range(2):
                        for b in range(2):
                            br = model_bracket(model, V.coords[2 * i + a], V.coords[2 * j + b])
                            assert np.linalg.norm(br) <= 1e-12

    def test_single_part_is_full_p(self):
        ambient = grassmannian_decomp(1, 4)
        V = construct_grassmannian_product((4,), ambient)
        assert V.dim == ambient.p_dim

    def test_two_one_partition_in_g2c5(self):
        ambient = grassmannian_decomp(2, 3)
        V = construct_grassmannian_product((2, 1), ambient)
        assert V.dim == 6
        ok, residual = is_lie_triple_system(V, 1e-10)
        assert ok, residual
        for v in V.coords:
            assert V.span_residual(V.ambient.J(v)) <= 1e-10

    def test_shape_mismatch_rejected(self):
        ambient = grassmannian_decomp(2, 3)
        with pytest.raises(ValueError):
            construct_grassmannian_product((3,), ambient)
        with pytest.raises(ValueError):
            construct_grassmannian_product((2, 2), ambient)
        with pytest.raises(ValueError):
            construct_grassmannian_product((1, 2), ambient)


class TestIsometryInvariance:
    def test_conjugating_the_configuration_changes_nothing(self):
        rng = np.random.default_rng(21)
        V = construct_diagonal_cp(2, 1, 2)
        ok0, res0 = is_lie_triple_system(V)
        angle0 = kahler_angle_of(V, V.coords[0])
        gs = [random_special_unitary(3, rng) for _ in range(2)]
        W = conjugated_basis(V, gs)
        ok1, res1 = is_lie_triple_system(W)
        angle1 = kahler_angle_of(W, W.coords[0])
        assert ok0 and ok1
        assert abs(res0 - res1) <= 1e-10
        assert abs(angle0 - angle1) <= 1e-10

    def test_conjugated_grassmannian_product(self):
        rng = np.random.default_rng(22)
        ambient = grassmannian_decomp(2, 3)
        V = construct_grassmannian_product((2, 1), ambient)
        g = random_special_unitary(5, rng)
        W = conjugated_basis(V, [g])
        ok, residual = is_lie_triple_system(W, 1e-9)
        assert ok
        x, y = W.coords[0], V.coords[0]
        assert abs(
            sectional_curvature(W, x, W.ambient.J(x)) - sectional_curvature(V, y, V.ambient.J(y))
        ) <= 1e-10


class TestVerifyClassification:
    def test_diagonal_sphere_product(self):
        M = ProductSpace((space("R", 2, 1), space("R", 2, 1)))
        diag = [
            e
            for e in classify(M)
            if len(e.tableau.rows) == 1 and len(e.tableau.rows[0]) == 2 and e.flat_dim == 0
        ]
        assert len(diag) == 1
        report = verify_classification_entry(diag[0], M)
        assert report.status == "pass"
        assert abs(report.rows[0].curvature_measured - 0.5) <= 1e-8

    def test_three_diagonal_projective_line(self):
        M = ProductSpace(tuple(space("R", 2, 1) for _ in range(3)))
        diag = [
            e
            for e in classify(M)
            if len(e.tableau.rows) == 1 and len(e.tableau.rows[0]) == 3 and e.flat_dim == 0
        ]
        assert len(diag) == 1
        report = verify_classification_entry(diag[0], M)
        assert report.status == "pass"
        assert abs(report.rows[0].curvature_measured - 1 / 3) <= 1e-8

    def test_octonionic_factor_is_flagged_not_skipped(self):
        M = ProductSpace((space("O", 2, 1),))
        improper = [
            e for e in classify(M) if len(e.tableau.rows) == 1 and e.tableau.rows[0][0].inclusion.improper
        ]
        report = verify_classification_entry(improper[0], M)
        assert report.status == "unsupported"
        assert report.rows[0].status == "unsupported"
        assert "OH2" in report.rows[0].reason

    def test_whole_stream_on_complex_pair_passes(self):
        M = ProductSpace((space("C", 2, 1), space("C", 3, Fraction(1, 2))))
        for e in classify(M):
            report = verify_classification_entry(e, M)
            assert report.status == "pass", (e.isometry_type(), report.to_dict())

    def test_mixed_product_verifies_supported_rows(self):
        M = ProductSpace((space("R", 3, 1), space("C", 3, 2), space("H", 3, 1)))
        statuses = set()
        for e in classify(M):
            report = verify_classification_entry(e, M)
            assert not report.failed, (e.isometry_type(), report.to_dict())
            statuses.add(report.status)
        assert statuses == {"pass", "unsupported"}

    def test_measured_curvatures_match_the_exact_formula(self):
        M = ProductSpace((space("R", 2, Fraction(5, 3)), space("C", 2, Fraction(7, 4))))
        for e in classify(M):
            report = verify_classification_entry(e, M)
            assert report.status == "pass"
            for row, verdict in zip(e.tableau.rows, report.rows):
                expected = float(diagonal_curvature([b.inclusion.sub.curvature for b in row]))
                assert abs(verdict.curvature_measured - expected) <= 1e-8

    def test_compact_dual_products_verify_identically(self):
        M = ProductSpace((space("R", 2, 1, compact_dual=True), space("R", 2, 1, compact_dual=True)))
        for e in classify(M):
            assert verify_classification_entry(e, M).status == "pass"

    def test_report_status_aggregation(self):
        from geodiag.lieverify import EntryVerification, RowVerification

        M = ProductSpace((space("R", 2, 1),))
        entry = next(iter(classify(M)))  # the point
        ok_row = RowVerification(0, "r", "ok", None, 0.0, 1.0, 1.0, 0.0)
        bad_row = RowVerification(0, "r", "fail", "curvature off", 0.0, 1.0, 2.0, 1.0)
        unsup_row = RowVerification(0, "r", "unsupported", "no model", None, None, None, None)

        assert EntryVerification(entry, (ok_row,), 0.0).status == "pass"
        assert EntryVerification(entry, (bad_row,), 0.0).status == "fail"
        report = EntryVerification(entry, (unsup_row,), None)
        assert report.status == "unsupported" and not report.failed
        assert report.unsupported == ("row 0: no model",)
        # a bad total residual fails even when every row is fine
        assert EntryVerification(entry, (ok_row,), 1.0, "total too large").status == "fail"

    def test_entry_must_belong_to_the_product(self):
        M1 = ProductSpace((space("R", 2, 1), space("R", 2, 1)))
        M2 = ProductSpace((space("R", 3, 1), space("R", 3, 1)))
        entries1 = [e for e in classify(M1) if e.tableau.rows]
        with pytest.raises(ValueError):
            verify_classification_entry(entries1[0], M2)


# ---------------------------------------------------------------------------
# negative controls: wrong entries must fail, with the reason that broke
# ---------------------------------------------------------------------------


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass built without its validating constructor."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def forged_entry(M, rows):
    """An entry whose rows hold ``(factor, sub)`` pairs the catalog may refuse.

    Neither the inclusions nor the tableau are validated, so labels can be
    wrong and rows can mix classes that are not homothetic.
    """
    covered = {i for row in rows for i, _ in row}
    tableau = _unchecked(
        AdaptedTableau,
        rows=tuple(
            tuple(Box(i, _unchecked(TotGeodInclusion, sub=sub, ambient=M.factor(i))) for i, sub in row)
            for row in rows
        ),
    )
    complement = tuple(i for i in range(1, M.r + 1) if i not in covered)
    return ClassifiedSubmanifold(tuple(row[0][1] for row in rows), 0, tableau, complement)


def assert_reports_worst_plane(row, real):
    """The row reports a basis plane, whose error its ``curvature_error`` bounds.

    On a real row the tensor differs from its class's tensor by a multiple of
    the identity, so every plane, the worst basis plane too, is off by the bound.
    """
    assert row.planes is not None and row.planes >= 1
    off = abs(row.curvature_measured - row.curvature_expected)
    assert off <= row.curvature_error + 1e-15
    if real:
        assert abs(off - row.curvature_error) <= 1e-15


def row_tensor(M, row):
    """The calibrated curvature tensor on pairs of ``row``'s built basis."""
    return 4 / calibration_constant() * lieverify_mod._VerifyMemo.of(M).row(row).basis._triple_check.K


class TestNegativeControls:
    @pytest.mark.parametrize(
        "factors, rows, ratio",
        [
            # label 4x too large: a unit sphere claimed to have curvature 4
            ([space("R", 2, 1)], [[(1, space("R", 2, 4))]], 4),
            ([space("R", 2, 1)], [[(1, space("R", 2, Fraction(1, 4)))]], Fraction(1, 4)),
            (
                [space("R", 3, 1), space("R", 3, 1)],
                [[(1, space("R", 3, 4)), (2, space("R", 3, 4))]],
                4,
            ),
            ([space("C", 2, 1)], [[(1, space("C", 2, 4))]], 4),
            (
                [space("C", 3, 2), space("C", 2, 2)],
                [[(1, space("C", 2, Fraction(1, 2))), (2, space("C", 2, Fraction(1, 2)))]],
                Fraction(1, 4),
            ),
        ],
    )
    def test_curvature_label_off_by_four_fails(self, factors, rows, ratio):
        M = ProductSpace(tuple(factors))
        entry = forged_entry(M, rows)
        report = verify_classification_entry(entry, M)
        assert report.status == "fail"
        row = report.rows[0]
        assert row.status == "fail"
        assert row.reason.startswith("curvature off by"), row.reason
        assert row.lie_residual <= 1e-9
        assert abs(row.curvature_measured * float(ratio) - row.curvature_expected) <= 1e-9
        assert_reports_worst_plane(row, real=rows[0][0][1].field.value == "R")
        # the row's tensor K has the right shape at the true curvature, so its
        # class's tensor at the label's curvature is ratio * K, and E = (1 - ratio) K
        E = (1 - float(ratio)) * row_tensor(M, entry.tableau.rows[0])
        assert abs(row.curvature_error - np.linalg.norm(E, 2)) <= 1e-14

    @pytest.mark.parametrize(
        "factors, rows, broken",
        [
            # S^4 paired with CP^2: equal dimension, not homothetic, no triple system
            (
                [space("R", 4, 1), space("C", 2, 1)],
                [[(1, space("R", 4, 1)), (2, space("C", 2, 1))]],
                "Lie triple residual",
            ),
            # one box rescaled by a homothety: still a triple system, wrong curvature
            (
                [space("R", 2, 1), space("R", 2, 1)],
                [[(1, space("R", 2, 1)), (2, space("R", 2, Fraction(1, 2)))]],
                "curvature off by",
            ),
        ],
    )
    def test_wrong_homothety_class_fails_with_the_broken_check(self, factors, rows, broken):
        M = ProductSpace(tuple(factors))
        report = verify_classification_entry(forged_entry(M, rows), M)
        assert report.status == "fail"
        row = report.rows[0]
        assert row.status == "fail"
        assert row.reason.startswith(broken), row.reason
        assert (row.lie_residual > 1e-9) == (broken == "Lie triple residual")
        # only the triple system's tensor has its class's shape
        assert_reports_worst_plane(row, real=broken == "curvature off by")

    @pytest.mark.parametrize(
        "factors, label",
        [
            # the RH2(1) x RH2(1) diagonal is RH2(1/2)
            ([space("R", 2, 1), space("R", 2, 1)], space("R", 2, 7)),
            ([space("R", 2, 1), space("R", 2, 1)], space("C", 2, Fraction(1, 2))),
            ([space("R", 2, 1), space("R", 2, 1)], space("R", 3, Fraction(1, 2))),
            # the CH2(1) x CH2(1) complex diagonal is CH2(1/2)
            ([space("C", 2, 1), space("C", 2, 1)], space("C", 2, 1)),
            # no matrix model for HH2: the label is still checked
            ([space("H", 2, 1), space("H", 2, 1)], space("H", 2, 2)),
        ],
    )
    def test_relabelled_diagonal_fails_naming_both(self, factors, label):
        M = ProductSpace(tuple(factors))
        entry = next(
            e for e in classify(M)
            if len(e.tableau.rows) == 1 and len(e.tableau.rows[0]) == 2 and e.flat_dim == 0
            and e.tableau.rows[0][0].inclusion.improper and e.tableau.rows[0][1].inclusion.improper
        )
        diagonal = entry.semisimple_factors[0]
        assert verify_classification_entry(entry, M).status in ("pass", "unsupported")
        forged = dataclasses.replace(entry, semisimple_factors=(label,))
        report = verify_classification_entry(forged, M)
        assert report.status == "fail"
        row = report.rows[0]
        assert row.status == "fail"
        assert row.reason == f"label {label} differs from the row's diagonal {diagonal}"

    @pytest.mark.parametrize(
        "factors, rows, message",
        [
            # a complex row whose diagonal is not J-invariant
            (
                [space("C", 2, 1), space("C", 4, 1)],
                [[(1, space("C", 2, 1)), (2, space("R", 4, Fraction(1, 4)))]],
                "plane vectors must lie in the subspace",
            ),
            # a box class outside the catalog of its factor
            ([space("C", 3, 1)], [[(1, space("R", 3, 1))]], "no matrix model for RH3(1) inside CH3(1)"),
        ],
    )
    def test_unmeasurable_rows_fail_instead_of_raising(self, factors, rows, message):
        M = ProductSpace(tuple(factors))
        report = verify_classification_entry(forged_entry(M, rows), M)
        assert report.status == "fail"
        row = report.rows[0]
        assert row.status == "fail"
        assert row.reason == f"not measurable: {message}"
        assert row.lie_residual is None and row.planes is None

    @staticmethod
    def rows_sharing_a_factor(entries):
        entry = next(e for e in entries if e.tableau.shape == (1, 1))
        first, second = entry.tableau.rows
        tableau = AdaptedTableau(entry.tableau.rows)
        # bypasses tableau validation: both rows on the first row's factor
        object.__setattr__(tableau, "rows", (first, (Box(first[0].factor, second[0].inclusion),)))
        return dataclasses.replace(entry, tableau=tableau)

    @staticmethod
    def flat_direction_on_a_row_factor(entries):
        entry = next(e for e in entries if e.tableau.shape == (1,) and e.flat_dim == 1)
        forged = copy.copy(entry)
        # bypasses ClassifiedSubmanifold validation: the flat direction on the row's factor
        object.__setattr__(forged, "complement_factors", (entry.tableau.rows[0][0].factor,))
        return forged

    @pytest.mark.parametrize("forge", ["rows_sharing_a_factor", "flat_direction_on_a_row_factor"])
    @pytest.mark.parametrize("factors", [[("C", 2, 1), ("C", 2, 1)], [("R", 3, 2), ("R", 3, 2)]])
    def test_overlapping_factors_fail_instead_of_raising(self, forge, factors):
        M = ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        # improper boxes: the overlapping directions are linearly dependent
        entries = [
            e for e in classify(M) if all(b.inclusion.improper for row in e.tableau.rows for b in row)
        ]
        entry = getattr(self, forge)(entries)
        report = verify_classification_entry(entry, M)
        assert report.status == "fail"
        assert report.reason is not None and report.total_lie_residual is None
        assert [r.status for r in report.rows] == ["ok"] * len(entry.tableau.rows)
        shared = entry.tableau.rows[0][0].factor
        carried = {"rows_sharing_a_factor": "row 0 and row 1"}.get(forge, "row 0 and a flat direction")
        assert report.reason == f"factor {shared} carries {carried}"
        assert report.to_dict()["reason"] == report.reason

    def test_j_must_keep_every_vector_of_a_complex_row_inside(self, monkeypatch):
        # J moves only the odd basis vectors off the row, so every basis plane (e_a, J e_a) stays inside
        M = ProductSpace((space("C", 2, 1), space("C", 2, 1)))
        entry = next(
            e for e in classify(M)
            if len(e.tableau.rows) == 1 and len(e.tableau.rows[0]) == 2
            and e.semisimple_factors[0].field.value == "C"
        )
        J = ProductModel.J

        def leaky(model, C):
            out = J(model, C)
            off = model.p_coords - (model.p_coords @ C.T) @ C
            out[1::2] += 1e-3 * off[np.argmax(np.linalg.norm(off, axis=1))]
            return out

        monkeypatch.setattr(ProductModel, "J", leaky)
        report = verify_classification_entry(entry, M)
        assert report.status == "fail"
        assert report.rows[0].reason == "not measurable: plane vectors must lie in the subspace"

    def test_a_nan_curvature_fails(self, monkeypatch):
        M = ProductSpace((space("R", 3, 1), space("C", 2, 1)))
        monkeypatch.setattr(lieverify_mod, "calibration_constant", lambda: math.nan)
        _, reports = verify_all(M)
        assert any(report.rows for report in reports)
        for report in reports:
            assert report.status == ("fail" if report.rows else "pass")
            for row in report.rows:
                assert row.status == "fail" and row.reason == "curvature off by nan"

    def test_a_scaled_tensor_fails_every_row(self, monkeypatch):
        M = ProductSpace((space("R", 3, 1), space("C", 2, 1)))
        patch_tensor(monkeypatch, lambda K: 1.01 * K)
        entries, reports = verify_all(M)
        assert sum(len(e.tableau.rows) for e in entries)
        for e, report in zip(entries, reports):
            assert report.status == ("fail" if e.tableau.rows else "pass")
            for row in report.rows:
                assert row.status == "fail" and row.reason.startswith("curvature off by"), row.reason

    def test_an_off_diagonal_tensor_entry_fails_its_row(self, monkeypatch):
        # a basis plane's bivector is one pair, so it reads one diagonal entry K[p, p]
        delta = 1e-3  # on the calibrated tensor
        M = ProductSpace((space("R", 3, 1), space("C", 2, 1)))
        patch_tensor(monkeypatch, lambda K: off_diagonal_changed(K, delta))
        entries, reports = verify_all(M)
        memo = lieverify_mod._VerifyMemo.of(M)
        seen = Counter()
        for e, report in zip(entries, reports):
            for row, r in zip(e.tableau.rows, report.rows):
                assert abs(r.curvature_measured - r.curvature_expected) <= 1e-14
                pairs = len(memo.row(row).basis._triple_check.K)
                seen[pairs >= 2] += 1
                if pairs >= 2:
                    assert r.status == "fail" and r.reason.startswith("curvature off by"), r.reason
                    assert abs(r.curvature_error - delta) <= 1e-14
                else:
                    assert r.status == "ok"
        assert seen[True] and seen[False]

    def test_a_nan_tensor_entry_fails_without_raising(self, monkeypatch):
        # one NaN entry makes E not finite, on which eigvalsh would raise
        def with_nan(K):
            K = K.copy()
            K[-1, -1] = math.nan
            return K

        M = ProductSpace((space("R", 3, 1), space("C", 2, 1)))
        patch_tensor(monkeypatch, with_nan)
        entries, reports = verify_all(M)
        assert any(e.tableau.rows for e in entries)
        for e, report in zip(entries, reports):
            assert report.status == ("fail" if e.tableau.rows else "pass")
            for row in report.rows:
                assert row.status == "fail" and row.reason == "curvature off by nan", row.reason
                assert math.isnan(row.curvature_error)

    @pytest.mark.parametrize("delta", [0.0, 1e-3], ids=["as-built", "off-diagonal"])
    def test_the_bound_covers_random_planes(self, monkeypatch, delta):
        # orthonormal x, y span a plane of curvature kappa/4 (1 + 3 <x, J y>^2) in
        # CH^m of holomorphic curvature kappa, and of curvature kappa in RH^m
        if delta:
            patch_tensor(monkeypatch, lambda K: off_diagonal_changed(K, delta))
        M = ProductSpace((space("C", 3, 1), space("C", 3, 2), space("R", 3, 1)))
        memo = lieverify_mod._VerifyMemo.of(M)
        rng = np.random.default_rng(0)
        bounds = []
        for row in {id(row): row for e in classify(M) for row in e.tableau.rows}.values():
            built, kappa = memo.row(row), float(memo.exact(row))
            V = built.basis
            xs = np.array([V.random_unit_vector(rng) for _ in range(8)])
            ys = np.array([V.random_unit_vector(rng) for _ in range(8)])
            ys -= np.einsum("ni,ni->n", xs, ys)[:, None] * xs
            ys /= np.linalg.norm(ys, axis=1)[:, None]
            if row[0].inclusion.sub.field.value == "C":
                model = kappa / 4 * (1 + 3 * np.einsum("ni,ni->n", xs, V.ambient.J(ys)) ** 2)
            else:
                model = np.full(len(xs), kappa)
            off = np.abs(sectional_curvature(V, xs, ys) - model)
            assert np.max(off) <= built.curvature_bound + 1e-14
            bounds.append(built.curvature_bound)
        assert bounds and max(bounds) <= delta + 1e-14
        assert max(bounds) >= delta - 1e-14

    def test_passing_rows_report_their_worst_plane(self):
        M = ProductSpace((space("R", 3, 1), space("R", 3, 2)))
        for e in classify(M):
            report = verify_classification_entry(e, M)
            assert report.status == "pass"
            for row, record in zip(report.rows, report.to_dict()["rows"]):
                assert_reports_worst_plane(row, real=True)
                assert record["planes"] == row.planes

    def test_random_three_plane_of_cp3_is_not_a_triple_system(self):
        d = grassmannian_decomp(1, 3)
        model = ProductModel.single(d)
        rng = np.random.default_rng(13)
        basis = model.p_coords
        V = SubspaceBasis.orthonormalized(model, rng.standard_normal((3, len(basis))) @ basis)
        ok, residual = is_lie_triple_system(V, 1e-9)
        assert not ok
        assert residual > 1e-9

    def test_rank_deficient_family_still_raises(self):
        d = grassmannian_decomp(1, 3)
        model = ProductModel.single(d)
        a, b = model.p_coords[0], model.p_coords[3]
        with pytest.raises(ValueError):
            SubspaceBasis.orthonormalized(model, np.array([a, b, a - 2.0 * b]))
        with pytest.raises(ValueError):
            SubspaceBasis.orthonormalized(model, np.array([a, 1e-11 * a]))


# ---------------------------------------------------------------------------
# the per-product row memo: each row is built once, each entry still measured
# ---------------------------------------------------------------------------


def patch_tensor(monkeypatch, change):
    """Make every basis triple-checked from now on hold ``change(K)`` as its curvature tensor."""
    check = SubspaceBasis._triple_check.func

    def changed(V):
        result = check(V)
        return result._replace(K=change(result.K))

    prop = functools.cached_property(changed)
    prop.__set_name__(SubspaceBasis, "_triple_check")
    monkeypatch.setattr(SubspaceBasis, "_triple_check", prop)


def off_diagonal_changed(K, delta):
    """``K`` with ``delta`` added to the calibrated entries ``K[0, 1]`` and ``K[1, 0]``."""
    if len(K) < 2:
        return K
    K = K.copy()
    K[0, 1] += delta * calibration_constant() / 4
    K[1, 0] += delta * calibration_constant() / 4
    return K


def verify_all(M, **kw):
    entries = list(classify(M))
    return entries, [verify_classification_entry(e, M, **kw) for e in entries]


def assert_same_report(a, b):
    """Equal verdicts, reasons and plane counts; floats within 1e-12."""

    def walk(x, y):
        if isinstance(x, float) or isinstance(y, float):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (x, y)
        elif isinstance(x, dict):
            assert x.keys() == y.keys()
            for key in x:
                walk(x[key], y[key])
        elif isinstance(x, list):
            assert len(x) == len(y)
            for u, v in zip(x, y):
                walk(u, v)
        else:
            assert x == y

    walk(a.to_dict(), b.to_dict())


class TestRowMemo:
    @staticmethod
    def counted_verify(monkeypatch, M):
        calls = {"orthonormalized": 0, "lie_triple": 0}
        orthonormalized = SubspaceBasis.__dict__["orthonormalized"].__func__
        lie_triple = lieverify_mod.is_lie_triple_system

        def counting_orthonormalized(cls, ambient, raw):
            calls["orthonormalized"] += 1
            return orthonormalized(cls, ambient, raw)

        def counting_lie_triple(V, tol=1e-9):
            calls["lie_triple"] += 1
            return lie_triple(V, tol)

        with monkeypatch.context() as patch:
            patch.setattr(SubspaceBasis, "orthonormalized", classmethod(counting_orthonormalized))
            patch.setattr(lieverify_mod, "is_lie_triple_system", counting_lie_triple)
            entries, reports = verify_all(M)
        return entries, reports, calls

    @pytest.mark.parametrize(
        "factors",
        [
            [("C", 2, 1), ("C", 2, 1)],
            [("C", 2, 1), ("R", 3, 1), ("R", 2, Fraction(1, 2))],
        ],
    )
    def test_each_row_built_once(self, monkeypatch, factors):
        make = lambda: ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        M = make()
        entries, reports, calls = self.counted_verify(monkeypatch, M)
        assert all(r.status == "pass" for r in reports)
        distinct_rows = {row for e in entries for row in e.tableau.rows}
        expected = len(distinct_rows)
        assert calls == {"orthonormalized": expected, "lie_triple": expected}
        assert sum(len(e.tableau.rows) for e in entries) > len(distinct_rows)
        # an equal but fresh product builds its own memo and repeats the counts
        _, again, calls_again = self.counted_verify(monkeypatch, make())
        assert calls_again == calls
        for a, b in zip(reports, again):
            assert_same_report(a, b)
        # the memo lives on the product and is dropped with it
        product = weakref.ref(M)
        del M
        gc.collect()
        assert product() is None

    @pytest.mark.parametrize(
        "factors",
        [
            [("C", 3, 1), ("C", 3, 1)],
            [("R", 2, 1), ("R", 3, 2), ("R", 2, Fraction(1, 2))],
            [("C", 2, 1), ("R", 4, Fraction(1, 3))],
        ],
    )
    def test_memo_agrees_with_fresh_rows(self, factors):
        M = ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        for e in classify(M):
            clone = copy.deepcopy(e)
            assert all(a is not b for a, b in zip(e.tableau.rows, clone.tableau.rows))
            memo = verify_classification_entry(e, M)
            fresh = verify_classification_entry(clone, M)
            assert memo.status == "pass"
            assert_same_report(memo, fresh)

    def test_relabelled_entry_fails_on_a_hot_memo(self, monkeypatch):
        M = ProductSpace((space("C", 2, 1), space("C", 2, 1)))
        entry = next(
            e for e in classify(M)
            if len(e.tableau.rows) == 1 and len(e.tableau.rows[0]) == 2 and e.flat_dim == 0
            and e.semisimple_factors[0].field.value == "C"
        )
        assert verify_classification_entry(entry, M).status == "pass"
        forged = dataclasses.replace(entry, semisimple_factors=(space("C", 2, 1),))
        built = []
        orthonormalized = SubspaceBasis.__dict__["orthonormalized"].__func__

        def counting(cls, ambient, raw):
            built.append(len(raw))
            return orthonormalized(cls, ambient, raw)

        with monkeypatch.context() as patch:
            patch.setattr(SubspaceBasis, "orthonormalized", classmethod(counting))
            report = verify_classification_entry(forged, M)
        assert built == []  # the row came from the memo
        row = report.rows[0]
        assert report.status == "fail" and row.status == "fail"
        assert row.reason == "label CH2(1) differs from the row's diagonal CH2(1/2)"

    def test_tolerance_is_compared_on_every_call(self):
        # unequal curvatures leave rounding in some rows' residuals and none in others
        M = ProductSpace((space("C", 3, 1), space("C", 3, 2)))
        _, first = verify_all(M)
        assert all(r.status == "pass" for r in first)
        _, strict = verify_all(M, lie_tol=1e-30)
        flipped = 0
        for a, b in zip(first, strict):
            for ra, rb in zip(a.rows, b.rows):
                assert ra.lie_residual == rb.lie_residual
                if ra.lie_residual > 1e-30:
                    flipped += 1
                    assert rb.status == "fail"
                    assert rb.reason == f"Lie triple residual {rb.lie_residual:.3e} exceeds 1.0e-30"
                else:
                    assert rb.status == "ok"
        assert flipped > 0


# ---------------------------------------------------------------------------
# the entry total, derived from its rows, against the whole-subspace check
# ---------------------------------------------------------------------------


def whole_subspace_residual(M, entry):
    """Triple residual of the entry's rows and flat directions checked as one subspace.

    Each row's basis goes onto its factors' blocks of the model of the whole
    product, with one ``p`` vector per flat factor; the stack is
    orthonormalized and triple-checked as a whole.  None for the point.
    Factor ``i`` is block ``i - 1`` of that model, and a block's
    coordinates carry its weight, so rows are copied block by block.
    """
    memo = lieverify_mod._VerifyMemo.of(M)
    model = memo.model(tuple(range(1, M.r + 1)))
    starts = model._offsets
    vectors = []
    for row in entry.tableau.rows:
        basis = memo.row(row).basis
        own = basis.ambient._offsets
        for c in basis.coords:
            u = np.zeros(starts[-1])
            for k, box in enumerate(row):
                u[starts[box.factor - 1] : starts[box.factor]] = c[own[k] : own[k + 1]]
            vectors.append(u)
    first_p = np.cumsum([0] + [b.p_dim for b in model.blocks])
    vectors += [model.p_coords[first_p[i - 1]] for i in entry.complement_factors[: entry.flat_dim]]
    if not vectors:
        return None
    return is_lie_triple_system(SubspaceBasis.orthonormalized(model, np.array(vectors)))[1]


class TestDerivedTotal:
    @pytest.mark.parametrize(
        "factors",
        [
            [("C", 3, 1), ("C", 3, 1)],
            [("R", 2, 1), ("C", 3, 2), ("R", 3, Fraction(1, 2))],
        ],
    )
    def test_total_is_the_whole_subspace_residual(self, factors):
        M = ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        entries, reports = verify_all(M)
        for e, report in zip(entries, reports):
            assert report.status == "pass" and report.reason is None
            whole = whole_subspace_residual(M, e)
            if not e.tableau.rows:
                assert report.total_lie_residual == (0.0 if e.flat_dim else None)
            if whole is None:
                assert report.total_lie_residual is None
            else:
                assert abs(report.total_lie_residual - whole) <= 1e-15, e.isometry_type()

    def test_total_of_an_entry_with_a_broken_row(self):
        # S^4 paired with CP^2 is no triple system; a sound row and a flat direction beside it
        M = ProductSpace((space("R", 4, 1), space("C", 2, 1), space("R", 3, 1), space("R", 2, 1)))
        entry = forged_entry(M, [[(1, space("R", 4, 1)), (2, space("C", 2, 1))], [(3, space("R", 3, 1))]])
        entry = dataclasses.replace(entry, flat_dim=1)
        report = verify_classification_entry(entry, M)
        assert [r.status for r in report.rows] == ["fail", "ok"]
        assert report.status == "fail" and report.reason is not None
        assert report.total_lie_residual == report.rows[0].lie_residual > 1e-9
        assert abs(report.total_lie_residual - whole_subspace_residual(M, entry)) <= 1e-15
        assert report.reason == (
            f"total Lie triple residual {report.total_lie_residual:.3e} exceeds 1.0e-09"
        )

    @pytest.mark.parametrize("product", ["HH2(1) x HH2(1)", "RH2(1) x OH2(1)"])
    def test_total_is_null_when_a_row_was_not_measured(self, product):
        M = parse_product(product)
        entries, reports = verify_all(M)
        unmeasured = 0
        for e, report in zip(entries, reports):
            assert report.reason is None
            if any(r.lie_residual is None for r in report.rows):
                unmeasured += 1
                assert report.status == "unsupported"
                assert report.total_lie_residual is None, e.isometry_type()
            elif e.tableau.rows or e.flat_dim:
                assert report.total_lie_residual is not None, e.isometry_type()
        assert unmeasured

    def test_only_failing_records_carry_a_reason(self):
        M = ProductSpace((space("C", 2, 1), space("R", 3, 1)))
        _, reports = verify_all(M)
        assert all(r.status == "pass" and r.reason is None for r in reports)
        assert all("reason" not in r.to_dict() for r in reports)
        # a failing row alone gives the entry no reason of its own
        entry = next(e for e in classify(M) if e.tableau.shape == (1,))
        label = entry.semisimple_factors[0]
        wrong = dataclasses.replace(entry, semisimple_factors=(space(label.field.value, label.n, 7),))
        report = verify_classification_entry(wrong, M)
        assert report.status == "fail"
        assert report.rows[0].reason.startswith("label ")
        assert report.reason is None and report.to_dict()["reason"] is None


class TestFlatDirections:
    @pytest.mark.parametrize(
        "spec", ["RH3(1) x CH3(2) x HH3(1)", "RH2(1) x OH2(1)", "OH2(1)", "HH2(1) x HH2(1)"]
    )
    def test_verdicts_follow_the_rows_alone(self, spec):
        M = parse_product(spec)
        modelled = {i for i in range(1, M.r + 1) if M.factor(i).field.value in "RC"}
        entries, reports = verify_all(M)
        flat_on_unmodelled = 0
        for e, report in zip(entries, reports):
            on_models = all(b.factor in modelled for row in e.tableau.rows for b in row)
            assert report.status == ("pass" if on_models else "unsupported"), e.isometry_type()
            flat = e.complement_factors[: e.flat_dim]
            flat_on_unmodelled += on_models and any(i not in modelled for i in flat)
            # only rows are ever unsupported
            assert report.unsupported == tuple(
                f"row {r.row_index}: {r.reason}" for r in report.rows if r.status == "unsupported"
            )
            record = report.to_dict()
            assert record["flat_supported"] is True and record["flat_dim"] == e.flat_dim
        assert flat_on_unmodelled

    def test_a_basis_is_triple_checked_once(self, monkeypatch):
        calibration_constant()  # cached before counting: its first call takes two brackets
        calls = Counter()
        real = lieverify_mod.bracket

        def counting(x, y):
            calls["bracket"] += 1
            return real(x, y)

        monkeypatch.setattr(lieverify_mod, "bracket", counting)
        V = construct_diagonal_cp(3, 1, 2)
        first = is_lie_triple_system(V)
        assert calls["bracket"] > 0
        calls.clear()
        assert is_lie_triple_system(V) == first
        assert is_lie_triple_system(V, 0.0) == (first[1] <= 0.0, first[1])
        sectional_curvature(V, V.coords[0], V.coords[1])
        assert calls["bracket"] == 0


class TestModelSizeLimit:
    @pytest.mark.parametrize(
        "factors, size",
        [([("R", 17, 1)], 18), ([("C", 8, 1), ("C", 8, 1)], 18), ([("C", 5, 1), ("H", 9, 1)], 6)],
    )
    def test_products_up_to_the_limit_are_accepted(self, factors, size):
        M = ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        assert size <= lieverify_mod.MAX_MODEL_SIZE == 18
        point = next(classify(M))
        assert verify_classification_entry(point, M).status == "pass"

    @pytest.mark.parametrize(
        "factors, size",
        [([("R", 18, 1)], 19), ([("C", 9, 1), ("R", 9, 1)], 20), ([("R", 100000, 1)], 100001)],
    )
    def test_larger_products_raise_before_any_model_is_built(self, monkeypatch, factors, size):
        def refuse(*args):
            raise AssertionError("a matrix model was built")

        monkeypatch.setattr(lieverify_mod, "sphere_decomp", refuse)
        monkeypatch.setattr(lieverify_mod, "grassmannian_decomp", refuse)
        M = ProductSpace(tuple(space(f, n, c) for f, n, c in factors))
        point = next(classify(M))
        with pytest.raises(ValueError) as exc:
            verify_classification_entry(point, M)
        assert str(exc.value) == f"{M} needs matrix models of total size {size}; verify builds at most 18"


# ---------------------------------------------------------------------------
# the curvature tensor: planes are measured by contraction, not by brackets
# ---------------------------------------------------------------------------


def built_rows(M):
    """Every distinct row of ``M``'s classification, built once in its verify memo."""
    memo = lieverify_mod._VerifyMemo.of(M)
    rows = {id(row): row for e in classify(M) for row in e.tableau.rows}
    return [memo.row(row) for row in rows.values()]


def direct_curvature(V, X, Y):
    """The calibrated curvature of planes X[n], Y[n] by the per-matrix bracket formula."""
    blocks, weights = V.ambient.blocks, V.ambient.weights
    matrices = lambda c: ref_matrices(blocks, weights, c)
    return np.array([ref_curvature(weights, matrices(x), matrices(y)) for x, y in zip(X, Y)])


def mixed_three_plane_of_cp2():
    # e_0, J e_0, e_1: the triple bracket [[e_0, J e_0], e_1] lies along J e_1
    model = ProductModel.single(grassmannian_decomp(1, 2))
    return SubspaceBasis.orthonormalized(model, model.p_coords[:3])


def assert_contraction_is_direct(V, rng):
    # orthonormal pairs, as the verifier samples: a nearly dependent pair would
    # make both formulas lose digits to cancellation in |x|^2 |y|^2 - <x, y>^2
    a, b = rng.standard_normal((2, 5, V.dim))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b -= np.einsum("ij,ij->i", a, b)[:, None] * a
    b /= np.linalg.norm(b, axis=1)[:, None]
    X, Y = a @ V.coords, b @ V.coords
    np.testing.assert_allclose(sectional_curvature(V, X, Y), direct_curvature(V, X, Y), rtol=1e-12, atol=0)


class TestCurvatureTensor:
    @pytest.mark.parametrize("spec", ["CH3(1) x CH3(2)", "RH2(1) x RH4(7)", "CH4(1) x CH4(1) x RH4(1)"])
    def test_contraction_is_the_direct_formula_on_every_built_row(self, spec):
        rng = np.random.default_rng(17)
        bases = [built.basis for built in built_rows(parse_product(spec)) if built.basis.dim >= 2]
        assert bases
        for V in bases:
            assert_contraction_is_direct(V, rng)

    def test_contraction_is_the_direct_formula_off_a_triple_system(self):
        V = mixed_three_plane_of_cp2()
        ok, residual = is_lie_triple_system(V)
        assert not ok and abs(residual - 1.0) <= 1e-12
        assert_contraction_is_direct(V, np.random.default_rng(18))
        # with no check run, the basis computes the same tensor itself
        fresh = mixed_three_plane_of_cp2()
        assert "_triple_check" not in vars(fresh)
        np.testing.assert_array_equal(fresh._triple_check.K, V._triple_check.K)

    def test_nearly_dependent_planes_keep_their_digits(self):
        # x and cos(t) x + sin(t) z span the plane of the orthonormal pair x, z
        rng = np.random.default_rng(19)
        bases = [b.basis for b in built_rows(parse_product("CH4(1) x CH4(1) x RH4(1)")) if b.basis.dim >= 2]
        assert bases
        t = 1e-4
        for V in bases:
            a, b = rng.standard_normal((2, 3, V.dim))
            a /= np.linalg.norm(a, axis=1)[:, None]
            b -= np.einsum("ij,ij->i", a, b)[:, None] * a
            b /= np.linalg.norm(b, axis=1)[:, None]
            X, Z = a @ V.coords, b @ V.coords
            tilted = sectional_curvature(V, X, math.cos(t) * X + math.sin(t) * Z)
            np.testing.assert_allclose(tilted, sectional_curvature(V, X, Z), rtol=1e-11, atol=0)

    def test_planes_off_the_span_and_dependent_planes_are_rejected(self):
        V = mixed_three_plane_of_cp2()
        e0, Je1 = V.coords[0], V.ambient.p_coords[3]
        with pytest.raises(ValueError, match="^plane vectors must lie in the subspace$"):
            sectional_curvature(V, e0, Je1)
        with pytest.raises(ValueError, match="^plane vectors must lie in the subspace$"):
            sectional_curvature(V, np.array([e0, Je1]), np.array([V.coords[1], V.coords[2]]))
        with pytest.raises(ValueError, match="^sectional curvature of linearly dependent vectors$"):
            sectional_curvature(V, e0, -2.0 * e0)

    def test_a_built_product_verifies_again_without_brackets(self, monkeypatch):
        M = ProductSpace((space("C", 3, 1), space("C", 3, 2), space("R", 3, 1)))
        calls = Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for owner, attr in [
                (lieverify_mod, "bracket"),
                (ProductModel, "_split"),
                (ProductModel, "J"),
                (lieverify_mod, "is_lie_triple_system"),
                (lieverify_mod, "sectional_curvature"),
            ]:
                patch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
            orthonormalized = SubspaceBasis.__dict__["orthonormalized"].__func__
            patch.setattr(SubspaceBasis, "orthonormalized", classmethod(counting("orthonormalized", orthonormalized)))
            entries, first = verify_all(M)
            cold = dict(calls)
            calls.clear()
            _, again = verify_all(M)
            hot = dict(calls)
        distinct = {id(row) for e in entries for row in e.tableau.rows}
        measured = sum(len(e.tableau.rows) for e in entries)
        assert cold["orthonormalized"] == cold["is_lie_triple_system"] == len(distinct)
        assert cold["sectional_curvature"] == len(distinct) < measured
        assert hot == {}
        for a, b in zip(first, again):
            assert a.status == b.status == "pass"
        # each built row keeps its tensor, not its (pairs * dim, D) brackets
        checked = 0
        for _, built in lieverify_mod._VerifyMemo.of(M)._built.values():
            V = built.basis
            pairs = V.dim * (V.dim - 1) // 2
            assert V._triple_check.K.shape == (pairs, pairs)
            if V.dim >= 3:
                held = [a for a in (*built, *vars(V).values()) if isinstance(a, np.ndarray)]
                assert all(len(a) != pairs * V.dim for a in held)
                checked += 1
        assert checked


class TestAccuracyGates:
    @pytest.mark.parametrize(
        "spec", ["CH2(1) x CH2(1)", "CH3(1) x CH3(1)", "CH6(1) x CH6(1)", "CH4(1) x CH4(1) x RH4(1)"]
    )
    def test_every_row_measures_its_curvature_within_1e_13(self, spec):
        _, reports = verify_all(parse_product(spec))
        assert all(report.status == "pass" for report in reports)
        errors = [row.curvature_error for report in reports for row in report.rows]
        assert errors and max(errors) <= 1e-13

    @pytest.mark.parametrize("spec", ["CH3(1) x CH3(2) x RH3(1)", "CH4(1) x RH4(1/2)"])
    def test_every_row_tensor_is_its_class_tensor_within_1e_14(self, spec):
        bounds = [built.curvature_bound for built in built_rows(parse_product(spec))]
        assert bounds and max(bounds) <= 1e-14


# ---------------------------------------------------------------------------
# equivalence with a plain per-matrix reference
# ---------------------------------------------------------------------------
#
# The reference below reads coordinate rows into per-block matrices itself
# (``ref_matrices``), sees only those, the weights and the complex-structure
# generators, and recomputes everything with loops over the blocks' matrices.


def ref_matrices(blocks, weights, c):
    """One matrix per block of the coordinate row ``c``.

    Block b holds ``2 N_b^2`` coordinates: ``sqrt(w_b)`` times the
    interleaved real and imaginary parts of its row-major matrix.
    """
    out, lo = [], 0
    for block, w in zip(blocks, weights):
        hi = lo + 2 * block.N**2
        out.append((c[lo:hi] / math.sqrt(w)).view(complex).reshape(block.N, block.N))
        lo = hi
    assert lo == len(c)
    return tuple(out)


def ref_inner(weights, u, v):
    return sum(w * float(np.real(np.vdot(a, b))) for w, a, b in zip(weights, u, v))


def ref_comm(u, v):
    return tuple(a @ b - b @ a for a, b in zip(u, v))


def ref_remainder(weights, vectors, u):
    rem = u
    for b in vectors:
        c = ref_inner(weights, b, u)
        rem = tuple(r - c * m for r, m in zip(rem, b))
    return rem


def ref_norm(weights, u):
    return math.sqrt(max(ref_inner(weights, u, u), 0.0))


def ref_triple_residual(weights, vectors):
    triples = [
        ref_comm(ref_comm(vectors[i], vectors[j]), vectors[l])
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
        for l in range(len(vectors))
    ]
    norms = [ref_norm(weights, t) for t in triples]
    floor = 1e-12 * max(max(norms, default=0.0), 1.0)
    return max(
        (
            ref_norm(weights, ref_remainder(weights, vectors, t)) / n
            for t, n in zip(triples, norms)
            if n > floor
        ),
        default=0.0,
    )


def ref_raw_curvature(weights, x, y):
    num = -ref_inner(weights, ref_comm(ref_comm(x, y), y), x)
    xx, yy, xy = ref_inner(weights, x, x), ref_inner(weights, y, y), ref_inner(weights, x, y)
    return num / (xx * yy - xy**2)


def ref_curvature(weights, x, y):
    line = grassmannian_decomp(1, 1).p_basis
    anchor = ref_raw_curvature((1.0,), (line[0],), (line[1],))
    return 4.0 / anchor * ref_raw_curvature(weights, x, y)


def ref_kahler_angle(weights, generators, vectors, v):
    jv = tuple(g @ a - a @ g for g, a in zip(generators, v))
    normal = ref_remainder(weights, vectors, jv)
    tangential = tuple(a - b for a, b in zip(jv, normal))
    return math.atan2(ref_norm(weights, normal), ref_norm(weights, tangential))


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


MODEL_CHOICES = [("G", 1, 1), ("G", 1, 2), ("G", 2, 2), ("G", 1, 3), ("S", 2), ("S", 3)]


def model_of(choice):
    return grassmannian_decomp(choice[1], choice[2]) if choice[0] == "G" else sphere_decomp(choice[1])


@st.composite
def random_block_lists(draw):
    """1-3 blocks drawn freely, or with one block repeated 2-5 times in a row, or A, B, A.

    Equal choices give the same cached model object, so a repeated block is
    a run of identical blocks and A, B, A holds A twice, apart.
    """
    chosen = draw(st.lists(st.sampled_from(MODEL_CHOICES), min_size=1, max_size=3))
    layout = draw(st.sampled_from(["free", "run", "apart"]))
    if layout == "run":
        at = draw(st.integers(0, len(chosen) - 1))
        chosen[at : at + 1] = [chosen[at]] * draw(st.integers(2, 5))
    elif layout == "apart":
        a, b = draw(st.lists(st.sampled_from(MODEL_CHOICES), min_size=2, max_size=2, unique=True))
        chosen = [a, b, a]
    return [model_of(c) for c in chosen]


@st.composite
def random_subspaces(draw):
    blocks = tuple(draw(random_block_lists()))
    # pairwise different weights, so a run of identical blocks carries several
    weights = tuple(draw(st.lists(st.floats(0.25, 4.0), min_size=len(blocks), max_size=len(blocks), unique=True)))
    model = ProductModel(blocks, weights)
    basis = model.p_coords
    dim = draw(st.integers(1, min(4, len(basis))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # aligned with the canonical basis: structural zeros and exact triple systems occur
        picks = rng.choice(len(basis), size=dim, replace=False)
        raw = basis[np.sort(picks)]
    else:
        raw = rng.standard_normal((dim, len(basis))) @ basis
    return SubspaceBasis.orthonormalized(model, raw), rng


class TestAgreesWithPerMatrixReference:
    @settings(max_examples=60, deadline=None)
    @given(random_subspaces())
    def test_gram_triples_curvature_and_angle(self, case):
        V, rng = case
        blocks, weights = V.ambient.blocks, V.ambient.weights
        vectors = [ref_matrices(blocks, weights, c) for c in V.coords]
        gram = np.array([[ref_inner(weights, a, b) for b in vectors] for a in vectors])
        assert np.max(np.abs(gram - np.eye(V.dim))) <= 1e-12

        _, residual = is_lie_triple_system(V)
        assert close(residual, ref_triple_residual(weights, vectors))

        if V.dim >= 2:
            expected = ref_curvature(weights, vectors[0], vectors[1])
            assert close(sectional_curvature(V, V.coords[0], V.coords[1]), expected)

        generators = [b.J_generator for b in blocks]
        if all(g is not None for g in generators):
            v = V.random_unit_vector(rng)
            expected = ref_kahler_angle(weights, generators, vectors, ref_matrices(blocks, weights, v))
            assert close(kahler_angle_of(V, v), expected)


# ---------------------------------------------------------------------------
# runs of identical blocks
# ---------------------------------------------------------------------------


class TestRuns:
    def test_consecutive_identical_blocks_form_one_run(self):
        A, B = grassmannian_decomp(1, 2), sphere_decomp(3)
        model = ProductModel((A, A, A, B, A), (1.0, 2.0, 0.5, 1.0, 3.0))
        runs = model._runs
        assert [(r.block, r.count) for r in runs] == [(A, 3), (B, 1), (A, 1)]
        assert [(r.lo, r.hi) for r in runs] == [(0, 54), (54, 86), (86, 104)]
        np.testing.assert_array_equal(runs[0].roots, np.repeat(np.sqrt([1.0, 2.0, 0.5]), 18))
        # an equal but distinct model is another block
        other = conjugated_decomp(A, np.eye(3))
        assert [r.count for r in ProductModel((A, other), (1.0, 1.0))._runs] == [1, 1]

    @settings(max_examples=30, deadline=None)
    @given(random_block_lists(), st.integers(0, 2**32 - 1))
    def test_split_and_join_agree_with_per_block_matrices(self, blocks, seed):
        rng = np.random.default_rng(seed)
        weights = tuple(rng.uniform(0.25, 4.0, len(blocks)))
        model = ProductModel(tuple(blocks), weights)
        C = rng.standard_normal((2, 3, model._offsets[-1]))
        stacks = model._split(C)
        assert [s.shape for s in stacks] == [(2, 3, r.count, r.block.N, r.block.N) for r in model._runs]
        per_block = [m for s in stacks for m in np.moveaxis(s, -3, 0)]
        for n, _ in np.ndenumerate(C[..., 0]):
            for mine, ref in zip(per_block, ref_matrices(blocks, weights, C[n])):
                np.testing.assert_allclose(mine[n], ref, rtol=1e-15, atol=0)
        np.testing.assert_allclose(model._join(stacks), C, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(model._join(model._per_run(per_block)), model._join(stacks))

    def test_per_block_loops_stay_out_of_the_diagonal_check(self, monkeypatch):
        """Checking a k-diagonal and sampling its angle takes as many passes for k = 24 as for k = 1."""
        counts = {}
        for k in (1, 24):
            calls = Counter()

            def counting(key, fn):
                def wrapper(*args, **kwargs):
                    calls[key] += 1
                    return fn(*args, **kwargs)
                return wrapper

            with monkeypatch.context() as patch:
                patch.setattr(lieverify_mod, "bracket", counting("bracket", lieverify_mod.bracket))
                patch.setattr(ProductModel, "_split", counting("_split", ProductModel._split))
                V = construct_diagonal_cp(k, k // 3, 3)
                assert is_lie_triple_system(V)[0]
                kahler_angle_of(V, V.random_unit_vector(np.random.default_rng(k)))
            counts[k] = dict(calls)
        assert counts[1] == counts[24]
        assert counts[1]["bracket"] and counts[1]["_split"]

    def test_J_checks_the_mass_of_every_block_on_its_own(self):
        S, G = sphere_decomp(2), grassmannian_decomp(1, 2)
        model = ProductModel((S, S, G), (1.0, 1.0, 1.0))
        P = model.p_coords  # two rows per sphere block, then four for the complex one
        first, second, complex_row = P[0], P[2], P[4]
        for v in (first, second, complex_row + first, np.stack([complex_row, second])):
            with pytest.raises(ValueError, match="^element has mass on a block with no complex structure$"):
                model.J(v)
        np.testing.assert_allclose(model.J(complex_row), P[5], rtol=0, atol=1e-15)
        # below the tolerance on each sphere block, above it summed over the run
        crumbs = complex_row + 0.8 * TOL_ARITHMETIC * (first + second)
        np.testing.assert_allclose(model.J(crumbs), P[5], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the blockwise maps against their per-matrix definitions
# ---------------------------------------------------------------------------


@st.composite
def random_wide_subspaces(draw):
    """Up to 6 orthonormal rows of ``p`` in a model of ``random_block_lists()``, weights drawn."""
    blocks = tuple(draw(random_block_lists()))
    weights = tuple(draw(st.lists(st.floats(0.25, 4.0), min_size=len(blocks), max_size=len(blocks))))
    model = ProductModel(blocks, weights)
    basis = model.p_coords
    dim = draw(st.integers(1, min(6, len(basis))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SubspaceBasis.orthonormalized(model, rng.standard_normal((dim, len(basis))) @ basis), rng


class TestBlockMaps:
    @settings(max_examples=60, deadline=None)
    @given(random_wide_subspaces())
    def test_triple_brackets_are_the_nested_model_brackets(self, case):
        V, _ = case
        model, E = V.ambient, V.coords
        T = lieverify_mod._triple_brackets(V)
        pairs = [(i, j) for i in range(V.dim) for j in range(i + 1, V.dim)]
        assert T.shape == (len(pairs) * V.dim, E.shape[1])
        for p, (i, j) in enumerate(pairs):
            B = model_bracket(model, E[i], E[j])
            for l in range(V.dim):
                expected = model_bracket(model, B, E[l])
                np.testing.assert_allclose(T[p * V.dim + l], expected, rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(random_wide_subspaces())
    def test_J_is_the_commutator_with_each_block_generator(self, case):
        V, rng = case
        model = V.ambient
        blocks, weights = model.blocks, model.weights
        C = rng.standard_normal((2, V.dim, V.coords.shape[1]))
        # blocks without a complex structure must carry nothing
        lo = 0
        for block in blocks:
            hi = lo + 2 * block.N**2
            if block.J_generator is None:
                C[..., lo:hi] = 0.0
            lo = hi
        expected = np.zeros_like(C)
        for n in np.ndindex(C.shape[:-1]):
            lo = 0
            for block, w, a in zip(blocks, weights, ref_matrices(blocks, weights, C[n])):
                hi = lo + 2 * block.N**2
                g = block.J_generator
                if g is not None:
                    expected[n][lo:hi] = math.sqrt(w) * (g @ a - a @ g).view(np.float64).ravel()
                lo = hi
        np.testing.assert_allclose(model.J(C), expected, rtol=0, atol=1e-14)

    def test_ad_J_rows_are_the_images_of_the_unit_matrices(self):
        G = grassmannian_decomp(2, 3)
        units = np.eye(50).view(complex).reshape(50, 5, 5)
        for decomp in (G, conjugated_decomp(G, random_special_unitary(5, np.random.default_rng(3)))):
            g, ad = decomp.J_generator, decomp.ad_J
            assert ad.shape == (50, 50) and not ad.flags.writeable
            images = (g @ units - units @ g).view(np.float64).reshape(50, 50)
            np.testing.assert_allclose(ad, images, rtol=0, atol=1e-15)
        assert sphere_decomp(3).ad_J is None

    @pytest.mark.parametrize(
        "blocks, weights",
        [
            ((grassmannian_decomp(1, 8),), (4.0,)),  # the full CH8(1) row
            ((grassmannian_decomp(1, 6),) * 2, (4.0, 16.0)),  # one run of two CH6 blocks
            ((grassmannian_decomp(1, 4),) * 3, (4.0, 1.0, 16.0)),  # one run of three CH4 blocks
        ],
    )
    def test_triple_brackets_keep_at_most_one_product_next_to_the_output(self, blocks, weights):
        """Peak traced memory stays within 2.25 times the output: the output and one product.

        Holding both products with the output reads above 3.
        """
        model = ProductModel(blocks, weights)
        V = SubspaceBasis(model, model.p_coords)
        lieverify_mod._triple_brackets(V)  # warm the cached runs and pair indices
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            T = lieverify_mod._triple_brackets(V)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 2.25 * T.nbytes, peak / T.nbytes
