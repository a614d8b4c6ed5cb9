import copy
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geodiag.lieverify as lieverify_mod
import geodiag.models as models_mod
from geodiag.catalog import RankOneSpace, TotGeodInclusion, list_totally_geodesic, space
from geodiag.cli import parse_product
from geodiag.tableaux import (
    AdaptedTableau,
    Box,
    ClassifiedSubmanifold,
    ProductSpace,
    Row,
    classify,
    diagonal_curvature,
)
from geodiag.lieverify import (
    SubspaceBasis,
    construct_diagonal_cp,
    is_lie_triple_system,
    kahler_angle_of,
    sectional_curvature,
    verify_classification_entry,
)
from geodiag.models import (
    TOL_ARITHMETIC,
    CartanDecomp,
    ProductModel,
    bracket,
    calibration_constant,
    check_element,
    grassmannian_decomp,
    sphere_decomp,
)

from lieverify_support import (
    bracket_relation_residuals,
    bracket_span,
    conjugated_basis,
    conjugated_decomp,
    construct_grassmannian_product,
    coordinates,
    model_bracket,
    model_triple,
    random_special_unitary,
    reference_box_images,
    reference_triple_check,
    split,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def p_rows(model):
    """The coordinate rows of the model's ``p`` basis vectors, block by block."""
    return np.eye(model.p_dim)


def full_p_basis(decomp):
    model = ProductModel.single(decomp)
    return SubspaceBasis(model, p_rows(model))


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

    @pytest.mark.parametrize(
        "decomp, N, p_dim, k_dim",
        # span [p, p] is s(u(k) + u(n)) for G(k, n) and so(m) for S^m
        [(grassmannian_decomp(k, n), k + n, 2 * k * n, k * k + n * n - 1) for k, n in [(1, 1), (1, 3), (2, 2), (3, 3)]]
        + [(sphere_decomp(m), m + 1, m, m * (m - 1) // 2) for m in [2, 3, 5, 11]],
        ids=["1-1", "1-3", "2-2", "3-3", "S2", "S3", "S5", "S11"],
    )
    def test_dimensions(self, decomp, N, p_dim, k_dim):
        assert (decomp.N, decomp.p_dim, len(bracket_span(decomp))) == (N, p_dim, k_dim)

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
        raw = rng.standard_normal((dim, model.p_dim))
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
        raw = coefficients @ p_rows(model)
        V = SubspaceBasis.orthonormalized(model, raw)
        np.testing.assert_allclose(V.coords, classical_gram_schmidt(raw), rtol=0, atol=1e-12)
        assert V.coords.flags.c_contiguous

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_remainders_are_measured_against_a_relative_floor(self, scale):
        # the remainder of row 1 is 1e-9 * |b|; the floor is 1e-10 * |row 1|, at any scale
        a, b = scale * np.eye(4)[:2]
        rows = lieverify_mod._orthonormal_rows(np.array([a, a + 1e-9 * b]))
        np.testing.assert_allclose(rows, np.eye(4)[:2], rtol=0, atol=1e-6)
        for raw in ([a, a + 1e-11 * b], [100.0 * a, 100.0 * a + 1e-9 * b], [a, 0.0 * b]):
            with pytest.raises(ValueError, match="rank-deficient"):
                lieverify_mod._orthonormal_rows(np.array(raw))

    def test_more_rows_than_coordinates_raise(self):
        model = ProductModel.single(sphere_decomp(2))
        D = model.p_dim
        raw = np.random.default_rng(0).standard_normal((D + 1, D))
        with pytest.raises(ValueError, match="rank-deficient"):
            SubspaceBasis.orthonormalized(model, raw)


class TestModelIdentity:
    def test_models_compare_and_hash_by_identity(self):
        d = grassmannian_decomp(1, 2)
        copy_ = conjugated_decomp(d, np.eye(3))
        model, other = ProductModel.single(d), ProductModel.single(d)
        V = full_p_basis(d)
        W = SubspaceBasis(model, p_rows(model))
        for a, b in ((d, copy_), (model, other), (V, W)):
            assert a == a and b == b
            assert a != b
            assert hash(a) == hash(a) and len({a, b}) == 2
        assert grassmannian_decomp(1, 2) == d


class TestWhereMatricesEnter:
    def test_coefficients_refuse_a_matrix_off_p(self):
        G = grassmannian_decomp(1, 2)
        P = G.p_basis
        in_k = bracket(P[0], P[1])
        off = P[0] + 1e-9 * in_k
        with pytest.raises(ValueError, match="^matrix does not lie in p$"):
            G.coefficients(np.stack([P[1], off]))
        with pytest.raises(ValueError, match="^matrix does not lie in p$"):
            G.coefficients(in_k)
        nearly = P[1] + 1e-14 * in_k
        np.testing.assert_allclose(G.coefficients(nearly), np.eye(4)[1], rtol=0, atol=1e-13)

    def test_a_basis_of_the_wrong_width_raises(self):
        model = ProductModel((grassmannian_decomp(1, 2), sphere_decomp(3)), (1.0, 2.0))
        assert model.p_dim == 7
        for rows in (np.eye(8)[:2], np.eye(6)[:2], np.eye(7)[0], np.eye(7)[:2, :, None]):
            with pytest.raises(ValueError, match="^subspace basis rows must have width 7, got shape"):
                SubspaceBasis(model, rows)
        assert SubspaceBasis(model, np.eye(7)[:2]).dim == 2


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# every name that builds or holds a matrix, and the row helpers the models share with the measurement
MOVED = (
    "bracket", "check_element", "_generators", "_flat", "CartanDecomp", "grassmannian_decomp", "sphere_decomp",
    "calibration_constant", "_Run", "ProductModel", "_pairs", "_T", "_row_norms", "_residuals",
)


def fresh_process_json(script):
    """What ``script`` prints as JSON, run in a fresh interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestModelsSeam:
    def test_the_models_load_without_the_package(self):
        # loaded by path, outside the package: a relative import would raise, an absolute one would show
        script = (
            "import importlib.util, json, sys\n"
            f"spec = importlib.util.spec_from_file_location('alone', {str(SRC / 'geodiag' / 'models.py')!r})\n"
            "alone = sys.modules['alone'] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(alone)\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('geodiag')]))\n"
        )
        assert fresh_process_json(script) == []
        script = (
            "import json, sys, geodiag\n"
            "before = set(sys.modules)\n"
            "import geodiag.models\n"
            "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith('geodiag'))))\n"
        )
        assert fresh_process_json(script) == ["geodiag.models"]

    def test_every_moved_name_has_its_home_in_models(self):
        script = (
            "import json, geodiag.lieverify as lv, geodiag.models as m\n"
            f"names = {MOVED!r}\n"
            "print(json.dumps([[getattr(m, n).__module__, vars(lv).get(n, getattr(m, n)) is getattr(m, n)]"
            " for n in names]))\n"
        )
        assert fresh_process_json(script) == [["geodiag.models", True]] * len(MOVED)

    def test_a_warm_verify_builds_no_model(self):
        script = (
            "import io, json\n"
            "from geodiag.cli import run\n"
            "from geodiag.models import CartanDecomp\n"
            "built, real = [], CartanDecomp.__post_init__\n"
            "CartanDecomp.__post_init__ = lambda self: (built.append(self.N), real(self))\n"
            "argv = ['verify', '-m', 'CH3(1) x CH3(1) x RH3(1)']\n"
            "codes = [run(argv, io.StringIO())]\n"
            "cold = list(built)\n"
            "codes.append(run(argv, io.StringIO()))\n"
            "print(json.dumps([codes, sorted(cold), built[len(cold):]]))\n"
        )
        codes, cold, warm = fresh_process_json(script)
        # the first run builds CH^3's and RH^3's blocks and the calibration's su(2); the second none
        assert codes == [0, 0] and cold == [2, 4, 4] and warm == []


def one_row_statuses(M):
    """The statuses of the one-row entries of a one-factor product, by the row's box class."""
    out = {}
    for e, report in zip(*verify_all(M)):
        if len(e.tableau.rows) == 1:
            (box,) = e.tableau.rows[0]
            out.setdefault(box.inclusion.sub, set()).add(report.rows[0].status)
    return out


class TestBoxTable:
    @pytest.mark.parametrize("compact_dual", [False, True])
    @pytest.mark.parametrize("field", ["R", "C"])
    def test_the_table_is_the_projected_matrix_images(self, field, compact_dual):
        for n, c in itertools.product(range(2, 6), (Fraction(1), Fraction(7, 3))):
            amb = space(field, n, c, compact_dual)
            block, _ = lieverify_mod._factor_model(amb)
            classes = [inc.sub for inc in list_totally_geodesic(amb, include_improper=True)]
            for sub in classes:
                table = lieverify_mod._box_coordinates(sub, amb, block.p_dim)
                reference = block.coefficients(reference_box_images(sub, amb, block))
                assert table.shape == reference.shape, (str(sub), str(amb))
                assert np.max(np.abs(table - reference)) <= 3e-16, (str(sub), str(amb))
            assert one_row_statuses(ProductSpace((amb,))) == {sub: {"ok"} for sub in classes}

    @pytest.mark.parametrize("amb", [space("H", n, 1) for n in range(2, 6)] + [space("O", 2, 1, True)], ids=str)
    def test_quaternionic_and_octonionic_classes_have_no_rows(self, amb):
        for inc in list_totally_geodesic(amb, include_improper=True):
            message = f"^no matrix model for {re.escape(str(inc.sub))} inside {re.escape(str(amb))}$"
            with pytest.raises(ValueError, match=message):
                lieverify_mod._box_coordinates(inc.sub, amb, 4 * amb.n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_theta_and_j_are_the_basis_patterns(self, n):
        # conjugation fixes e_a (basis vector 2a) and negates J e_a (2a + 1), which J maps e_a to
        block = grassmannian_decomp(1, n)
        theta = np.diag(np.tile([1.0, -1.0], n))
        np.testing.assert_allclose(theta, block.coefficients(block.p_basis.conj()), rtol=0, atol=3e-16)
        np.testing.assert_allclose(block.J_p[0::2], np.eye(2 * n)[1::2], rtol=0, atol=3e-16)

    def test_a_warm_pass_and_a_diagonal_cp_project_no_matrix(self, monkeypatch):
        specs = ["CH3(1) x RH3(2)", "CH2(1) x CH2(1/2) x RH2(1)", "CH3(1)* x RH2(2)*"]
        for spec in specs:
            verify_all(parse_product(spec))  # builds each block's J_p and bracket tensor
        calls = []
        real = CartanDecomp.coefficients

        def counted(self, X):
            calls.append(X.shape)
            return real(self, X)

        monkeypatch.setattr(CartanDecomp, "coefficients", counted)
        for spec in specs:
            _, reports = verify_all(parse_product(spec))  # a fresh product and memo on warm blocks
            assert {r.status for r in reports} == {"pass"}
        for k, s, n in ((3, 1, 2), (4, 2, 3), (2, 0, 4)):
            construct_diagonal_cp(k, s, n)
        assert calls == []


class TestLieTripleSystem:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 2)])
    def test_full_p_is_a_triple_system(self, k, n):
        ok, residual = is_lie_triple_system(full_p_basis(grassmannian_decomp(k, n)), 1e-12)
        assert ok and residual <= 1e-12

    def test_single_vector_is_a_triple_system(self):
        d = grassmannian_decomp(2, 2)
        model = ProductModel.single(d)
        V = SubspaceBasis.orthonormalized(model, p_rows(model)[:1])
        ok, residual = is_lie_triple_system(V)
        assert ok and residual == 0.0

    def test_random_plane_is_generically_not_a_triple_system(self):
        # seed recorded; every small seed gives residual far above tolerance
        d = grassmannian_decomp(2, 2)
        model = ProductModel.single(d)
        rng = np.random.default_rng(0)
        basis = p_rows(model)
        W = SubspaceBasis.orthonormalized(model, rng.standard_normal((2, len(basis))) @ basis)
        ok, residual = is_lie_triple_system(W, 1e-9)
        assert not ok
        assert residual > 0.1

    def test_degenerate_family_rejected(self):
        d = grassmannian_decomp(1, 2)
        model = ProductModel.single(d)
        v = p_rows(model)[0]
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
        x = p_rows(model)[0]
        hol = sectional_curvature(V, x, model.J(x))
        real = sectional_curvature(V, x, p_rows(model)[2])
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

    def test_lists_read_as_arrays(self):
        V = construct_diagonal_cp(2, 1, 2)
        x, y = V.coords[0], V.coords[3]
        expected = sectional_curvature(V, x, y)
        assert isinstance(expected, float)
        assert sectional_curvature(V, list(x), list(y)) == expected
        stacked = sectional_curvature(V, [list(x), list(y)], [list(y), list(x)])
        np.testing.assert_array_equal(stacked, sectional_curvature(V, np.stack([x, y]), np.stack([y, x])))

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
        V = SubspaceBasis.orthonormalized(model, p_rows(model)[[0, 2]])
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
            V = construct_grassmannian_product((1,) * k, (k, k))
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
        V = construct_grassmannian_product((4,), (1, 4))
        assert V.dim == V.ambient.p_dim == grassmannian_decomp(1, 4).p_dim

    def test_two_one_partition_in_g2c5(self):
        V = construct_grassmannian_product((2, 1), (2, 3))
        assert V.dim == 6
        ok, residual = is_lie_triple_system(V, 1e-10)
        assert ok, residual
        for v in V.coords:
            assert V.span_residual(V.ambient.J(v)) <= 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            construct_grassmannian_product((3,), (2, 3))
        with pytest.raises(ValueError):
            construct_grassmannian_product((2, 2), (2, 3))
        with pytest.raises(ValueError):
            construct_grassmannian_product((1, 2), (2, 3))


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
        V = construct_grassmannian_product((2, 1), (2, 3))
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


def forged_row(boxes):
    """A ``Row`` of ``boxes`` made without checking that they are homothetic.

    Its diagonal space is the first box's class at the boxes' harmonic
    curvature, as ``Row`` makes it.
    """
    row = tuple.__new__(Row, boxes)
    first = boxes[0].inclusion.sub
    curvature = diagonal_curvature([b.inclusion.sub.curvature for b in boxes])
    row.space = RankOneSpace(first.field, first.n, curvature, first.compact_dual)
    return row


def forged_entry(M, rows):
    """An entry whose rows hold ``(factor, sub)`` pairs the catalog may refuse.

    Neither the inclusions nor the tableau are validated, so labels can be
    wrong and rows can mix classes that are not homothetic.
    """
    covered = {i for row in rows for i, _ in row}
    tableau = _unchecked(
        AdaptedTableau,
        rows=tuple(
            forged_row([Box(i, _unchecked(TotGeodInclusion, sub=sub, ambient=M.factor(i))) for i, sub in row])
            for row in rows
        ),
    )
    complement = tuple(i for i in range(1, M.r + 1) if i not in covered)
    return ClassifiedSubmanifold(tuple(row[0][1] for row in rows), 0, tableau, complement)


def assert_reports_worst_plane(row, real):
    """The row reports a basis plane, whose error relative to its curvature its ``curvature_error`` bounds.

    On a real row the tensor differs from its class's tensor by a multiple of
    the identity, so every plane, the worst basis plane too, is off by the bound.
    """
    assert row.planes is not None and row.planes >= 1
    off = abs(row.curvature_measured - row.curvature_expected) / row.curvature_expected
    assert off <= row.curvature_error + 1e-15
    if real:
        assert abs(off - row.curvature_error) <= 1e-15


def family(built):
    """A built row's family of its class stack as a basis of its own, holding the stack's triple check."""
    stack, index = built.stack, built.index
    V = SubspaceBasis(stack.ambient, stack.coords[index])
    check = stack._triple_check
    vars(V)["_triple_check"] = check._replace(residual=check.residual[index], K=check.K[index])
    return V


def row_tensor(M, row):
    """The calibrated curvature tensor on pairs of ``row``'s built basis."""
    return 4 / calibration_constant() * family(lieverify_mod._VerifyMemo.of(M).row(row))._triple_check.K


LABELS_OFF_BY_FOUR = [
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
]

WRONG_HOMOTHETY_CLASSES = [
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
]


class TestNegativeControls:
    @pytest.mark.parametrize("factors, rows, ratio", LABELS_OFF_BY_FOUR)
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
        # class's tensor at the label's curvature is ratio * K, and E = (1 - ratio) K,
        # measured relative to the label's curvature: |1 - ratio| / ratio on real rows
        E = (1 - float(ratio)) * row_tensor(M, entry.tableau.rows[0])
        assert abs(row.curvature_error - np.linalg.norm(E, 2) / row.curvature_expected) <= 1e-14
        if rows[0][0][1].field.value == "R":
            assert abs(row.curvature_error - abs(1 - float(ratio)) / float(ratio)) <= 1e-14

    @pytest.mark.parametrize("factors, rows, broken", WRONG_HOMOTHETY_CLASSES)
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
        object.__setattr__(tableau, "rows", (first, Row([Box(first[0].factor, second[0].inclusion)])))
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

    def test_a_box_the_table_cannot_place_fails_its_rows_instead_of_raising(self, monkeypatch):
        # the table is asked for every box as if its class were quaternionic, which it has no rows for
        real = lieverify_mod._box_coordinates
        as_quaternionic = lambda sub, ambient, q: real(space("H", sub.n, sub.curvature), ambient, q)
        monkeypatch.setattr(lieverify_mod, "_box_coordinates", as_quaternionic)
        entries, reports = verify_all(ProductSpace((space("C", 2, 1), space("R", 3, 1))))
        rows = [(row, r) for e, report in zip(entries, reports) for row, r in zip(e.tableau.rows, report.rows)]
        assert rows
        for row, r in rows:
            box = row[0]
            quaternionic = space("H", box.inclusion.sub.n, box.inclusion.sub.curvature)
            assert r.status == "fail"
            assert r.reason == f"not measurable: no matrix model for {quaternionic} inside {box.inclusion.ambient}"
            assert r.lie_residual is None and r.planes is None

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
            for n in np.ndindex(C.shape[:-2]):  # each family of a stack
                off = p_rows(model) - (p_rows(model) @ C[n].T) @ C[n]
                out[n][1::2] += 1e-3 * off[np.argmax(np.linalg.norm(off, axis=1))]
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
                pairs = len(family(memo.row(row))._triple_check.K)
                seen[pairs >= 2] += 1
                if pairs >= 2:
                    assert r.status == "fail" and r.reason.startswith("curvature off by"), r.reason
                    assert abs(r.curvature_error - delta / r.curvature_expected) <= 1e-14
                else:
                    assert r.status == "ok"
        assert seen[True] and seen[False]

    def test_a_nan_tensor_entry_fails_without_raising(self, monkeypatch):
        # one NaN entry makes E not finite, on which eigvalsh would raise
        def with_nan(K):
            K = K.copy()
            K[..., -1, -1] = math.nan  # in each family
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
            built, kappa = memo.row(row), float(row.space.curvature)
            V = family(built)
            xs = np.array([V.random_unit_vector(rng) for _ in range(8)])
            ys = np.array([V.random_unit_vector(rng) for _ in range(8)])
            ys -= np.einsum("ni,ni->n", xs, ys)[:, None] * xs
            ys /= np.linalg.norm(ys, axis=1)[:, None]
            if row[0].inclusion.sub.field.value == "C":
                model = kappa / 4 * (1 + 3 * np.einsum("ni,ni->n", xs, V.ambient.J(ys)) ** 2)
            else:
                model = np.full(len(xs), kappa)
            off = np.abs(sectional_curvature(V, xs, ys) - model) / kappa
            assert np.max(off) <= built.curvature_bound + 1e-14
            bounds.append(built.curvature_bound * kappa)  # the change is made on the calibrated tensor
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
        basis = p_rows(model)
        V = SubspaceBasis.orthonormalized(model, rng.standard_normal((3, len(basis))) @ basis)
        ok, residual = is_lie_triple_system(V, 1e-9)
        assert not ok
        assert residual > 1e-9

    def test_rank_deficient_family_still_raises(self):
        d = grassmannian_decomp(1, 3)
        model = ProductModel.single(d)
        a, b = p_rows(model)[0], p_rows(model)[3]
        with pytest.raises(ValueError):
            SubspaceBasis.orthonormalized(model, np.array([a, b, a - 2.0 * b]))
        with pytest.raises(ValueError):
            SubspaceBasis.orthonormalized(model, np.array([a, 1e-11 * a]))


# ---------------------------------------------------------------------------
# scale-free checks: verdicts do not depend on the curvature scale
# ---------------------------------------------------------------------------


# about 1e-12 to 1e12: one to ten times a power of ten
CURVATURES = st.builds(lambda m, e: Fraction(m, 10) * Fraction(10) ** e, st.integers(1, 10), st.integers(-11, 12))


def real_in_complex(sub, factor):
    """Whether ``sub`` is a totally real projective subspace of the complex factor ``factor``."""
    return sub.field.value == "R" and factor.field.value == "C" and 4 * sub.curvature == factor.curvature


def mixed_images(real):
    """``_box_coordinates`` with the third vector of a totally real RH^3 box replaced by ``J e_1``.

    ``J e_1`` is basis vector 1 of ``CP^n``'s ``p``.  The span of ``e_1, e_2, J e_1``
    is J-invariant in no direction and no Lie triple system.
    """

    def images(sub, ambient, q):
        out = real(sub, ambient, q)
        if real_in_complex(sub, ambient) and sub.n == 3:
            out[2] = np.eye(q)[1]
        return out

    return images


def mixed_row_report(c):
    """The verdict on the totally real ``RH3(c/4)`` of ``CH3(c)`` built with ``J e_1`` as its third vector."""
    M = ProductSpace((space("C", 3, c),))
    entry = next(e for e in classify(M) if e.semisimple_factors == (space("R", 3, c / 4),) and e.flat_dim == 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lieverify_mod, "_box_coordinates", mixed_images(lieverify_mod._box_coordinates))
        report = verify_classification_entry(entry, M)
        built = lieverify_mod._VerifyMemo.of(M).row(entry.tableau.rows[0])
    return report.rows[0], built


def rotated_residual(V, rng):
    """The triple residual of ``V``'s span on a basis rotated by a random orthogonal matrix."""
    O, _ = np.linalg.qr(rng.standard_normal((V.dim, V.dim)))
    return is_lie_triple_system(SubspaceBasis(V.ambient, O @ V.coords))[1]


class TestScaleFree:
    @pytest.mark.parametrize(
        "spec, passed",
        [
            (f"CH3({10**9}) x CH3(1)", 55),
            (f"RH3({10**30}) x CH3(1)", 30),
            (f"RH3({10**12}) x CH3(1/{10**12})", 30),
            (f"RH4({10**20}) x CH4({10**20})", 48),
            (f"CH3({10**20}) x RH3(1)", 30),
            (f"CH2({10**30}) x RH2(1/{10**30})", 16),
        ],
    )
    def test_honest_products_pass_at_extreme_curvatures(self, spec, passed):
        _, reports = verify_all(parse_product(spec))
        assert [r.status for r in reports] == ["pass"] * passed
        rows = [row for r in reports for row in r.rows]
        assert max(row.lie_residual for row in rows) <= 1e-13
        assert max(row.curvature_error for row in rows) <= 1e-12

    @pytest.mark.parametrize("spec", [f"RH3({10**30}) x CH3(1)", f"CH3(1) x RH3({10**30})"])
    def test_complex_rows_have_no_mass_on_a_sphere_block_of_tiny_weight(self, spec):
        # J's mass check is absolute and scales a sphere block's coordinates by 1/sqrt(w) = 1e15
        M = parse_product(spec)
        _, reports = verify_all(M)
        assert [r.status for r in reports] == ["pass"] * 30
        memo = lieverify_mod._VerifyMemo.of(M)
        (sphere,) = [r for r in memo.model._runs if r.block.J_p is None]
        stacks = [b.stack for row, b in memo._built.values() if row.space.field.value == "C"]
        assert stacks
        for V in stacks:
            assert not np.any(V.coords[..., sphere.span])

    def test_the_mixed_row_fails_alike_at_every_scale(self):
        seen = []
        for c in (Fraction(1, 10**12), Fraction(1), Fraction(10**12)):
            row, _ = mixed_row_report(c)
            assert row.status == "fail" and row.reason.startswith("Lie triple residual"), row.reason
            seen.append((row.lie_residual, row.curvature_error))
        for residual, error in seen:
            assert abs(residual - 1 / math.sqrt(7)) <= 1e-12
            assert abs(error - seen[0][1]) <= 1e-12 and error > 1

    @settings(max_examples=8, deadline=None)
    @given(CURVATURES, st.integers(0, 2**32 - 1))
    def test_honest_rows_pass_and_their_residual_is_basis_free(self, c, seed):
        rng = np.random.default_rng(seed)
        for factors in ((space("C", 3, c), space("C", 3, 1)), (space("R", 4, c), space("C", 4, c))):
            M = ProductSpace(factors)
            _, reports = verify_all(M)
            assert all(r.status == "pass" for r in reports), (str(M), [r.rows for r in reports if r.failed])
            for V in built_families(M):
                assert rotated_residual(V, rng) <= 1e-13

    @settings(max_examples=8, deadline=None)
    @given(CURVATURES, st.integers(0, 2**32 - 1))
    def test_the_mixed_row_fails_on_any_basis(self, c, seed):
        row, built = mixed_row_report(c)
        assert row.status == "fail" and row.reason.startswith("Lie triple residual"), row.reason
        assert abs(row.lie_residual - 1 / math.sqrt(7)) <= 1e-12
        assert abs(rotated_residual(family(built), np.random.default_rng(seed)) - row.lie_residual) <= 1e-12

    @settings(max_examples=8, deadline=None)
    @given(CURVATURES)
    def test_complex_weights_off_by_four_fail(self, c):
        # every complex factor's metric weight divided by 4: its curvatures read 4 times too large
        M = ProductSpace((space("C", 3, c), space("R", 2, c)))
        real = lieverify_mod._factor_model

        def quartered(factor):
            block, w = real(factor)
            return block, w / 4 if factor.field.value == "C" else w

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lieverify_mod, "_factor_model", quartered)
            entries, reports = verify_all(M)
        seen = Counter()
        for e, report in zip(entries, reports):
            for row, r in zip(e.tableau.rows, report.rows):
                on_complex = any(b.factor == 1 for b in row)
                seen[on_complex] += 1
                if on_complex:
                    assert r.status == "fail" and r.reason.startswith("curvature off by"), r.reason
                    assert r.curvature_error > 0.1
                else:
                    assert r.status == "ok", r.reason
        assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# the per-product row memo: each row is built once, each entry still measured
# ---------------------------------------------------------------------------


def patch_tensor(monkeypatch, change):
    """Make every basis triple-checked from now on hold ``change(K)`` as its curvature tensors."""
    check = SubspaceBasis._triple_check.func

    def changed(V):
        result = check(V)
        return result._replace(K=change(result.K))

    prop = functools.cached_property(changed)
    prop.__set_name__(SubspaceBasis, "_triple_check")
    monkeypatch.setattr(SubspaceBasis, "_triple_check", prop)


def off_diagonal_changed(K, delta):
    """``K`` with ``delta`` added to the calibrated entries ``K[0, 1]`` and ``K[1, 0]`` of each family."""
    if K.shape[-1] < 2:
        return K
    K = K.copy()
    K[..., 0, 1] += delta * calibration_constant() / 4
    K[..., 1, 0] += delta * calibration_constant() / 4
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
        """Verify every entry of ``M``, counting the families orthonormalized and triple-checked, and the stacks."""
        calls = {"orthonormalized": 0, "lie_triple": 0, "stacks": 0}
        orthonormalized = SubspaceBasis.__dict__["orthonormalized"].__func__
        lie_triple = lieverify_mod.is_lie_triple_system

        def counting_orthonormalized(cls, ambient, raw):
            calls["orthonormalized"] += len(raw) if np.ndim(raw) == 3 else 1
            calls["stacks"] += 1
            return orthonormalized(cls, ambient, raw)

        def counting_lie_triple(V, tol=1e-9):
            calls["lie_triple"] += len(V.coords) if V.coords.ndim == 3 else 1
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
        # each row is one family of one stack: as many families as rows, and fewer stacks
        assert calls["orthonormalized"] == calls["lie_triple"] == expected
        assert calls["stacks"] < expected
        built = lieverify_mod._VerifyMemo.of(M)._built.values()
        assert {id(row) for row, _ in built} == {id(row) for e in entries for row in e.tableau.rows}
        assert len({(id(b.stack), b.index) for _, b in built}) == expected
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
        # unequal curvatures leave rounding in some rows' residuals and none in others;
        # the curvature error is compared with 10 * lie_tol
        M = ProductSpace((space("C", 3, 1), space("C", 3, 2)))
        _, first = verify_all(M)
        assert all(r.status == "pass" for r in first)
        _, strict = verify_all(M, lie_tol=1e-30)
        flipped = 0
        for a, b in zip(first, strict):
            for ra, rb in zip(a.rows, b.rows):
                assert (ra.lie_residual, ra.curvature_error) == (rb.lie_residual, rb.curvature_error)
                if ra.lie_residual > 1e-30:
                    flipped += 1
                    assert rb.status == "fail"
                    assert rb.reason == f"Lie triple residual {rb.lie_residual:.3e} exceeds 1.0e-30"
                elif ra.curvature_error > 1e-29:
                    assert rb.status == "fail"
                    assert rb.reason == f"curvature off by {rb.curvature_error:.3e}"
                else:
                    assert rb.status == "ok"
        assert flipped > 0


# ---------------------------------------------------------------------------
# class stacks: the rows of one class (field, n) are built together
# ---------------------------------------------------------------------------


def distinct_rows(M):
    """Every distinct row of ``M``'s classification stream, in stream order."""
    return list({id(row): row for e in classify(M) for row in e.tableau.rows}.values())


def built_alone(M, row):
    """``row`` built as a stack of one in the product's model, as a row that is not the memo's is."""
    memo = lieverify_mod._VerifyMemo.of(M)
    (built,) = lieverify_mod._build_stack(memo.model, [row], memo._coordinates(row)[None])
    return built


MEASURED = ("lie_residual", "curvature_measured", "curvature_error", "curvature_bound")


class TestClassStacks:
    @pytest.mark.parametrize(
        "spec",
        ["CH2(1) x CH2(1)", "CH2(1) x RH3(1) x RH2(1/2)", "CH3(1) x CH3(2) x RH3(1)", "CH5(1) x CH5(1) x RH5(2)"],
    )
    def test_a_stack_measures_what_a_lone_build_measures(self, spec):
        M = parse_product(spec)
        memo = lieverify_mod._VerifyMemo.of(M)
        sizes = Counter()
        for row in distinct_rows(M):
            stacked, alone = memo.row(row), built_alone(M, row)
            sizes[id(stacked.stack)] += 1
            assert len(alone.stack.coords) == 1 and alone.planes == stacked.planes
            for name in MEASURED:
                assert abs(getattr(stacked, name) - getattr(alone, name)) <= 1e-15, (str(row), name)
            for built in (stacked, alone):
                assert built.lie_residual <= 1e-9 and built.curvature_error <= 1e-8, str(row)
        assert max(sizes.values()) >= 3  # stacks of several rows were measured

    def test_a_row_without_box_images_fails_alone(self, monkeypatch):
        M = ProductSpace((space("C", 2, 1), space("C", 2, 2)))
        bad = (space("R", 2, Fraction(1, 4)), M.factor(1))  # the totally real planes of factor 1
        real = lieverify_mod._box_coordinates

        def images(sub, ambient, q):
            if (sub, ambient) == bad:
                raise ValueError("no images for this box")
            return real(sub, ambient, q)

        monkeypatch.setattr(lieverify_mod, "_box_coordinates", images)
        holds = lambda row: any((b.inclusion.sub, b.inclusion.ambient) == bad for b in row)
        for _ in range(2):  # a second call fails the rows again
            entries, reports = verify_all(M)
            seen = Counter()
            for e, report in zip(entries, reports):
                for row, r in zip(e.tableau.rows, report.rows):
                    seen[holds(row), row.space.field.value] += 1
                    if holds(row):
                        assert r.status == "fail" and r.reason == "not measurable: no images for this box"
                    else:
                        assert r.status == "ok", (str(row), r.reason)
            # rows of the bad row's class (R, 2) pass beside it, and those of the other class
            assert seen[True, "R"] and seen[False, "R"] and seen[False, "C"]
        memo = lieverify_mod._VerifyMemo.of(M)
        assert not any(holds(row) for row, _ in memo._built.values())
        # the rest of the class still forms one stack
        stacks = {id(b.stack): b.stack for row, b in memo._built.values() if row.space.field.value == "R"}
        assert len(stacks) == 1 and len(next(iter(stacks.values())).coords) > 1

    def test_the_residual_is_the_frobenius_ratio_per_family(self):
        # every row counts in its own family, a small one too; a family with no brackets reads 0
        Q = np.zeros((3, 1, 3))
        Q[:, 0, 0] = 1.0
        T = np.array(
            [[[2.0, 1.0, 0.0], [1e-13, 1e-13, 0.0]], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], np.zeros((2, 3))]
        )
        residual, coeffs = lieverify_mod._frobenius_residual(T, Q)
        np.testing.assert_array_equal(coeffs[:, :, 0], [[2.0, 1e-13], [1.0, 1.0], [0.0, 0.0]])
        expected = [math.sqrt((1 + 1e-26) / (5 + 2e-26)), 1 / math.sqrt(3), 0.0]
        np.testing.assert_allclose(residual, expected, rtol=1e-15, atol=0)
        # the same numbers at any scale of T
        for scale in (1e-150, 1e150):
            np.testing.assert_allclose(lieverify_mod._frobenius_residual(scale * T, Q)[0], expected, rtol=1e-15)

    def test_a_rank_deficient_row_fails_alone(self, monkeypatch):
        M = ProductSpace((space("C", 2, 1), space("C", 2, 2)))
        rows = distinct_rows(M)
        bad = next(row for row in rows if len(row) == 2 and row.space.field.value == "R")
        same_class = lambda row: (row.space.field, row.space.n) == (bad.space.field, bad.space.n)
        siblings = [row for row in rows if row is not bad and same_class(row)]
        real = lieverify_mod._VerifyMemo._coordinates

        def deficient(memo, row):
            raw = real(memo, row)
            if row is bad:
                raw[1] = raw[0]
            return raw

        monkeypatch.setattr(lieverify_mod._VerifyMemo, "_coordinates", deficient)
        memo = lieverify_mod._VerifyMemo.of(M)
        for _ in range(2):  # a second call fails the row again
            entries, reports = verify_all(M)
            for e, report in zip(entries, reports):
                for row, r in zip(e.tableau.rows, report.rows):
                    if row is bad:
                        assert r.status == "fail" and r.reason == "not measurable: rank-deficient basis rejected"
                    else:
                        assert r.status == "ok", (str(row), r.reason)
            with pytest.raises(ValueError, match="^rank-deficient basis rejected$"):
                memo.row(bad)
        # the stack raised, so the rest of the class was built one row at a time
        assert len(siblings) >= 3
        for row in siblings:
            assert len(memo.row(row).stack.coords) == 1
        assert id(bad) not in memo._built


def lone_family_reference(model, raw):
    """The one-family path as it was before stacks: orthonormal rows, triple residual and ``K``.

    The same numpy operations in the same order, restated for 2-d arrays
    only, so that the stacked code's one-family path can be pinned bit for bit.
    """
    Q, R = np.linalg.qr(raw.T)
    C = np.multiply(Q.T, np.sign(R.diagonal())[:, None], order="C")
    dim, width = C.shape
    i, j = models_mod._pairs(dim)
    out = np.empty((len(i), dim, width))
    for r in model._runs:
        q = r.block.p_dim
        A = C[:, r.span].reshape(dim, r.count, q).swapaxes(0, 1)
        AR = (A.reshape(-1, q) @ r.block.triple_tensor.reshape(q, -1)).reshape(r.count, dim, q, q * q)
        B = A[:, None] @ AR
        T = A[:, None] @ B[:, i, j].reshape(r.count, len(i), q, q)
        T *= r.inv_w[:, None, None, None]
        out[..., r.span] = T.transpose(1, 2, 0, 3).reshape(len(i), dim, r.count * q)
    T = out.reshape(-1, width)
    coeffs = T @ C.T
    N = T - coeffs @ C
    norm = float(np.sqrt(np.einsum("ij,ij->", T, T)))
    residual = float(np.sqrt(np.einsum("ij,ij->", N, N))) / norm if norm > 0 else 0.0
    return C, residual, coeffs.reshape(-1, dim, dim)[:, i, j]


def lone_curvature_reference(C, K, X, Y):
    """Calibrated curvatures of planes ``X[n], Y[n]`` of one family, as computed before stacks."""
    n = len(X)
    coeffs = np.concatenate([X, Y]) @ C.T
    A, B = coeffs[:n], coeffs[n:]
    i, j = models_mod._pairs(len(C))
    O = A[:, :, None] * B[:, None, :]
    W = (O - O.transpose(0, 2, 1))[:, i, j]
    return 4.0 / calibration_constant() * np.einsum("np,np->n", W @ K, W) / np.einsum("np,np->n", W, W)


class TestTracerContract:
    """What the benchmark's tracer reads from the verifier: types, and the one-family results."""

    def test_a_stack_returns_a_bool_and_its_worst_residual_as_a_float(self):
        model = ProductModel.single(grassmannian_decomp(1, 3))
        rng = np.random.default_rng(29)
        raw = np.stack([p_rows(model)[:3], rng.standard_normal((3, model.p_dim)), p_rows(model)[[0, 1, 4]]])
        V = SubspaceBasis.orthonormalized(model, raw)
        ok, worst = is_lie_triple_system(V)
        assert type(ok) is bool and type(worst) is float
        assert type(V.dim) is int and V.dim == 3
        lone = [is_lie_triple_system(SubspaceBasis.orthonormalized(model, r))[1] for r in raw]
        assert worst == float(np.max(V._triple_check.residual)) and worst > 1e-3
        np.testing.assert_allclose(V._triple_check.residual, lone, rtol=1e-14, atol=1e-15)
        assert ok is False and is_lie_triple_system(V, 2 * worst) == (True, worst)
        one = SubspaceBasis.orthonormalized(model, raw[0])
        assert type(is_lie_triple_system(one)[1]) is float and type(one.dim) is int

    @pytest.mark.parametrize("k, s, n", [(1, 1, 1), (2, 1, 2), (3, 1, 3), (5, 2, 2), (24, 8, 3)])
    def test_one_diagonal_cp_is_bit_identical_to_the_one_family_path(self, k, s, n):
        V = construct_diagonal_cp(k, s, n)
        block = grassmannian_decomp(1, n)
        raw = np.hstack([np.eye(block.p_dim)] * s + [np.diag(np.tile([1.0, -1.0], n))] * (k - s))
        C, residual, K = lone_family_reference(V.ambient, raw)
        np.testing.assert_array_equal(V.coords, C)
        assert is_lie_triple_system(V) == (residual <= 1e-9, residual)
        np.testing.assert_array_equal(V._triple_check.K, K)
        rng = np.random.default_rng(k)
        X, Y = (np.array([V.random_unit_vector(rng) for _ in range(4)]) for _ in range(2))
        np.testing.assert_array_equal(sectional_curvature(V, X, Y), lone_curvature_reference(C, K, X, Y))


# ---------------------------------------------------------------------------
# the entry total, derived from its rows, against the whole-subspace check
# ---------------------------------------------------------------------------


def whole_subspace_residual(M, entry):
    """Triple residual of the entry's rows and flat directions checked as one subspace.

    Each row's basis already lies in the model of the whole product (every
    factor is modelled here), on its factors' blocks; one ``p`` vector is
    added per flat factor, and the family is orthonormalized and
    triple-checked as a whole.  None for the point.  Factor ``i`` is block
    ``i - 1`` of that model.
    """
    memo = lieverify_mod._VerifyMemo.of(M)
    model = memo.model
    assert len(model.blocks) == M.r
    starts = np.cumsum([0] + [b.p_dim for b in model.blocks])
    vectors = [c for row in entry.tableau.rows for c in family(memo.row(row)).coords]
    vectors += [p_rows(model)[starts[i - 1]] for i in entry.complement_factors[: entry.flat_dim]]
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
        # the whole subspace's brackets are its rows' together, so its ratio lies between the rows' ratios
        assert 1e-9 < whole_subspace_residual(M, entry) <= report.total_lie_residual + 1e-15
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
        calls = Counter()
        real = ProductModel.triples

        def counting(model, Cp):
            calls["triples"] += 1
            return real(model, Cp)

        monkeypatch.setattr(ProductModel, "triples", counting)
        V = construct_diagonal_cp(3, 1, 2)
        first = is_lie_triple_system(V)
        assert calls["triples"] > 0
        calls.clear()
        assert is_lie_triple_system(V) == first
        assert is_lie_triple_system(V, 0.0) == (first[1] <= 0.0, first[1])
        sectional_curvature(V, V.coords[0], V.coords[1])
        assert calls["triples"] == 0


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


def built_families(M):
    """The family of every distinct row of ``M``'s classification with at least two vectors."""
    return [V for V in map(family, built_rows(M)) if V.dim >= 2]


def direct_curvature(V, X, Y):
    """The calibrated curvature of planes X[n], Y[n] by the per-matrix bracket formula."""
    blocks, weights = V.ambient.blocks, V.ambient.weights
    matrices = lambda c: ref_matrices(blocks, weights, c)
    return np.array([ref_curvature(weights, matrices(x), matrices(y)) for x, y in zip(X, Y)])


def mixed_three_plane_of_cp2():
    # e_0, J e_0, e_1: the triple bracket [[e_0, J e_0], e_1] lies along J e_1
    model = ProductModel.single(grassmannian_decomp(1, 2))
    return SubspaceBasis.orthonormalized(model, p_rows(model)[:3])


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
        bases = built_families(parse_product(spec))
        assert bases
        for V in bases:
            assert_contraction_is_direct(V, rng)

    def test_contraction_is_the_direct_formula_off_a_triple_system(self):
        V = mixed_three_plane_of_cp2()
        ok, residual = is_lie_triple_system(V)
        # of the brackets' squared norm, 1/7 lies along J e_1
        assert not ok and abs(residual - 1 / math.sqrt(7)) <= 1e-12
        assert_contraction_is_direct(V, np.random.default_rng(18))
        # with no check run, the basis computes the same tensor itself
        fresh = mixed_three_plane_of_cp2()
        assert "_triple_check" not in vars(fresh)
        np.testing.assert_array_equal(fresh._triple_check.K, V._triple_check.K)

    def test_nearly_dependent_planes_keep_their_digits(self):
        # x and cos(t) x + sin(t) z span the plane of the orthonormal pair x, z
        rng = np.random.default_rng(19)
        bases = built_families(parse_product("CH4(1) x CH4(1) x RH4(1)"))
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
        e0, Je1 = V.coords[0], p_rows(V.ambient)[3]
        with pytest.raises(ValueError, match="^plane vectors must lie in the subspace$"):
            sectional_curvature(V, e0, Je1)
        with pytest.raises(ValueError, match="^plane vectors must lie in the subspace$"):
            sectional_curvature(V, np.array([e0, Je1]), np.array([V.coords[1], V.coords[2]]))
        with pytest.raises(ValueError, match="^sectional curvature of linearly dependent vectors$"):
            sectional_curvature(V, e0, -2.0 * e0)

    def test_a_built_product_verifies_again_without_brackets(self, monkeypatch):
        M = ProductSpace((space("C", 3, 1), space("C", 3, 2), space("R", 3, 1)))
        calls = Counter()

        def families(stack):
            # the families a call works on: the first array argument's leading axis when it is a stack
            return len(stack) if np.ndim(stack) == 3 else 1

        def counting(key, fn, stack=lambda args: None):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                calls[key + " families"] += families(stack(args))
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for owner, attr, stack in [
                (models_mod, "bracket", lambda args: None),
                (ProductModel, "triples", lambda args: args[1]),
                (ProductModel, "J", lambda args: args[1]),
                (lieverify_mod, "is_lie_triple_system", lambda args: args[0].coords),
                (lieverify_mod, "sectional_curvature", lambda args: args[0].coords),
            ]:
                patch.setattr(owner, attr, counting(attr, getattr(owner, attr), stack))
            orthonormalized = SubspaceBasis.__dict__["orthonormalized"].__func__
            counted = counting("orthonormalized", orthonormalized, lambda args: args[2])
            patch.setattr(SubspaceBasis, "orthonormalized", classmethod(counted))
            entries, first = verify_all(M)
            cold = dict(calls)
            calls.clear()
            _, again = verify_all(M)
            hot = dict(calls)
        distinct = {id(row) for e in entries for row in e.tableau.rows}
        measured = sum(len(e.tableau.rows) for e in entries)
        # every row is built once, as a family of its class stack: one call per stack
        assert cold["orthonormalized families"] == cold["is_lie_triple_system families"] == len(distinct)
        assert cold["sectional_curvature families"] == len(distinct) < measured
        stacks = cold["orthonormalized"]
        assert cold["is_lie_triple_system"] == cold["sectional_curvature"] == cold["triples"] == stacks < len(distinct)
        assert "bracket" not in cold
        assert hot == {}
        for a, b in zip(first, again):
            assert a.status == b.status == "pass"
        # each built stack keeps its tensors, not its (pairs * dim, D) brackets
        checked = 0
        for V in {id(b.stack): b.stack for _, b in lieverify_mod._VerifyMemo.of(M)._built.values()}.values():
            pairs = V.dim * (V.dim - 1) // 2
            assert V._triple_check.K.shape == (len(V.coords), pairs, pairs)
            if V.dim >= 3:
                held = [a for a in vars(V).values() if isinstance(a, np.ndarray)] + list(V._triple_check)
                assert all(np.shape(a)[1:2] != (pairs * V.dim,) for a in held)
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

    Block b holds ``q_b`` = dim ``p`` coordinates: ``sqrt(w_b)`` times the
    coefficients of its matrix on its ``p`` basis.
    """
    out, lo = [], 0
    for block, w in zip(blocks, weights):
        hi = lo + block.p_dim
        out.append(sum(x / math.sqrt(w) * P for x, P in zip(c[lo:hi], block.p_basis)))
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
    """The brackets' Frobenius norm off the span over their own, summed bracket by bracket; 0 if none."""
    triples = [
        ref_comm(ref_comm(vectors[i], vectors[j]), vectors[l])
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
        for l in range(len(vectors))
    ]
    total = sum(ref_inner(weights, t, t) for t in triples)
    if total == 0.0:
        return 0.0
    normal = sum(ref_norm(weights, ref_remainder(weights, vectors, t)) ** 2 for t in triples)
    return math.sqrt(normal / total)


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
    basis = p_rows(model)
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
        assert [r.span for r in runs] == [slice(0, 12), slice(12, 15), slice(15, 19)]
        assert model.p_dim == 19
        np.testing.assert_array_equal(runs[0].inv_w, [1.0, 0.5, 2.0])
        # an equal but distinct model is another block
        other = conjugated_decomp(A, np.eye(3))
        assert [r.count for r in ProductModel((A, other), (1.0, 1.0))._runs] == [1, 1]

    @settings(max_examples=30, deadline=None)
    @given(random_block_lists(), st.integers(0, 2**32 - 1))
    def test_coordinates_round_trip_through_per_block_matrices(self, blocks, seed):
        rng = np.random.default_rng(seed)
        weights = tuple(rng.uniform(0.25, 4.0, len(blocks)))
        model = ProductModel(tuple(blocks), weights)
        C = rng.standard_normal((2, 3, model.p_dim))
        stacks = split(model, C)
        assert [s.shape for s in stacks] == [(2, 3, b.N, b.N) for b in blocks]
        for n, _ in np.ndenumerate(C[..., 0]):
            for mine, ref in zip(stacks, ref_matrices(blocks, weights, C[n])):
                np.testing.assert_allclose(mine[n], ref, rtol=1e-15, atol=0)
        np.testing.assert_allclose(coordinates(model, stacks), C, rtol=0, atol=1e-14)

    def test_per_block_loops_stay_out_of_the_diagonal_check(self, monkeypatch):
        """Checking a k-diagonal and sampling its angle takes as many block passes for k = 24 as for k = 1.

        The triple check reads a block's bracket tensor once per pass.
        """
        tensor = CartanDecomp.__dict__["triple_tensor"]
        counts = {}
        for k in (1, 24):
            calls = Counter()

            def counting(key, fn):
                def wrapper(*args, **kwargs):
                    calls[key] += 1
                    return fn(*args, **kwargs)
                return wrapper

            with monkeypatch.context() as patch:
                read = counting("triple_tensor", lambda block: tensor.__get__(block, CartanDecomp))
                patch.setattr(CartanDecomp, "triple_tensor", property(read))
                patch.setattr(ProductModel, "J", counting("J", ProductModel.J))
                V = construct_diagonal_cp(k, k // 3, 3)
                assert is_lie_triple_system(V)[0]
                kahler_angle_of(V, V.random_unit_vector(np.random.default_rng(k)))
            counts[k] = dict(calls)
        assert counts[1] == counts[24] == {"triple_tensor": 1, "J": 1}

    def test_J_checks_the_mass_of_every_block_on_its_own(self):
        S, G = sphere_decomp(2), grassmannian_decomp(1, 2)
        model = ProductModel((S, S, G), (1.0, 1.0, 1.0))
        P = p_rows(model)  # two rows per sphere block, then four for the complex one
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
    basis = p_rows(model)
    dim = draw(st.integers(1, min(6, len(basis))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SubspaceBasis.orthonormalized(model, rng.standard_normal((dim, len(basis))) @ basis), rng


class TestBlockMaps:
    @settings(max_examples=60, deadline=None)
    @given(random_wide_subspaces())
    def test_triples_are_the_nested_model_brackets(self, case):
        V, _ = case
        model, E = V.ambient, V.coords
        T = model.triples(E)
        pairs = [(i, j) for i in range(V.dim) for j in range(i + 1, V.dim)]
        assert T.shape == (len(pairs) * V.dim, E.shape[1])
        for p, (i, j) in enumerate(pairs):
            for l in range(V.dim):
                expected = model_triple(model, E[i], E[j], E[l])
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
            hi = lo + block.p_dim
            if block.J_generator is None:
                C[..., lo:hi] = 0.0
            lo = hi
        expected = np.zeros_like(C)
        for n in np.ndindex(C.shape[:-1]):
            lo = 0
            for block, w, a in zip(blocks, weights, ref_matrices(blocks, weights, C[n])):
                hi = lo + block.p_dim
                g = block.J_generator
                if g is not None:
                    expected[n][lo:hi] = [math.sqrt(w) * np.vdot(P, g @ a - a @ g).real for P in block.p_basis]
                lo = hi
        np.testing.assert_allclose(model.J(C), expected, rtol=0, atol=1e-14)

    def test_J_p_rows_are_the_coefficients_of_the_images_of_the_basis(self):
        G = grassmannian_decomp(2, 3)
        for decomp in (G, conjugated_decomp(G, random_special_unitary(5, np.random.default_rng(3)))):
            g, P, Jp = decomp.J_generator, decomp.p_basis, decomp.J_p
            assert Jp.shape == (12, 12) and not Jp.flags.writeable
            images = g @ P - P @ g
            expected = np.array([[np.vdot(b, image).real for b in P] for image in images])
            np.testing.assert_allclose(Jp, expected, rtol=0, atol=1e-15)
            # the images lie in p, where J squares to minus the identity
            np.testing.assert_allclose(np.tensordot(Jp, P, axes=1), images, rtol=0, atol=1e-15)
            np.testing.assert_allclose(Jp @ Jp, -np.eye(12), rtol=0, atol=1e-14)
        assert sphere_decomp(3).J_p is None


# ---------------------------------------------------------------------------
# the blocks' bracket tensors and the triple check in p-coordinates
# ---------------------------------------------------------------------------


def direct_triple_tensor(decomp):
    """``<[[P_a, P_b], P_c], P_d>`` by two brackets per triple, shaped ``(q^2, q^2)``."""
    P = decomp.p_basis
    q = len(P)
    R = np.empty((q, q, q, q))
    for a, b, c in itertools.product(range(q), repeat=3):
        t = bracket(bracket(P[a], P[b]), P[c])
        R[a, b, c] = [np.vdot(d, t).real for d in P]
    return R.reshape(q * q, q * q)


def assert_check_is_the_reference(V):
    """``V``'s residual and tensor ``K`` are the ones taken from matrix brackets within 1e-13."""
    residual, K = reference_triple_check(V)
    assert abs(V._triple_check.residual - residual) <= 1e-13
    np.testing.assert_allclose(V._triple_check.K, K, rtol=0, atol=1e-13)
    return residual


class TestBracketTensor:
    @pytest.mark.parametrize(
        "decomp",
        [sphere_decomp(m) for m in range(2, 6)]
        + [grassmannian_decomp(1, n) for n in range(1, 6)]
        + [
            grassmannian_decomp(2, 2),
            # conjugated copies: span [p, p] is found mixed anew, and no bracket of it is refused for rounding
            conjugated_decomp(grassmannian_decomp(2, 2), random_special_unitary(4, np.random.default_rng(5))),
            conjugated_decomp(grassmannian_decomp(1, 7), random_special_unitary(8, np.random.default_rng(6))),
            conjugated_decomp(sphere_decomp(6), random_special_unitary(7, np.random.default_rng(7))),
        ],
        ids=[f"S{m}" for m in range(2, 6)] + [f"G1,{n}" for n in range(1, 6)]
        + ["G2,2", "conjugated G2,2", "conjugated G1,7", "conjugated S6"],
    )
    def test_the_tensor_is_the_direct_triple_bracket(self, decomp):
        R = decomp.triple_tensor
        assert R.shape == (decomp.p_dim**2,) * 2 and not R.flags.writeable
        np.testing.assert_allclose(R, direct_triple_tensor(decomp), rtol=0, atol=1e-14)

    def test_a_model_whose_triple_brackets_leave_p_is_refused(self):
        G = grassmannian_decomp(1, 2)
        # p spanned by e_0, J e_0, e_1 of CP^2: [[e_0, J e_0], e_1] lies along J e_1
        three = CartanDecomp(G.p_basis[:3], None)
        message = r"^\[\[p, p\], p\] does not lie in p$"
        model = ProductModel.single(three)
        with pytest.raises(ValueError, match=message):
            is_lie_triple_system(SubspaceBasis(model, p_rows(model)))
        with pytest.raises(ValueError, match=message):
            three.triple_tensor  # refused on every use, not only the first

    @settings(max_examples=40, deadline=None)
    @given(random_wide_subspaces())
    def test_the_check_is_the_matrix_bracket_reference(self, case):
        assert_check_is_the_reference(case[0])

    @pytest.mark.parametrize(
        "blocks, weights",
        [
            ((grassmannian_decomp(1, 3),), (1.0,)),
            ((grassmannian_decomp(2, 2),), (2.0,)),
            ((grassmannian_decomp(1, 2),) * 3, (4.0, 1.0, 0.5)),
            ((sphere_decomp(4), grassmannian_decomp(1, 2), sphere_decomp(4)), (1.0, 3.0, 0.25)),
        ],
    )
    def test_random_bases_off_a_triple_system_match_the_reference(self, blocks, weights):
        model = ProductModel(blocks, weights)
        rng = np.random.default_rng(23)
        for dim in (2, 3, 5):
            raw = rng.standard_normal((dim, model.p_dim))
            V = SubspaceBasis.orthonormalized(model, raw)
            assert assert_check_is_the_reference(V) > 1e-3

    @pytest.mark.parametrize(
        "factors, rows", [case[:2] for case in LABELS_OFF_BY_FOUR + WRONG_HOMOTHETY_CLASSES]
    )
    def test_forged_rows_match_the_reference(self, factors, rows):
        M = ProductSpace(tuple(factors))
        row = forged_entry(M, rows).tableau.rows[0]
        assert_check_is_the_reference(family(lieverify_mod._VerifyMemo.of(M).row(row)))
