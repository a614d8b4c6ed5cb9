import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, strategies as st

import geodiag.cli as cli_mod
import geodiag.lieverify as lieverify
from geodiag.catalog import space
from geodiag.cli import (
    SpecSemanticError,
    SpecSyntaxError,
    _dump,
    classified_from_record,
    classified_record,
    parse_product,
    run,
    tableau_record,
)
from geodiag.tableaux import (
    Box,
    ClassifiedSubmanifold,
    ProductSpace,
    classify,
    count_classes,
    enumerate_tableaux,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "classified.json").read_text())
VERIFIED_SCHEMA = json.loads((ROOT / "schema" / "verified.json").read_text())


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


class TestParser:
    def test_three_factor_product(self):
        M = parse_product("RH3(1) x CH3(2) x HH3(1)")
        assert M.r == 3
        assert [f.field.value for f in M.factors] == ["R", "C", "H"]
        assert [f.curvature for f in M.factors] == [1, 2, 1]

    def test_complex_line_normalizes(self):
        M = parse_product("CH1(4)")
        assert M.factors == (space("R", 2, 4),)

    def test_rational_curvatures(self):
        M = parse_product("CH2(1/4)")
        assert M.factors[0].curvature == Fraction(1, 4)

    def test_octonionic_dimension_is_semantic_error(self):
        with pytest.raises(SpecSemanticError) as err:
            parse_product("OH3(1)")
        assert "octonionic dimension must be 2" in str(err.value)

    def test_zero_curvature_is_semantic_error(self):
        with pytest.raises(SpecSemanticError):
            parse_product("RH2(0)")
        with pytest.raises(SpecSemanticError):
            parse_product("RH2(1/0)")
        with pytest.raises(SpecSemanticError):
            parse_product("RH1(1)")

    @pytest.mark.parametrize(
        "spec, position, message",
        [
            ("OH3(1)", 0, "octonionic dimension must be 2"),
            ("RH2(1) x OH3(1)", 9, "octonionic dimension must be 2"),
            ("RH2(1) x RH1(1)", 9, "R H^1 is flat"),
            ("RH2(1) x CH2(0)", 9, "curvature must be positive"),
            ("RH2(1) x CH0(1)", 9, "dimension must be a positive integer"),
            ("RH2(1) x CH2(1) x HH2(1/0)", 18, "curvature denominator must not be zero"),
        ],
    )
    def test_semantic_errors_carry_their_factor_position(self, spec, position, message):
        with pytest.raises(SpecSemanticError) as err:
            parse_product(spec)
        assert err.value.position == position
        assert message in str(err.value)
        assert str(err.value).endswith(f"(at position {position})")

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_product("RH3(1) y CH3(2)")
        assert err.value.position == 6
        with pytest.raises(SpecSyntaxError) as err:
            parse_product("XH3(1)")
        assert err.value.position == 0
        with pytest.raises(SpecSyntaxError):
            parse_product("RH3(1) x ")
        with pytest.raises(SpecSyntaxError):
            parse_product("")

    def test_blanks_around_the_product_are_skipped(self):
        expected = parse_product("RH3(1) x CH2(1)")
        for spec in (" RH3(1) x CH2(1)", "RH3(1) x CH2(1) ", "\t RH3(1) x CH2(1)\n"):
            assert parse_product(spec) == expected
        assert invoke(["count", "-m", " RH3(1)"]) == invoke(["count", "-m", "RH3(1) "]) == (0, "4\n")
        # positions still index the text as given
        with pytest.raises(SpecSyntaxError) as err:
            parse_product("  RH3(1) y CH3(2)")
        assert err.value.position == 8
        with pytest.raises(SpecSemanticError) as err:
            parse_product("  RH2(1) x OH3(1)")
        assert err.value.position == 11
        with pytest.raises(SpecSyntaxError) as err:
            parse_product("  XH3(1)")
        assert err.value.position == 2

    def test_semantic_and_syntax_errors_are_distinct(self):
        assert issubclass(SpecSemanticError, ValueError)
        assert issubclass(SpecSyntaxError, ValueError)
        assert not issubclass(SpecSemanticError, SpecSyntaxError)

    def test_render_parse_round_trip(self):
        for text in ("RH3(1) x CH3(2) x HH3(1)", "RH3(1)* x CH3(2/3)* x OH2(1)*"):
            M = parse_product(text)
            assert str(M) == text
            assert parse_product(str(M)) == M

    def test_star_marks_a_compact_dual(self):
        M = parse_product("CH1(4)* x RH2(1)*")
        assert M.factors == (space("R", 2, 4, compact_dual=True), space("R", 2, 1, compact_dual=True))
        assert M.compact_dual

    @pytest.mark.parametrize("text", ["RH2(1)* x RH2(1)", "RH2(1) x CH2(1)*"])
    def test_mixed_compact_and_non_compact_is_a_usage_error(self, text, capsys):
        assert invoke(["count", "-m", text]) == (2, "")
        err = capsys.readouterr().err
        assert err == "error: factors must all be compact duals or all non-compact\n"


@st.composite
def product_spaces(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    compact_dual = draw(st.booleans())
    factors = []
    for _ in range(r):
        field = draw(st.sampled_from(["R", "C", "H", "O"]))
        n = 2 if field == "O" else draw(st.integers(min_value=2, max_value=6))
        c = draw(st.fractions(min_value=Fraction(1, 12), max_value=12))
        factors.append(space(field, n, c, compact_dual))
    return ProductSpace(tuple(factors))


@given(product_spaces())
def test_round_trip_is_the_identity(M):
    assert parse_product(str(M)) == M


class TestCommands:
    def test_count(self):
        code, out = invoke(["count", "-m", "RH2(1)"])
        assert code == 0
        assert out.strip() == "3"

    def test_classify_json_contains_the_eighth_curvature_diagonal(self):
        code, out = invoke(["classify", "-m", "CH2(1) x CH2(1)", "--json"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        hits = [r for r in records if r["factors"] == [["R", 2, "1/8"]] and r["flat_dim"] == 0]
        assert hits, "missing the two-diagonal real plane of curvature 1/8"

    def test_realize_record(self):
        code, out = invoke(["realize", "--q", "1/5", "--m", "2"])
        assert code == 0
        record = json.loads(out)
        assert record == {
            "k": 5,
            "s": 2,
            "n": 10,
            "m": 2,
            "ambient": "G5(C15)",
            "cosine": "1/5",
        }

    def test_angles_table_csv(self):
        code, out = invoke(["angles", "--k", "4", "--table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,s,cosine"
        assert lines[1:] == ["4,0,1", "4,1,1/2", "4,2,0", "4,3,1/2", "4,4,1"]

    def test_angles_json(self):
        code, out = invoke(["angles", "--k", "5", "--json"])
        record = json.loads(out)
        assert record["cosines"] == ["1/5", "3/5", "1"]

    def test_angles_table_does_not_build_the_angle_list(self, monkeypatch):
        def refuse(k):
            raise AssertionError("the CSV table must not build the deduplicated angles")

        monkeypatch.setattr("geodiag.cli.angles_in_product", refuse)
        code, out = invoke(["angles", "--k", "4", "--table"])
        assert code == 0
        assert out.splitlines() == ["k,s,cosine", "4,0,1", "4,1,1/2", "4,2,0", "4,3,1/2", "4,4,1"]

    @pytest.mark.parametrize("form", [[], ["--json"], ["--table"]])
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_angles_reject_k_below_one_in_every_form(self, form, k, capsys):
        code, out = invoke(["angles", "--k", k, *form])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: k must be a positive integer\n"

    def test_tableaux_requires_subset(self):
        code, out = invoke(["tableaux", "-m", "RH3(1) x CH3(2)", "--subset", "1,2"])
        assert code == 0
        assert out.strip()

    def test_approximate_command(self):
        code, out = invoke(["approximate", "--target", "0.7853981633974483", "--epsilon", "1e-3"])
        assert code == 0
        assert json.loads(out)["k"] <= 2000

    @pytest.mark.parametrize(
        "target, epsilon, message",
        [
            ("0.5", "nan", "error: epsilon must be a positive finite number, got nan"),
            ("0.5", "inf", "error: epsilon must be a positive finite number, got inf"),
            # cos(1e-9) rounds to 1.0, whose angle 0 misses the target by 1e-9
            ("1e-9", "1e-12", "error: no convergent of the float cosine 1.0 lies within 1e-12"),
        ],
    )
    def test_approximate_failures_are_one_line_usage_errors(self, target, epsilon, message, capsys):
        code, out = invoke(["approximate", "--target", target, "--epsilon", epsilon])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(message), err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["realize", "--q", "abc"], "error: --q must be a rational like 1/5, got 'abc'"),
            (["realize", "--q", "1/0"], "error: --q must be a rational like 1/5, got '1/0'"),
            (["realize", "--q", "3/2"], "error: cosine must lie in [0, 1], got 3/2"),
            (
                ["tableaux", "-m", "RH3(1) x CH3(2)", "--subset", "a"],
                "error: --subset must be a comma-separated list of factor indices, got 'a'",
            ),
        ],
    )
    def test_flag_errors_name_the_flag(self, argv, message, capsys):
        code, out = invoke(argv)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["realize", "--q", "-1/2"], "error: argument --q: expected one argument"),
            (
                ["angles", "--k", "3", "--table", "--json"],
                "error: argument --json: not allowed with argument --table",
            ),
            (["nonsense"], "error: argument command: invalid choice: 'nonsense'"),
            (["count"], "error: the following arguments are required: -m/--product"),
            (["realize", "--q=-1/2"], "error: cosine must lie in [0, 1], got -1/2"),
            (
                ["verify", "-m", "RH2(1)", "--tol", "1e308"],
                "error: --tol must keep the curvature tolerance 10 * tol finite, got 1e+308",
            ),
        ],
    )
    def test_argument_errors_are_one_line(self, argv, message, capsys):
        code, out = invoke(argv)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(message), err
        assert len(err.splitlines()) == 1

    def test_help_exits_0(self, capsys):
        assert invoke(["--help"]) == (0, "")
        assert capsys.readouterr().out.startswith("usage: geodiag")

    def test_usage_errors_exit_2(self):
        assert invoke(["count", "-m", "OH3(1)"])[0] == 2
        assert invoke(["count", "-m", "RH3(1) y RH3(1)"])[0] == 2
        assert invoke(["realize", "--q", "7/5"])[0] == 2
        assert invoke(["nonsense"])[0] == 2

    def test_verify_passes_on_supported_product(self):
        code, out = invoke(["verify", "-m", "RH2(1) x RH2(1)", "--seed", "1"])
        assert code == 0
        assert "# verified: 9 pass" in out

    def test_verify_strict_fails_on_unsupported(self):
        assert invoke(["verify", "-m", "OH2(1)"])[0] == 0
        assert invoke(["verify", "-m", "OH2(1)", "--strict"])[0] == 1
        assert invoke(["verify", "-m", "CH2(1)", "--strict"])[0] == 0

    def test_verify_json_reports(self):
        code, out = invoke(["verify", "-m", "CH2(1)", "--json", "--seed", "3"])
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            assert record["status"] == "pass"

    @pytest.mark.parametrize(
        "product, isometry_type, rows",
        [
            # an unsupported row beside a flat direction
            ("HH2(1) x HH2(1)", "RH2(1) x R^1", ["unsupported"]),
            # an unsupported row beside a measured row
            ("RH2(1) x OH2(1)", "RH2(1) x OH2(1)", ["ok", "unsupported"]),
        ],
    )
    def test_verify_json_total_is_null_when_a_row_was_not_measured(self, product, isometry_type, rows):
        code, out = invoke(["verify", "--json", "-m", product, "--seed", "0"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        record = next(r for r in records if r["isometry_type"] == isometry_type)
        assert [r["status"] for r in record["rows"]] == rows
        assert record["status"] == "unsupported" and record["total_lie_residual"] is None
        # entries whose rows were all measured keep their total
        assert any(r["status"] == "pass" and r["total_lie_residual"] == 0.0 for r in records)

    def test_verify_exits_1_when_a_check_fails(self, monkeypatch):
        # no real entry fails, so stub one failing report to pin the exit code
        import geodiag.cli as cli_mod
        from geodiag.lieverify import EntryVerification, RowVerification

        real = cli_mod.verify_classification_entry

        def failing(entry, M, **kw):
            if not entry.tableau.rows:
                return real(entry, M, **kw)
            bad_row = RowVerification(
                0, "stub", "fail", "curvature off by 1.0e-02", 0.0, 0.5, 0.51, 1e-2
            )
            return EntryVerification(entry, (bad_row,), 0.0)

        monkeypatch.setattr(cli_mod, "verify_classification_entry", failing)
        code, out = invoke(["verify", "-m", "RH2(1)"])
        assert code == 1
        assert "fail: curvature off by 1.0e-02" in out
        assert out.splitlines()[-1] == "# verified: 2 pass, 1 fail, 0 unsupported"

    @pytest.mark.parametrize(
        "product, diagonal, label, summary",
        [
            ("RH2(1) x RH2(1)", None, space("R", 2, 7), "8 pass, 1 fail"),
            # the same class and curvature, the wrong duality
            ("CH2(1) x CH2(1)", space("R", 2, "1/2"), space("R", 2, "1/2", compact_dual=True), "28 pass, 1 fail"),
        ],
        ids=["wrong curvature", "wrong duality"],
    )
    def test_verify_exits_1_on_a_relabelled_entry(self, monkeypatch, product, diagonal, label, summary):
        import dataclasses

        import geodiag.cli as cli_mod

        real = cli_mod.classify

        def relabelled(M):
            for e in real(M):
                rows = e.tableau.rows
                if len(rows) == 1 and len(rows[0]) == 2 and diagonal in (None, e.semisimple_factors[0]):
                    e = dataclasses.replace(e, semisimple_factors=(label,))
                yield e

        monkeypatch.setattr(cli_mod, "classify", relabelled)
        code, out = invoke(["verify", "-m", product])
        assert code == 1
        assert f"fail: label {label} differs from the row's diagonal RH2(1/2)\n" in out
        assert out.splitlines()[-1] == f"# verified: {summary}, 0 unsupported"

    def test_verify_text_names_rows_that_failed_unmeasured(self, monkeypatch):
        import dataclasses

        import geodiag.cli as cli_mod
        import geodiag.lieverify as lieverify_mod

        real_classify = cli_mod.classify

        def no_images(sub, ambient, q):
            raise ValueError("no images here")

        def relabelled(M):
            for e in real_classify(M):
                if e.tableau.shape == (1,):
                    e = dataclasses.replace(e, semisimple_factors=(space("R", 2, 7),))
                yield e

        with monkeypatch.context() as patch:
            patch.setattr(lieverify_mod, "_box_coordinates", no_images)
            code, out = invoke(["verify", "-m", "CH3(1)", "--seed", "0"])
        assert code == 1
        assert "             row 0: fail: not measurable: no images here\n" in out
        assert out.splitlines()[-1] == "# verified: 2 pass, 5 fail, 0 unsupported"

        # a mislabelled row on a factor without a model is not measured either
        monkeypatch.setattr(cli_mod, "classify", relabelled)
        code, out = invoke(["verify", "-m", "HH2(1)", "--seed", "0"])
        assert code == 1
        assert "             row 0: fail: label RH2(7) differs from the row's diagonal HH2(1)\n" in out
        assert "None" not in out and out.splitlines()[-1].startswith("# verified: ")

    @staticmethod
    def flat_direction_on_the_row_factor(real):
        """``classify`` with each one-row, flat-dimension-1 entry's flat direction on its row's factor."""

        def forged(M):
            for e in real(M):
                if e.tableau.shape == (1,) and e.flat_dim == 1:
                    e = copy.copy(e)
                    # bypasses ClassifiedSubmanifold validation
                    object.__setattr__(e, "complement_factors", (e.tableau.rows[0][0].factor,))
                yield e

        return forged

    def test_verify_names_the_factor_of_a_failing_total(self, monkeypatch):
        import geodiag.cli as cli_mod

        argv = ["verify", "-m", "RH2(1) x RH2(1)"]
        clean_text, clean_json = invoke(argv)[1], invoke(argv + ["--json"])[1]
        monkeypatch.setattr(cli_mod, "classify", self.flat_direction_on_the_row_factor(cli_mod.classify))
        code, out = invoke(argv)
        assert code == 1
        assert out.count("fail         RH2(1) x R^1\n") == 2
        for factor in (1, 2):
            assert f"             fail: factor {factor} carries row 0 and a flat direction\n" in out
        assert out.splitlines()[-1] == "# verified: 7 pass, 2 fail, 0 unsupported"
        assert len(out.splitlines()) == len(clean_text.splitlines()) + 2

        code, out = invoke(argv + ["--json"])
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        failing = [r for r in records if r["status"] == "fail"]
        assert [r["reason"] for r in failing] == [
            f"factor {factor} carries row 0 and a flat direction" for factor in (1, 2)
        ]
        # passing records are byte-identical to an unforged run
        passing = [line for line in out.splitlines() if '"status":"pass"' in line]
        assert len(passing) == 7 and set(passing) <= set(clean_json.splitlines())
        assert all("reason" not in r for r in records if r["status"] == "pass")

    def test_verify_refuses_a_model_above_the_limit(self, monkeypatch, capsys):
        import geodiag.lieverify as lieverify_mod

        def refuse(*args):
            raise AssertionError("a matrix model was built")

        monkeypatch.setattr(lieverify_mod, "sphere_decomp", refuse)
        monkeypatch.setattr(lieverify_mod, "grassmannian_decomp", refuse)
        for argv in (["verify", "-m", "RH100000(1)"], ["verify", "-m", "CH9(1) x CH9(1)", "--json"]):
            start = time.perf_counter()
            code, out = invoke(argv)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "verify builds at most 18" in err
            assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_verify_summary_counts_unsupported(self):
        code, out = invoke(["verify", "-m", "RH2(1) x OH2(1)"])
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("# verified: ") and last.endswith(" unsupported")
        assert " 0 fail, " in last and not last.endswith(" 0 unsupported")

    @pytest.mark.parametrize(
        "spec, summary",
        [
            ("RH2(1) x OH2(1)", "5 pass, 0 fail, 35 unsupported"),
            ("RH3(1) x CH3(2) x HH3(1)", "51 pass, 0 fail, 336 unsupported"),
        ],
    )
    def test_verify_summary_with_unmodelled_factors(self, spec, summary):
        # entries whose flat directions alone meet H or O factors pass
        code, out = invoke(["verify", "-m", spec, "--seed", "0"])
        assert code == 0
        assert out.splitlines()[-1] == f"# verified: {summary}"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_verify_rejects_bad_tolerance(self, tol, capsys):
        code, out = invoke(["verify", "-m", "RH2(1)", f"--tol={tol}"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: --tol must be a positive finite number")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_parser_is_built_once(self):
        from geodiag.cli import build_parser

        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                "RH3(1) x CH3(2) x HH3(1)",
                "74748707126b77f05ba35b338794c83015e01d513401e44272372b42a5a72095",
            ),
            (
                "HH4(3/2) x CH3(1) x RH4(1/2) x OH2(1)",
                "8e3fb945230dd17c59f1bc3e8871dbc1a67c76e1705e3fa336f58d792e8b5c0f",
            ),
        ],
    )
    def test_classify_json_bytes_are_pinned(self, spec, digest):
        code, out = invoke(["classify", "-m", spec, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_classify_json_streams_records(self, monkeypatch):
        # the first record is written while the classification is still running
        import geodiag.cli as cli_mod

        real = cli_mod.classify
        state = {"yielded": 0, "exhausted": False, "first_write": None}

        def counting(M):
            for e in real(M):
                state["yielded"] += 1
                yield e
            state["exhausted"] = True

        class Out(io.StringIO):
            def write(self, text):
                if state["first_write"] is None:
                    state["first_write"] = (state["yielded"], state["exhausted"])
                return super().write(text)

        monkeypatch.setattr(cli_mod, "classify", counting)
        out = Out()
        assert run(["classify", "-m", "RH3(1) x CH3(2) x HH3(1)", "--json"], out) == 0
        assert state["exhausted"] and state["yielded"] == 387
        assert state["first_write"] == (1, False)
        assert len(out.getvalue().splitlines()) == 387

    def test_count_is_linear_in_a_huge_real_factor(self):
        start = time.perf_counter()
        code, out = invoke(["count", "-m", "RH20000(1)"])
        assert (code, out) == (0, "20001\n")
        assert time.perf_counter() - start < 10.0

    def test_output_is_deterministic(self):
        for argv in (
            ["classify", "-m", "RH3(1) x CH3(2) x HH3(1)", "--json"],
            ["verify", "-m", "CH2(1) x CH2(1)", "--json", "--seed", "7"],
            ["tableaux", "-m", "OH2(1) x HH2(2)", "--subset", "1,2", "--json"],
        ):
            assert invoke(argv) == invoke(argv)


class TestSplicedRecords:
    """``classify --json`` splices its lines from fragments rendered once, and
    ``tableaux --json`` shares its row helper; every line must read as the record
    functions write it."""

    @pytest.mark.parametrize(
        "spec",
        [
            "RH2(1)",
            "OH2(1)",
            "RH3(1)* x CH3(2)*",
            "RH3(1) x CH3(2) x HH3(1)",
            "HH4(3/2) x CH3(1) x RH4(1/2) x OH2(1)",
        ],
    )
    def test_classify_json_lines_are_the_records(self, spec):
        class Out(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        M = parse_product(spec)
        out = Out()
        assert run(["classify", "-m", spec, "--json"], out) == 0
        lines = out.getvalue().splitlines()
        assert lines == [_dump(classified_record(e)) for e in classify(M)]
        assert len(lines) == count_classes(M) == out.writes

    @pytest.mark.parametrize(
        "spec, subset",
        [
            ("RH3(1) x CH3(2) x HH3(1)", "1,2,3"),
            ("HH4(3/2) x CH3(1) x RH4(1/2) x OH2(1)", "1,3,4"),
        ],
    )
    def test_tableaux_json_lines_are_the_records(self, spec, subset):
        M = parse_product(spec)
        code, out = invoke(["tableaux", "-m", spec, "--subset", subset, "--json"])
        assert code == 0
        tableaux = list(enumerate_tableaux(M, [int(i) for i in subset.split(",")]))
        assert len(tableaux) > 1
        assert out.splitlines() == [_dump({"rows": tableau_record(t)}) for t in tableaux]

    def test_verify_json_lines_are_the_dumped_reports(self, monkeypatch):
        # unsupported rows beside measured ones, and entries whose totals are null
        spec = "RH3(1) x CH3(2) x HH3(1)"
        rendered = []
        real = lieverify.RowVerification.to_dict

        def counting(row):
            rendered.append(row)
            return real(row)

        with monkeypatch.context() as patch:
            patch.setattr(lieverify.RowVerification, "to_dict", counting)
            code, out = invoke(["verify", "--json", "-m", spec])
        assert code == 0
        M = parse_product(spec)
        entries = list(classify(M))
        assert out.splitlines() == [_dump(lieverify.verify_classification_entry(e, M).to_dict()) for e in entries]
        assert '"status":"unsupported"' in out and '"total_lie_residual":null' in out
        # each row verdict of the product is rendered once
        verdicts = {(id(row), idx) for e in entries for idx, row in enumerate(e.tableau.rows)}
        assert len(rendered) == len(verdicts) < sum(len(e.tableau.rows) for e in entries)

    @staticmethod
    def failing_stream(real):
        """``classify`` with its two-box rows relabelled and one-row entries' flat directions on the row's factor."""

        def stream(M):
            for e in real(M):
                rows = e.tableau.rows
                if len(rows) == 1 and len(rows[0]) == 2:
                    e = dataclasses.replace(e, semisimple_factors=(space("R", 2, 7),))
                elif e.tableau.shape == (1,) and e.flat_dim == 1:
                    e = copy.copy(e)
                    # bypasses ClassifiedSubmanifold validation
                    object.__setattr__(e, "complement_factors", (rows[0][0].factor,))
                yield e

        return stream

    def test_verify_json_lines_of_failing_entries_are_the_dumped_reports(self, monkeypatch):
        spec = "RH2(1) x CH2(1)"
        monkeypatch.setattr(cli_mod, "classify", self.failing_stream(classify))
        code, out = invoke(["verify", "--json", "-m", spec])
        assert code == 1
        M = parse_product(spec)
        expected = [_dump(lieverify.verify_classification_entry(e, M).to_dict()) for e in cli_mod.classify(M)]
        assert out.splitlines() == expected
        # failing records carry a reason: null when only rows failed, the entry's own otherwise
        assert '"reason":null' in out and '"reason":"factor 1 carries row 0 and a flat direction"' in out
        assert '"reason":"label RH2(7) differs from the row' in out

    def test_classify_text_is_pinned_and_names_each_entry_once(self, monkeypatch):
        calls = []
        real = ClassifiedSubmanifold.isometry_type

        def counting(entry):
            calls.append(entry)
            return real(entry)

        monkeypatch.setattr(ClassifiedSubmanifold, "isometry_type", counting)
        code, out = invoke(["classify", "-m", "RH3(1) x CH3(2) x HH3(1)"])
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "6ed2dfd14018be6bd7abea242e2a277d7f25fdb1b6b6b7d0e42e6a7cbcb90055"
        )
        assert len(calls) == len(out.splitlines()) == 387

    def test_classify_text_renders_each_box_of_a_row_once(self, monkeypatch):
        spec = "RH3(1) x CH3(2) x HH3(1)"
        rows = {id(row): row for e in classify(parse_product(spec)) for row in e.tableau.rows}
        distinct_boxes = sum(len(row) for row in rows.values())
        calls = []
        real = Box.__str__

        def counting(box):
            calls.append(box)
            return real(box)

        monkeypatch.setattr(Box, "__str__", counting)
        code, out = invoke(["classify", "-m", spec])
        assert code == 0 and len(out.splitlines()) == 387
        assert 0 < len(calls) <= distinct_boxes
        # a copied row renders again, to the same text
        row = max(rows.values(), key=len)
        text = str(row)
        del calls[:]
        assert str(copy.deepcopy(row)) == text and len(calls) == len(row)


class TestSchema:
    @pytest.mark.parametrize(
        "spec", ["RH2(1)", "CH2(1) x CH2(1)", "RH3(1) x CH3(2) x HH3(1)", "OH2(1)"]
    )
    def test_records_validate(self, spec):
        _, out = invoke(["classify", "-m", spec, "--json"])
        validator = jsonschema.Draft7Validator(SCHEMA)
        for line in out.splitlines():
            validator.validate(json.loads(line))

    @pytest.mark.parametrize("spec", ["CH2(1) x CH2(1)", "RH3(1) x CH3(2) x HH3(1)"])
    def test_records_round_trip_losslessly(self, spec):
        M = parse_product(spec)
        for entry in classify(M):
            record = json.loads(json.dumps(classified_record(entry)))
            assert classified_from_record(record, M) == entry

    def test_schema_is_tagged_v1(self):
        assert SCHEMA["version"] == "v1"

    @pytest.mark.parametrize("spec", ["CH2(1) x CH2(1)", "RH3(1) x CH3(2) x HH3(1)"])
    def test_verify_records_validate(self, spec):
        _, out = invoke(["verify", "--json", "-m", spec])
        records = [json.loads(line) for line in out.splitlines()]
        validator = jsonschema.Draft7Validator(VERIFIED_SCHEMA)
        for record in records:
            validator.validate(record)
        statuses = {row["status"] for record in records for row in record["rows"]}
        assert statuses == ({"ok", "unsupported"} if "HH3" in spec else {"ok"})

    def test_verify_schema_rejects_a_record_that_breaks_it(self):
        _, out = invoke(["verify", "--json", "-m", "CH2(1) x CH2(1)"])
        record = json.loads(out.splitlines()[-1])
        validator = jsonschema.Draft7Validator(VERIFIED_SCHEMA)
        broken = [
            {**record, "status": "fail"},  # a failing record carries a reason
            {**record, "reason": None},  # a passing one does not
            {**record, "rows": [{**record["rows"][0], "curvature_error": None}]},
            {**record, "seed": 0},
        ]
        for bad in broken:
            assert not validator.is_valid(bad), bad

    def test_verify_schema_is_tagged_v2(self):
        # v2: lie_residual, total_lie_residual and curvature_error are relative
        assert VERIFIED_SCHEMA["version"] == "v2"
        assert VERIFIED_SCHEMA["$id"] == "geodiag/verified/v2"

    def test_verify_writes_a_nan_measurement_as_null(self, monkeypatch):
        monkeypatch.setattr(lieverify, "calibration_constant", lambda: math.nan)
        code, out = invoke(["verify", "--json", "-m", "RH3(1) x CH2(1) x HH2(1)"])
        assert code == 1

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        records = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
        validator = jsonschema.Draft7Validator(VERIFIED_SCHEMA)
        for record in records:
            validator.validate(record)
        rows = [row for record in records for row in record["rows"] if row["status"] != "unsupported"]
        assert rows
        for row in rows:
            assert row["status"] == "fail" and row["reason"] == "curvature off by nan"
            assert row["curvature_measured"] is None and row["curvature_error"] is None
            assert row["curvature_expected"] > 0 and row["lie_residual"] >= 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dump_refuses_a_float_that_is_not_finite(self, value):
        with pytest.raises(ValueError):
            _dump({"rows": [{"curvature_error": value}]})


class TestSeedIsIgnored:
    def test_verify_output_is_the_same_for_any_seed(self, monkeypatch):
        argv = ["verify", "--json", "-m", "CH2(1) x RH3(1/2)"]
        outputs = [invoke([*argv, "--seed", "0"]), invoke([*argv, "--seed", "7"]), invoke(argv)]
        monkeypatch.setenv("GEODIAG_SEED", "abc")
        outputs.append(invoke(argv))
        assert outputs[0][0] == 0 and outputs[0][1]
        assert all(out == outputs[0] for out in outputs)

    def test_a_negative_seed_is_accepted(self):
        argv = ["verify", "--json", "-m", "RH3(1) x CH2(1)"]
        assert invoke([*argv, "--seed", "-1"]) == invoke(argv)
        assert invoke(argv)[0] == 0

    def test_a_non_integer_seed_is_still_a_usage_error(self, capsys):
        assert invoke(["verify", "-m", "RH2(1)", "--seed", "x"]) == (2, "")
        assert capsys.readouterr().err == "error: argument --seed: invalid int value: 'x'\n"


def test_verify_at_the_model_limit_peaks_below_150_mib():
    """The full CH17 row, the largest the verifier builds, in a fresh process with one BLAS thread."""
    script = (
        "import io, resource; from geodiag.cli import run;"
        " code = run(['verify', '-m', 'CH17(1)'], io.StringIO());"
        " print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    code, peak = proc.stdout.split()
    assert code == "0"
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak_mib = int(peak) / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mib < 150, peak_mib


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["angles", "--k", "100000"],
            ["classify", "--json", "-m", "HH4(1) x HH4(1) x CH4(1)"],
            ["verify", "--json", "-m", "CH3(1) x CH3(1) x CH3(1)"],
        ],
    )
    def test_a_reader_that_stops_after_one_line_ends_the_run_quietly(self, argv):
        # each output is far larger than a pipe's buffer, so writing must hit the closed pipe
        script = "import sys; from geodiag.cli import main; sys.exit(main())"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first.endswith(b"\n") and err == b""
