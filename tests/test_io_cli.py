"""Structure files, report emission, and the command-line surface."""

import argparse
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import hermlie as hl
from hermlie import batteries, search, structio
from hermlie.cli import _build_parser, main

from conftest import random_structure


def catalog_fixtures():
    return {
        "abelian1": hl.abelian(1),
        "abelian3": hl.abelian(3),
        "affine": hl.affine_complex_group(1.0),
        "samelson": hl.samelson_su2_r(1.0),
        "bdf4": hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0)),
        "bdf6": hl.to_unitary_structure(
            hl.bdf_general(hl.BdfSpec(p=2, h_dim=1, c_dim=1, q=[[1.0, 2.0]]))
        ),
    }


class TestParse:
    def test_minimal_abelian(self):
        U = structio.parse_structure(b'{"schema_version":1,"n":1,"C":[],"D":[]}')
        assert U.n == 1
        assert np.abs(U.D).max() == 0.0

    def test_samelson_file(self):
        body = {
            "schema_version": 1,
            "n": 2,
            "C": [{"j": 2, "i": 1, "k": 2, "re": 0.0, "im": 0.7071067811865475}],
            "D": [
                {"j": 2, "i": 1, "k": 2, "re": 0.0, "im": -0.7071067811865475},
                {"j": 2, "i": 2, "k": 1, "re": 0.0, "im": 0.7071067811865475},
            ],
        }
        U = structio.parse_structure(json.dumps(body).encode())
        sam = hl.samelson_su2_r(1.0)
        assert np.abs(U.C - sam.C).max() <= 1e-15
        assert np.abs(U.D - sam.D).max() <= 1e-15

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema_version=2), "schema_version"),
            (lambda d: d.update(extra=1), "unknown"),
            (lambda d: d["C"].append({"j": 1, "i": 2, "k": 1, "re": 1.0, "im": 0.0}), "i < k"),
            (lambda d: d["C"].extend(
                [{"j": 2, "i": 1, "k": 2, "re": 0.0, "im": 0.0}] * 2
            ), "duplicate"),
            (lambda d: d["D"].append({"j": 1, "i": 1, "k": 5, "re": 0.0, "im": 0.0}), "out of range"),
            (lambda d: d["D"].append({"j": 1, "i": 1, "re": 0.0, "im": 0.0}), "fields"),
        ],
    )
    def test_rejects_malformed(self, mutate, fragment):
        doc = {"schema_version": 1, "n": 2, "C": [], "D": []}
        mutate(doc)
        with pytest.raises(hl.exceptions.ParseError) as err:
            structio.parse_structure(json.dumps(doc).encode())
        assert fragment in str(err.value)

    def test_rejects_bad_json(self):
        with pytest.raises(hl.exceptions.ParseError):
            structio.parse_structure(b"{not json")

    def test_duplicate_names_the_tuple(self):
        doc = {
            "schema_version": 1,
            "n": 2,
            "C": [
                {"j": 2, "i": 1, "k": 2, "re": 1.0, "im": 0.0},
                {"j": 2, "i": 1, "k": 2, "re": 2.0, "im": 0.0},
            ],
            "D": [],
        }
        with pytest.raises(hl.exceptions.ParseError) as err:
            structio.parse_structure(json.dumps(doc).encode())
        assert "(j=2, i=1, k=2)" in str(err.value)


@st.composite
def sparse_structures(draw):
    """Random (C, D) at n = 1..4 with random zero patterns and finite complex entries."""
    n = draw(st.integers(1, 4))
    index = st.tuples(*3 * [st.integers(0, n - 1)])
    entries = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)

    def sparse():
        X = np.zeros((n, n, n), dtype=complex)
        for key, value in draw(st.dictionaries(index, entries, max_size=n**3)).items():
            X[key] = value
        return X

    X = np.where(np.triu(np.ones((n, n), dtype=bool), 1), sparse(), 0)
    return hl.UnitaryStructure(n=n, C=X - X.transpose(0, 2, 1), D=sparse())


class TestEmit:
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(sparse_structures())
    def test_sparse_structures_round_trip_in_canonical_order(self, U):
        payload = structio.emit_structure(U)
        doc = json.loads(payload)
        assert all(e["i"] < e["k"] for e in doc["C"])
        for label in ("C", "D"):
            keys = [(e["j"], e["i"], e["k"]) for e in doc[label]]
            assert all(a < b for a, b in zip(keys, keys[1:])), label
        back = structio.parse_structure(payload)
        assert np.array_equal(back.C, U.C) and np.array_equal(back.D, U.D)
        assert structio.emit_structure(back) == payload

    def test_round_trip_exact_and_bitwise(self):
        for name, U in catalog_fixtures().items():
            payload = structio.emit_structure(U, name=name)
            back = structio.parse_structure(payload)
            assert np.array_equal(back.C, U.C), name
            assert np.array_equal(back.D, U.D), name
            assert structio.emit_structure(back, name=name) == payload, name

    def test_round_trip_random(self):
        for seed in range(5):
            U = random_structure(3, 2000 + seed)
            back = structio.parse_structure(structio.emit_structure(U))
            assert np.array_equal(back.C, U.C)
            assert np.array_equal(back.D, U.D)

    def test_deterministic_bytes(self):
        U = hl.samelson_su2_r(1.0)
        assert structio.emit_structure(U) == structio.emit_structure(U)

    def test_provenance_is_parsed_and_not_emitted(self):
        payload = structio.emit_structure(hl.samelson_su2_r(1.0), name="samelson")
        doc = json.loads(payload)
        doc["metadata"]["provenance"] = "written by hand"
        back = structio.parse_structure(json.dumps(doc))
        assert structio.emit_structure(back, name="samelson") == payload


class TestReports:
    def test_analyze_csv_bdf(self):
        U = hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))
        summary = hl.kahler_flatness_summary(U, [0.0, 1.0, 2.0])
        text = structio.emit_report(summary, "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "s,flatness_residual,torsion_norm,eta_norm,kahler_flag"
        assert len(lines) == 4
        for line in lines[1:]:
            s, flat, tnorm, enorm, flag = line.split(",")
            assert float(flat) <= 1e-12
            assert flag == "true"

    def test_analyze_csv_samelson(self):
        U = hl.samelson_su2_r(1.0)
        summary = hl.kahler_flatness_summary(U, [0.0, 2.0])
        rows = dict()
        text = structio.emit_report(summary, "csv").decode()
        for line in text.strip().split("\n")[1:]:
            s, flat, tnorm, enorm, flag = line.split(",")
            rows[float(s)] = (float(flat), flag)
            assert flag == "false"
        assert rows[2.0][0] <= 1e-12
        assert rows[0.0][0] > 1e-12

    def test_empty_grid_keeps_the_analyze_header(self):
        summary = hl.kahler_flatness_summary(hl.abelian(2), [])
        assert structio.emit_report(summary, "csv") == (
            b"s,flatness_residual,torsion_norm,eta_norm,kahler_flag\n")

    def test_json_report_parses(self):
        U = hl.abelian(2)
        payload = structio.emit_report(hl.kahler_flatness_summary(U, [0.0]), "json")
        doc = json.loads(payload)
        assert doc[0]["kahler_flag"] is True


class TestCli:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        return code

    def test_parser_choices_match_their_source(self):
        # the parser spells the choices out so that it imports neither module
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command, option):
            return next(tuple(a.choices) for a in sub.choices[command]._actions
                        if option in a.option_strings)

        assert choices("search", "--mode") == (search.FULL, search.PARALLEL_FRAME)
        assert choices("verify-theorems", "--suite") == (*batteries.SUITES, "all")

    def test_catalog_analyze_pipeline(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert main(["catalog", "samelson", "--c", "1", "--emit", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--s-grid", "0,1,2"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "s,flatness_residual,torsion_norm,eta_norm,kahler_flag"
        flat = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert flat[2.0] <= 1e-12 and flat[0.0] > 0.1 and flat[1.0] > 0.1

    def test_shrunken_samelson_is_not_kahler(self, tmp_path, capsys):
        # |T| = 5e-11 is below the validity tolerance, but the flag compares it with the scale
        path = tmp_path / "tiny.json"
        assert main(["catalog", "samelson", "--c", "1e-10", "--emit", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--s-grid", "0,2"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 2
        for row in rows:
            assert float(row.split(",")[2]) == pytest.approx(5e-11)
            assert row.split(",")[4] == "false"

    @pytest.mark.parametrize("c", ["1e140", "1e152"])
    def test_huge_samelson_prints_finite_rows(self, c, tmp_path, capsys):
        # the squares of these rows overflow; the rows, |T| and eta do not
        path = tmp_path / "huge.json"
        assert main(["catalog", "samelson", "--c", c, "--emit", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--s-grid", "0,1,2,3"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        for row in rows:
            assert all(np.isfinite(float(x)) for x in row[:4]) and row[4] == "false"
            assert float(row[2]) == pytest.approx(0.5 * float(c), rel=1e-15)
        assert float(rows[0][1]) == pytest.approx(float(c) ** 2, rel=1e-14)  # 1 at c = 1

    def test_validate_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        main(["catalog", "bdf4", "--q", "1", "--emit", str(good)])
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        main([
            "catalog", "perturb", "--base", str(good), "--eps", "0.1",
            "--seed", "7", "--emit", str(bad),
        ])
        assert main(["validate", str(bad)]) == 1

    def test_parse_error_is_validation_failure(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["validate", str(p)]) == 1

    def test_usage_errors(self, capsys):
        assert main(["unknown-subcommand"]) == 2
        assert main(["search", "--n", "2"]) == 2  # missing required --s
        assert main(["analyze"]) == 2

    def test_negative_grid_values_parse(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        main(["catalog", "bdf4", "--q", "1", "--emit", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path), "--s-grid", "-1,0,2,3"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 5  # header + four rows
        assert out.strip().split("\n")[1].startswith("-1,")

    def test_search_summary_lines(self, capsys):
        code = main([
            "search", "--n", "1", "--s", "1.0", "--restarts", "3",
            "--seed", "5", "--tol", "1e-12", "--max-iters", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged_kahler: 3" in out
        assert "converged_nonkahler: 0" in out
        header = out.strip().split("\n")[0]
        # rho comes last, so the first eight columns keep their earlier layout
        assert header == ("restart,seed_used,iterations,stop_reason,final_jacobi,final_flatness,"
                          "torsion_norm,classification,rho")
        assert out.strip().split("\n")[1].split(",")[3] == "tol"

    @pytest.mark.parametrize("suite", ["lemma31", "surface", "parallel", "all"])
    def test_verify_theorems_passes(self, suite, capsys):
        assert main(["verify-theorems", "--suite", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("PASS") for line in lines)
        assert not any(line.startswith("FAIL") for line in lines)
        assert lines[-1] == "all checks passed"

    def test_verify_theorems_reports_failure(self, capsys, monkeypatch):
        failing = (batteries.Check("injected failure", False),)
        monkeypatch.setitem(batteries.SUITES, "surface", lambda: failing)
        assert main(["verify-theorems", "--suite", "surface"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  injected failure" in lines
        assert lines[-1] == "some checks FAILED"

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "0", "--s", "1"],
            ["search", "--n", "2", "--s", "1", "--restarts", "0"],
            ["search", "--n", "2", "--s", "nan"],
            ["search", "--n", "1", "--s", "1.3", "--mode", "parallel_frame"],
            ["search", "--n", "2", "--s", "1", "--seed", "-5"],
            ["search", "--n", "2", "--s", "1e200", "--restarts", "2"],
            ["search", "--n", "1000000", "--s", "1", "--restarts", "1"],  # 1 TB index table
            ["catalog", "bdf4", "--q", "abc"],
            ["catalog", "bdf-general", "--q", "x"],
            ["catalog", "samelson", "--c", "nan"],
            ["catalog", "complex-group", "--c", "nan"],
            ["catalog", "complex-group", "--c", "1e308"],
            ["catalog", "perturb", "--base", "{file}", "--eps", "nan"],
            ["catalog", "perturb", "--base", "{file}", "--eps", "1e308"],
            ["catalog", "bdf4", "--q", "1e308"],
            ["validate", "{file}", "--tol", "nan"],
            ["analyze", "{file}", "--s-grid", "nan,1"],
            ["analyze", "{file}", "--s-grid", "1e308"],
            ["catalog", "perturb", "--base", "{file}", "--seed", "-1"],
            ["catalog", "complex-group", "--n", "1"],
            ["catalog", "abelian", "--n", "100000"],
            ["catalog", "complex-group", "--n", "100000"],
            ["catalog", "bdf-general", "--h-pairs", "-1", "--c-pairs", "-1"],
            ["catalog", "bdf-general", "--p", "-1"],
        ],
        ids=[
            "search-n0", "search-restarts0", "search-s-nan", "search-n1-parallel",
            "search-seed-negative", "search-s-huge", "search-n-huge", "bdf4-q-abc",
            "bdf-general-q-x",
            "samelson-c-nan", "complex-group-c-nan", "complex-group-c-huge", "perturb-eps-nan",
            "perturb-eps-huge", "bdf4-q-huge",
            "validate-tol-nan", "analyze-grid-nan", "analyze-grid-huge",
            "perturb-seed-negative", "complex-group-n1", "abelian-n-huge", "complex-group-n-huge",
            "bdf-general-pairs-negative", "bdf-general-p-negative",
        ],
    )
    def test_bad_input_is_an_error(self, argv, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(structio.emit_structure(hl.samelson_su2_r(1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no NumPy overflow warning either
            code = main([arg.replace("{file}", str(path)) for arg in argv])
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert captured.err.startswith("error:")
        assert "nan" not in captured.out

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("n", True, "n must be a positive integer"),
            ("n", 100000, "n=100000 is too large"),  # NumPy refuses 14 PiB before touching memory
            ("j", True, "index j=True"),
            ("i", False, "index i=False"),
            ("k", True, "index k=True"),
        ],
    )
    def test_bad_structure_file_is_an_error(self, field, value, named, tmp_path, capsys):
        entry = {"j": 1, "i": 1, "k": 2, "re": 1.0, "im": 0.0}
        doc = {"schema_version": 1, "n": 2, "C": [], "D": [entry]}
        (doc if field == "n" else entry)[field] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["catalog", "samelson", "--c", "nan"], "--c"),
            (["catalog", "complex-group", "--c", "nan"], "--c"),
            (["catalog", "complex-group", "--c", "1e308"], "--c"),
            (["catalog", "perturb", "--base", "{file}", "--eps", "nan"], "--eps"),
            (["catalog", "perturb", "--base", "{file}", "--eps", "1e308"], "--eps"),
            (["analyze", "{file}", "--s-grid", "0,1e308"],
             "flatness residual at s=1e+308 is not finite"),
            (["search", "--n", "2", "--s", "1e200", "--restarts", "2"],
             "the search model overflows at s=1e+200"),
            (["catalog", "perturb", "--base", "{file}", "--seed", "-1"],
             "seed must be nonnegative, got -1"),
            (["catalog", "complex-group", "--n", "1"], "affine example needs n >= 2"),
            (["validate", "{bool-index}"], "D[0]: index j=True must be an integer"),
            # NumPy refuses 14 PiB before touching memory
            (["catalog", "abelian", "--n", "100000"], "n=100000 is too large"),
            (["catalog", "complex-group", "--n", "100000"], "error: n=100000 is too large"),
            (["catalog", "bdf-general", "--p", "20000", "--q", ",".join(["1"] * 20000)],
             "error: total dimension 40002 is too large"),  # 466 TiB
            (["catalog", "bdf-general", "--h-pairs", "-1", "--c-pairs", "-1"],
             "h_internal_pairs, c_internal_pairs must be nonnegative"),
            (["catalog", "bdf-general", "--p", "-1"], "error: p must be nonnegative"),
            (["catalog", "bdf-general", "--p", "2", "--q", "1,2,3"], "q must be 1x2 (2 values)"),
        ],
        ids=["samelson-c", "complex-group-c", "complex-group-c-huge", "perturb-eps",
             "perturb-eps-huge", "analyze-s", "search-s-huge", "perturb-seed-negative",
             "complex-group-n1", "bool-index", "abelian-n-huge", "complex-group-n-huge",
             "bdf-general-p-huge",
             "bdf-general-pairs-negative", "bdf-general-p-negative", "bdf-general-q-count"],
    )
    def test_error_names_the_bad_value(self, argv, named, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(structio.emit_structure(hl.samelson_su2_r(1.0)))
        entry = {"j": True, "i": 1, "k": 2, "re": 1.0, "im": 0.0}
        bool_index = tmp_path / "b.json"
        bool_index.write_text(json.dumps({"schema_version": 1, "n": 2, "C": [], "D": [entry]}))
        argv = [arg.replace("{file}", str(path)).replace("{bool-index}", str(bool_index))
                for arg in argv]
        assert main(argv) in (1, 2)
        assert named in capsys.readouterr().err

    def test_bdf_general_catalog(self, tmp_path, capsys):
        path = tmp_path / "b6.json"
        code = main([
            "catalog", "bdf-general", "--p", "2", "--h-dim", "1", "--c-dim", "1",
            "--q", "1,2", "--emit", str(path),
        ])
        assert code == 0
        U = structio.parse_structure(path.read_bytes())
        assert U.n == 3
        assert hl.chern_torsion(U).norm <= 1e-12

    def test_tolerance_env_var_is_ignored(self, tmp_path, capsys, monkeypatch):
        # HERMLIE_TOL is not read: at 0.5 it would pass the noisy file, whose quadratic
        # residual is 0.29 (|C|^2 + |D|^2)
        noisy = tmp_path / "noisy.json"
        U = hl.perturb(hl.abelian(2), 1e-3, 3)
        noisy.write_bytes(structio.emit_structure(U))
        commands = (["validate", str(noisy)], ["analyze", str(noisy), "--s-grid", "0,1.5,2"],
                    ["catalog", "bdf4", "--q", "1.25"])

        def outputs():
            return [(main(argv), capsys.readouterr().out) for argv in commands]

        plain = outputs()
        monkeypatch.setenv("HERMLIE_TOL", "0.5")
        assert outputs() == plain
        assert plain[0][0] == 1 and "valid: false" in plain[0][1].splitlines()

    def test_shrunken_perturbed_samelson_stays_invalid(self, tmp_path, capsys):
        base, noisy = tmp_path / "s.json", tmp_path / "noisy.json"
        main(["catalog", "samelson", "--c", "1", "--emit", str(base)])
        main(["catalog", "perturb", "--base", str(base), "--eps", "0.1", "--seed", "3",
              "--emit", str(noisy)])
        U = structio.parse_structure(noisy.read_bytes())
        tiny = tmp_path / "tiny.json"
        tiny.write_bytes(structio.emit_structure(hl.UnitaryStructure(n=2, C=U.C * 1e-6,
                                                                     D=U.D * 1e-6)))
        for path in (noisy, tiny):
            capsys.readouterr()
            assert main(["validate", str(path)]) == 1
            lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
            V = structio.parse_structure(path.read_bytes())
            want = 1e-9 * (np.sum(np.abs(V.C) ** 2) + np.sum(np.abs(V.D) ** 2))
            assert float(lines["threshold"]) == pytest.approx(want, rel=1e-12)
            assert float(lines["max_abs"]) > float(lines["threshold"])
            assert lines["valid"] == "false"
