import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden as G
from symptok import render
from symptok.cli import main
from symptok.tableaux import SymplecticTableau


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(render.to_json(obj), encoding="utf-8")
    return str(path)


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "st",
                           "--lambda", "1", "--n", "1", "--count-only")
        assert code == 0 and out.strip() == "2"

    def test_listing_round_trips(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "uasm",
                           "--lambda", "2,1", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            render.from_json(line)  # every emitted object is re-readable

    def test_primed_family_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "qt",
                           "--lambda", "1", "--n", "1", "--count-only")
        assert code == 0 and out.strip() == "4"

    def test_ordinary_family(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "t",
                           "--lambda", "1", "--n", "2", "--count-only")
        assert code == 0 and out.strip() == "4"

    @pytest.mark.parametrize("family", ["t", "st", "qt", "uasm", "gtp"])
    def test_rank_below_one_is_usage_error(self, capsys, family):
        for n in ("0", "-1"):
            code, out, err = run(capsys, "enumerate", "--family", family,
                                 "--lambda=", "--n", n)
            assert code == 2 and out == "", n
            assert err == f"error: rank n must be at least 1, got {n}\n", n

    def test_reader_closing_the_pipe_is_not_bad_input(self):
        # as in `symptok enumerate ... | head -1`: 175,274 tableaux, far more
        # than a pipe buffers, so the writer meets the closed pipe
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "symptok.cli", "enumerate", "--family", "st",
             "--lambda", "9,7,6", "--n", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert render.from_json(first.decode())
        assert code == 141 and err == b""


class TestBijection:
    def test_all_four_forms_from_matrix(self, capsys, tmp_path):
        path = write_json(tmp_path, "a.json", G.A)
        code, out, _ = run(capsys, "bijection", "--from", "uasm",
                           "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"st", "uasm", "cpm", "gtp"}
        assert render.from_json_data(doc["st"]) == G.ST
        assert render.from_json_data(doc["gtp"]) == G.GT
        assert render.from_json_data(doc["cpm"]) == G.CPM

    def test_ascii_sections(self, capsys, tmp_path):
        path = write_json(tmp_path, "st.json", G.ST)
        code, out, _ = run(capsys, "bijection", "--from", "st",
                           "--input", path, "--format", "ascii")
        assert code == 0
        for name in ("-- st --", "-- uasm --", "-- cpm --", "-- gtp --"):
            assert name in out

    def test_wrong_family_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path, "a.json", G.A)
        code, _, err = run(capsys, "bijection", "--from", "st", "--input", path)
        assert code == 2 and "not a st" in err

    def test_empty_tableau_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "st.json"
        path.write_text(json.dumps({"family": "st", "shape": [], "rows": []}),
                        encoding="utf-8")
        for command in (("bijection", "--from", "st"),
                        ("weight", "--scheme", "ST_XY", "--annotate"),
                        ("render",)):
            code, out, err = run(capsys, *command, "--input", str(path))
            assert code == 2 and out == "", command
            assert err.startswith("error: ") and "rank 0" in err, command
            assert len(err.splitlines()) == 1, command

    def test_pattern_source(self, capsys, tmp_path):
        path = write_json(tmp_path, "gt.json", G.GT)
        code, out, _ = run(capsys, "bijection", "--from", "gtp",
                           "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert render.from_json_data(doc["uasm"]) == G.A


class TestWeight:
    def test_statistics_form_golden_value(self, capsys, tmp_path):
        path = write_json(tmp_path, "gt.json", G.GT)
        code, out, _ = run(capsys, "weight", "--scheme", "GT_QX",
                           "--input", path)
        assert code == 0
        assert out.strip() == "(1+q)^7 * q^7 * x2 * x4^-4"

    def test_shifted_weight_matches_golden_polynomial(self, capsys, tmp_path):
        path = write_json(tmp_path, "st.json", G.ST)
        code, out, _ = run(capsys, "weight", "--scheme", "ST_XY",
                           "--input", path)
        assert code == 0
        assert out.strip() == G.golden_weight().to_text()

    def test_compass_weight_agrees(self, capsys, tmp_path):
        path = write_json(tmp_path, "a.json", G.A)
        code, out, _ = run(capsys, "weight", "--scheme", "CPM_XY",
                           "--input", path)
        assert code == 0
        assert out.strip() == G.golden_weight().to_text()

    def test_annotated_grid(self, capsys, tmp_path):
        path = write_json(tmp_path, "st.json", G.ST)
        code, out, _ = run(capsys, "weight", "--scheme", "ST_XY",
                           "--input", path, "--annotate")
        assert code == 0
        assert "x1+y1" in out and "y2" in out

    @pytest.mark.parametrize("neighbour,grid", [
        ("below", ["x1+x1*q  x2*q", "         x2+x2*q"]),
        ("above", ["x1+x1*q  x2+x2*q", "         x2*q"]),
    ])
    def test_annotated_grid_follows_the_neighbour(self, capsys, tmp_path,
                                                  neighbour, grid):
        # rows (1, 2) and (2): the two 2s form a vertical pair, and the
        # reading decides which of them carries the free factor x2+x2*q
        from symptok.tableaux import ShiftedTableau
        path = write_json(tmp_path, "st.json",
                          ShiftedTableau((2, 1), ((1, 3), (3,))))
        code, out, _ = run(capsys, "weight", "--scheme", "ST_Q", "--neighbour",
                           neighbour, "--input", path, "--annotate")
        assert code == 0 and out.splitlines()[1:] == grid

    @pytest.mark.parametrize("scheme,obj,flag,value", [
        ("CPM_XY", "A", "--c0", "literal"),
        ("CPM_Q_PLAIN", "A", "--c0", "literal"),
        ("CPM_Q_NORM", "A", "--neighbour", "above"),
        ("ST_XY", "ST", "--neighbour", "above"),
        ("GT_QX", "GT", "--neighbour", "above"),
    ])
    def test_convention_the_scheme_never_reads_is_usage_error(
            self, capsys, tmp_path, scheme, obj, flag, value):
        # the printed weight would look as if the flag had been applied
        path = write_json(tmp_path, "obj.json", getattr(G, obj))
        code, out, err = run(capsys, "weight", "--scheme", scheme,
                             "--input", path, flag, value)
        assert code == 2 and out == "" and "not read by" in err

    def test_convention_the_scheme_reads_is_applied(self, capsys, tmp_path):
        from oracles import wgt_cpm
        path = write_json(tmp_path, "a.json", G.A)
        code, out, _ = run(capsys, "weight", "--scheme", "CPM_Q_NORM",
                           "--input", path, "--c0", "literal")
        assert code == 0
        literal = wgt_cpm(G.A, "CPM_Q_NORM", "literal")
        assert out.strip() == literal.to_text()
        assert literal != wgt_cpm(G.A, "CPM_Q_NORM", "full")

    @pytest.mark.parametrize("scheme,obj", [
        pytest.param("CPM_XY", G.A, id="CPM_XY-A"),
        pytest.param("GT_QX", G.GT, id="GT_QX-GT"),
        # tableau schemes too, but not of shifted tableaux
        pytest.param("QT_DEFORMED", G.QT, id="QT_DEFORMED-QT"),
        pytest.param("T_DEFORMED", SymplecticTableau((1,), ((2,),)), id="T_DEFORMED-T"),
    ])
    def test_annotate_on_a_non_tableau_scheme_prints_nothing(
            self, capsys, tmp_path, scheme, obj):
        path = write_json(tmp_path, "obj.json", obj)
        code, out, err = run(capsys, "weight", "--scheme", scheme,
                             "--input", path, "--annotate")
        assert code == 2 and out == ""
        assert err == "error: --annotate applies to the ST_XY and ST_Q schemes only\n"

    def test_scheme_object_mismatch(self, capsys, tmp_path):
        path = write_json(tmp_path, "st.json", G.ST)
        code, _, err = run(capsys, "weight", "--scheme", "GT_QX",
                           "--input", path)
        assert code == 2 and "expects" in err

    def test_primed_and_plain_tableau_schemes(self, capsys, tmp_path):
        from symptok.tableaux import SymplecticTableau
        path = write_json(tmp_path, "qt.json", G.QT)
        code, out, _ = run(capsys, "weight", "--scheme", "QT_DEFORMED",
                           "--input", path)
        assert code == 0
        from symptok.weights import wgt_qt
        assert out.strip() == wgt_qt(G.QT, deformed=True).to_text()
        t = SymplecticTableau((1,), ((2,),))
        path = write_json(tmp_path, "t.json", t)
        code, out, _ = run(capsys, "weight", "--scheme", "T_DEFORMED",
                           "--input", path)
        assert code == 0 and out.strip() == "1 * x1^-1 * t^2"


class TestVerify:
    def test_base_case_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "THM_ST", "--mu", "",
                           "--n", "1", "--mode", "symbolic")
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is True and doc["lambda"] == [1]

    def test_failing_variant_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "COR_UASM_Q", "--mu", "1",
                           "--n", "2", "--cpm-q-scheme", "norm",
                           "--c0", "literal")
        assert code == 1
        assert json.loads(out)["equal"] is False

    def test_modular_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "PROP_T", "--mu", "1",
                           "--n", "2", "--mode", "modular", "--trials", "5",
                           "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "MODULAR" and doc["params"]["seed"] == 42

    def test_scale_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "THM_ST", "--mu", "4,3,3",
                           "--n", "5")
        assert code == 2 and "cap" in err

    def test_real_case_runs_in_modular_mode(self, capsys):
        # the symbolic object cap does not apply to modular mode
        code, out, err = run(capsys, "verify", "--id", "THM_ST", "--mu", "4,3,3",
                             "--n", "5", "--mode", "modular", "--trials", "2",
                             "--no-timing")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["counts"]["objects"] == 19_781_353_800

    @pytest.mark.parametrize("knob,value", [
        ("--trials", "0"), ("--prime", "4"), ("--prime", "2"),
        ("--prime", "3215031751"),
    ])
    def test_unsound_modular_parameters_are_usage_errors(self, capsys, knob,
                                                         value):
        code, out, err = run(capsys, "verify", "--id", "COR_GT", "--mu", "1",
                             "--n", "1", "--mode", "modular", knob, value)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("identity,mode", [("COR_GT", "symbolic"),
                                               ("THM_ST", "modular")])
    def test_rank_zero_is_usage_error(self, capsys, identity, mode):
        code, out, err = run(capsys, "verify", "--id", identity, "--mu", "",
                             "--n", "0", "--mode", mode)
        assert code == 2 and out == "" and "rank" in err

    @pytest.mark.parametrize("argv", [
        ("--id", "THM_ST", "--neighbour", "above"),
        ("--id", "COR_GT", "--cpm-q-scheme", "norm"),
        ("--id", "COR_UASM_Q", "--c0", "literal"),
    ])
    def test_convention_the_identity_never_reads_is_usage_error(self, capsys,
                                                               argv):
        # the report would look as if the flag had been applied
        code, out, err = run(capsys, "verify", *argv, "--mu", "1", "--n", "2",
                             "--no-timing")
        assert code == 2 and out == "" and "not read by" in err

    def test_deterministic_output(self, capsys):
        args = ("verify", "--id", "COR_GT_QX", "--mu", "2", "--n", "2",
                "--mode", "modular", "--seed", "7", "--no-timing")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2


class TestSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--id", "COR_UASM", "--n", "1",
                           "--max-weight", "2", "--no-timing")
        assert code == 0
        docs = json.loads(out)
        assert [d["mu"] for d in docs] == [[], [1], [2]]
        assert all(d["equal"] for d in docs)

    def test_negative_max_weight_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--id", "THM_ST", "--n", "2",
                             "--max-weight", "-1", "--no-timing")
        assert code == 2 and out == "" and "max_weight" in err


class TestRender:
    def test_json_round_trip(self, capsys, tmp_path):
        for obj in (G.ST, G.QT, G.A, G.GT, G.CPM):
            path = write_json(tmp_path, "obj.json", obj)
            code, out, _ = run(capsys, "render", "--input", path,
                               "--format", "json")
            assert code == 0
            assert render.from_json(out) == obj

    def test_ascii_tableau_markers(self, capsys, tmp_path):
        path = write_json(tmp_path, "qt.json", G.QT)
        code, out, _ = run(capsys, "render", "--input", path)
        assert code == 0
        assert "2'" in out and "4-'" in out  # primes and bars

    def test_bad_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        cell = {"level": 1, "barred": False}
        docs = [
            {"nope": 1},
            {"family": "st", "shape": [1], "rows": [[{"level": 1}]]},
            {"family": "st", "shape": [1], "rows": [[{"barred": False}]]},
            {"family": "st", "shape": [1], "rows": [[1]]},
            {"family": "st", "shape": [1], "rows": [[dict(cell, barred="no")]]},
            {"family": "qt", "shape": [1], "rows": [[dict(cell, primed="false")]]},
            {"family": "st", "shape": "21", "rows": [[cell, cell], [cell]]},
        ]
        for doc in docs:
            bad.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run(capsys, "render", "--input", str(bad))
            assert code == 2 and out == "", doc
            assert err.startswith("error: ") and len(err.splitlines()) == 1, doc

    @pytest.mark.parametrize("doc,commands,violation", [
        # levels 2 then 1 in a one-row shifted tableau: rank 1 has no
        # level 2, and the row decreases
        ({"family": "st", "shape": [2],
          "rows": [[{"level": 2, "barred": False}, {"level": 1, "barred": False}]]},
         [("weight", "--scheme", "ST_XY"), ("bijection", "--from", "st"),
          ("render",)], "ST1: row decreases"),
        # row 1 sums to 2, and only column 1 sums to 1, so lambda = (1)
        ([[1, 1], [0, -1]],
         [("weight", "--scheme", "CPM_XY"), ("bijection", "--from", "uasm"),
          ("render",)], "UA4: row 1 sums to 2"),
        # a valid U-turn ASM but for its last column, which lambda_1 needs
        ([[1, 0], [0, 0]],
         [("weight", "--scheme", "CPM_XY"), ("bijection", "--from", "uasm"),
          ("render",)], "UA5: the last column, 2, sums to 0, not 1"),
        # no columns, where a U-turn ASM has lambda_1 >= n >= 1 of them
        ([[], []],
         [("weight", "--scheme", "CPM_XY"), ("bijection", "--from", "uasm"),
          ("render",)], "lambda_1 >= n >= 1 columns, got none"),
        # rank 1 has two rows
        ({"n": 1, "rows": [[2], [1], [3]]},
         [("weight", "--scheme", "GT_XY"), ("render",)], "expected 2 rows"),
    ], ids=["st", "uasm", "uasm_width", "uasm_empty", "gtp"])
    def test_object_breaking_its_family_rules_is_usage_error(
            self, capsys, tmp_path, doc, commands, violation):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in commands:
            code, out, err = run(capsys, *command, "--input", str(path))
            assert code == 2 and out == "", command
            assert err.startswith("error: ") and violation in err, command

    def test_compass_rules_are_named_in_the_error(self, capsys, tmp_path):
        path = tmp_path / "uasm.json"
        path.write_text(json.dumps([[1, 1], [0, -1]]), encoding="utf-8")
        code, _, err = run(capsys, "render", "--input", str(path))
        assert code == 2
        assert err == (f"error: invalid object in {path}: "
                       "UA1: signs do not alternate in row 1; UA4: row 1 sums to 2; "
                       "UA3: rightmost nonzero of row 2 is not 1; UA4: row 2 sums to -1; "
                       "UA5: the last column, 2, sums to 0, not 1\n")

    @pytest.mark.parametrize("family,scheme", [("st", "ST_XY"), ("t", "T_DEFORMED")])
    def test_primed_cell_outside_a_primed_tableau_is_usage_error(
            self, capsys, tmp_path, family, scheme):
        cell = {"level": 1, "barred": False, "primed": True}
        path = tmp_path / "tableau.json"
        path.write_text(json.dumps({"family": family, "shape": [1], "rows": [[cell]]}),
                        encoding="utf-8")
        for command in (("render",), ("weight", "--scheme", scheme)):
            code, out, err = run(capsys, *command, "--input", str(path))
            assert code == 2 and out == "", command
            assert err.startswith("error: ") and len(err.splitlines()) == 1, command
            assert f"a {family!r} tableau has no primed cells" in err, command

    @pytest.mark.parametrize("n", [0, -1])
    def test_pattern_of_rank_below_one_is_usage_error(self, capsys, tmp_path, n):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"n": n, "rows": []}), encoding="utf-8")
        for command in (("render",), ("weight", "--scheme", "GT_QX")):
            code, out, err = run(capsys, *command, "--input", str(path))
            assert code == 2 and out == "", command
            assert err == f"error: GT pattern rank n must be at least 1, got {n}\n", command

    def test_float_pattern_entry_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "gt.json"
        bad.write_text(json.dumps({"n": 1, "rows": [[1.7], [True]]}),
                       encoding="utf-8")
        code, out, err = run(capsys, "render", "--input", str(bad))
        assert code == 2 and out == "" and "integer" in err

    def test_one_row_compass_matrix_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "cpm.json"
        bad.write_text(json.dumps([list(G.CPM.entries[0])]), encoding="utf-8")
        code, out, err = run(capsys, "render", "--input", str(bad))
        assert code == 2 and out == "" and "2n rows" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--family", "st", "--lambda", "1", "--n", "1",
                  "--bogus"])
        assert exc.value.code == 2


class TestFamilies:
    def test_the_rows_follow_the_listed_names(self):
        from symptok.cli import FAMILY_NAMES, families
        assert tuple(families()) == FAMILY_NAMES

    def test_verify_and_sweep_load_no_object_family(self):
        # a verification builds no object, so the CLI loads the family rows,
        # and with them the object modules and the dataclasses, only for the
        # commands that read or make objects
        code = ("import sys; from symptok.cli import main; "
                "main(['verify', '--id', 'COR_UASM', '--mu', '1', '--n', '2']); "
                "main(['sweep', '--id', 'COR_GT_QX', '--n', '2', '--max-weight', '1', "
                "'--mode', 'modular', '--trials', '2']); "
                "print(sorted(m for m in sys.modules if m.startswith('symptok') "
                "or m in ('dataclasses', 'inspect')))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.splitlines()[-1] == str(
            ["symptok", "symptok.algebra", "symptok.cli", "symptok.identities",
             "symptok.rings", "symptok.shapes", "symptok.weights"])

    def test_every_scheme_weighs_a_family_the_cli_names(self):
        # the weight command looks a scheme's family up in families()
        from symptok.cli import families
        from symptok.weights import SCHEMES
        unknown = {name: row.family for name, row in SCHEMES.items()
                   if row.family not in families()}
        assert not unknown, f"families missing from cli.families(): {unknown}"

    @pytest.mark.parametrize("name", ["st", "t", "qt", "uasm", "gtp"])
    def test_each_row_enumerates_objects_its_check_accepts(self, name):
        from symptok.cli import families
        family = families()[name]
        objects = list(family.enumerate((2, 1), 2))
        assert objects
        for obj in objects:
            assert type(obj) is family.kind and family.check(obj) == (True, []), obj
