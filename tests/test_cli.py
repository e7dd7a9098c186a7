"""CLI surface: grammars, exit codes, report schema."""

import json

import pytest

from singcat import ncdef
from singcat.cli import main, parse_module_arg, parse_mf_arg
from singcat.quotient import parse_ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_stable_hom_branch_modules(capsys):
    code, report = run_cli(capsys, "stable-hom", "--ring", "Q[z,w]/(z*w)",
                           "--M", "B/(w)", "--N", "B/(z)")
    assert code == 0
    assert report["dim"] == 0
    assert report["schema"] == "singcat-report/1"


def test_stable_hom_self(capsys):
    code, report = run_cli(capsys, "stable-hom", "--ring", "Q[z]/(z^2)",
                           "--M", "A/(z)", "--N", "A/(z)")
    assert code == 0
    assert report["dim"] == 1


def test_groebner_command(capsys):
    code, report = run_cli(capsys, "groebner", "--ring", "Q[x,y]",
                           "--gens", "x^2; x*y+y^2")
    assert code == 0
    assert "y^3" in report["basis"]


def test_groebner_prints_rational_coefficients(capsys):
    code, report = run_cli(capsys, "groebner", "--ring", "Q[x,y,z]", "--gens",
                           "2*x^2-3*y*z; 5*x*y-z^2; y^3-7*x*z")
    assert code == 0
    assert report["basis"] == ["x*z^3-1575/4*y*z^2", "z^4-525/2*x*z^2",
                               "y^3-7*x*z", "y^2*z-2/15*x*z^2", "x^2-3/2*y*z",
                               "x*y-1/5*z^2"]


def test_toric_cohomology_command(capsys):
    code, report = run_cli(capsys, "toric-cohomology", "--fan", "P2",
                           "--divisor", "[-1,-1,-1]")
    assert code == 0
    assert report["h"] == [0, 0, 1]


def test_intersect_command(capsys):
    code, report = run_cli(capsys, "intersect", "--fan", "blowupP3_2pts",
                           "--divisor", "[0,0,0,-1,1,0]", "--curve", "l")
    assert code == 0
    assert report["intersection"] == 1


def test_mf_and_knorrer_commands(capsys):
    code, report = run_cli(capsys, "mf", "--ring", "Q[z]/(z^2)",
                           "--module", "A/(z)")
    assert code == 0
    assert report["A"] == [["z"]] and report["B"] == [["z"]]
    mf_text = "mf over Q[z] potential z^2 A=[[\"z\"]] B=[[\"z\"]]"
    code, report = run_cli(capsys, "knorrer", "--input", mf_text,
                           "--x", "x", "--y", "y")
    assert code == 0
    assert report["dims_preserved"]
    assert report["size"] == 2


def test_mf_check_invalid(capsys):
    bad = "mf over Q[z] potential z^3 A=[[\"z\"]] B=[[\"z\"]]"
    code, report = run_cli(capsys, "mf", "--input", bad)
    assert code == 1
    assert not report["valid"]


def test_mf_check_refuses_a_pair_that_is_not_square(capsys):
    # a 1x2 A against a 2x1 B is malformed input, not a falsified claim
    bad = "mf over Q[x,y] potential x*y A=[[\"x\",\"y\"]] B=[[\"y\"],[\"x\"]]"
    code = main(["mf", "--input", bad])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "square of equal size" in captured.err


def test_mf_shift_swaps_the_factors(capsys):
    argv = ["mf", "--ring", "Q[x,y]/(x^2*y)", "--module", "A/(x)"]
    code, plain = run_cli(capsys, *argv)
    assert code == 0 and plain["A"] == [["x"]] and plain["B"] == [["x*y"]]
    code, shifted = run_cli(capsys, *argv, "--shift")
    assert code == 0
    assert (shifted["A"], shifted["B"]) == (plain["B"], plain["A"])
    assert shifted["potential"] == plain["potential"]


@pytest.mark.parametrize("argv", [
    ["groebner"], ["ext"], ["stable-hom"], ["mf"], ["mf", "--module", "A/(z)"],
    ["mf", "--ring", "Q[z]/(z^2)"], ["knorrer"], ["toric-cohomology"],
    ["intersect"], ["sod-verify"], ["ncdef"],
])
def test_a_subcommand_without_its_inputs_is_an_input_error(capsys, argv):
    # exit 2, from argparse or as an input error; never 1 (a falsified
    # claim) and never a traceback
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a required option is missing
        code = exc.code
        assert "required" in capsys.readouterr().err
    else:
        captured = capsys.readouterr()
        assert captured.out == "" and "input error:" in captured.err
    assert code == 2


def test_input_error_exit_code(capsys):
    code = main(["stable-hom", "--ring", "Q[z,w]/(z*w", "--M", "B/(w)",
                 "--N", "B/(z)"])
    assert code == 2
    code = main(["toric-cohomology", "--fan", "NoSuchFan", "--divisor", "[1]"])
    assert code == 2
    capsys.readouterr()
    code = main(["ext", "--ring", "Q[z]/(z^2)", "--M", "A/(z)", "--N", "A/(z)",
                 "--pmax", "2", "--pmin", "-2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Ext^-2" in captured.err


def run_toric(capsys, fan, divisor):
    code = main(["toric-cohomology", "--fan", fan, "--divisor", divisor])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


P2_TEXT = "fan rank=2 rays=[[1,0],[0,1],[-1,-1]] cones=[[0,1],[1,2],[0,2]]"


def test_non_integer_divisor_is_an_input_error(capsys):
    # used to print h = [3, 0, 0], the answer for O(1), with exit 0
    code, out, err = run_toric(capsys, "P2", "[1.5,0,0]")
    assert code == 2 and out == "" and "1.5" in err


def test_non_integer_ray_is_an_input_error(capsys):
    fan = P2_TEXT.replace("[-1,-1]", "[-1.7,-1]")
    code, out, err = run_toric(capsys, fan, "[0,0,0]")
    assert code == 2 and out == "" and "-1.7" in err


def test_divisor_that_is_not_a_list_is_an_input_error(capsys):
    # used to raise TypeError, exit 1
    code, out, err = run_toric(capsys, "P2", "5")
    assert code == 2 and out == "" and "divisor" in err


def test_cone_index_past_the_last_ray_is_an_input_error(capsys):
    # used to raise IndexError, exit 1
    fan = P2_TEXT.replace("[0,2]]", "[0,5]]")
    code, out, err = run_toric(capsys, fan, "[0,0,0]")
    assert code == 2 and out == "" and "(0, 5)" in err


def test_negative_cone_index_is_an_input_error(capsys):
    # -1 used to wrap to the last ray and end in "unbounded chamber"
    fan = P2_TEXT.replace("[1,2],[0,2]", "[1,-1],[0,-1]")
    code, out, err = run_toric(capsys, fan, "[0,0,0]")
    assert code == 2 and out == "" and "(-1, 1)" in err
    assert "unbounded" not in err


def test_fan_with_no_cones_is_an_input_error(capsys):
    # used to exit 2 with "max() arg is an empty sequence"
    fan = P2_TEXT.replace("[[0,1],[1,2],[0,2]]", "[]")
    code, out, err = run_toric(capsys, fan, "[0,0,0]")
    assert code == 2 and out == "" and "complete fan" in err


def test_wall_of_a_singular_cone_is_an_input_error(capsys):
    # the cone on (1,0) and (1,2) has determinant 2
    fan = "fan rank=2 rays=[[1,0],[1,2],[-1,0],[0,-1]] cones=[[0,1],[1,2],[2,3],[3,0]]"
    code = main(["intersect", "--fan", fan, "--divisor", "[0,1,0,0]",
                 "--curve", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not smooth along the wall" in captured.err


def test_ext_empty_range_exit_code(capsys):
    code = main(["ext", "--ring", "Q[z]/(z^2)", "--M", "A/(z)", "--N", "A/(z)",
                 "--pmax", "1", "--pmin", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "empty Ext degree range" in captured.err


def test_module_grammar():
    ring = parse_ring("Q[z,w]/(z^2+z^3+w^2)")
    M = parse_module_arg(
        ring, 'module over C generators g1,g2 relations [["-w","z"],["z^2+z","w"]]')
    assert M.ngens == 2
    assert len(M.relations) == 2


def test_reproduce_single_claim(capsys):
    code, report = run_cli(capsys, "reproduce", "--claim", "remark-generators")
    assert code == 0
    claim = report["claims"][0]
    assert claim["verdict"] == "pass"
    assert claim["computed"]["m=3"] == 4


def test_reproduce_unknown_claim(capsys):
    code = main(["reproduce", "--claim", "no-such-claim"])
    assert code == 2


def test_sod_verify_manifest_file(capsys, tmp_path):
    manifest = {
        "fan": "blowupP3_2pts",
        "check": "strong",
        "objects": [
            {"name": "O(C4)", "combo": {"H": -1, "E1": 1, "E2": 0}},
            {"name": "O(C5)", "combo": {"H": 0, "E1": 0, "E2": 0}},
        ],
        "orthogonal_to": [
            {"name": "D1", "combo": {"H": -1, "E1": 1, "E2": 1}},
            {"name": "D2", "combo": {"H": 0, "E1": -1, "E2": 0}},
        ],
    }
    path = tmp_path / "collection.json"
    path.write_text(json.dumps(manifest))
    code, report = run_cli(capsys, "sod-verify", "--manifest", str(path))
    assert code == 0
    assert report["pass"]
    assert len(report["report"]["orthogonality"]["rows"]) == 4


@pytest.mark.parametrize("manifest", [
    {"objects": []},
    {"fan": "blowupP3_2pts", "objects": [{"name": "O"}]},
    [1, 2],
    {"fan": "blowupP3_2pts", "objects": [{"name": "O", "combo": {"Q": 1}}]},
    {"fan": "blowupP3_2pts", "objects": [{"name": "O", "combo": {}}]},
    {"fan": "blowupP3_2pts", "objects": [{"name": "O", "combo": {"H": 0}}],
     "check": "weak"},
], ids=["no-fan", "no-combo", "not-an-object", "unknown-divisor",
        "empty-combo", "unknown-check"])
def test_a_malformed_collection_manifest_is_an_input_error(capsys, tmp_path,
                                                           manifest):
    path = tmp_path / "collection.json"
    path.write_text(json.dumps(manifest))
    code = main(["sod-verify", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "input error:" in captured.err


def test_ncdef_command(capsys, tmp_path):
    out = tmp_path / "node.json"
    code = main(["ncdef", "--model", "node", "--max-iter", "3",
                 "--report", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outcome"] == "non-terminated"
    assert report["dim_R_trajectory"] == [1, 3, 5]


def test_ncdef_cone_structure_constants_are_strings(capsys):
    code, report = run_cli(capsys, "ncdef", "--model", "cone", "--max-iter", "8")
    assert code == 0
    assert report["outcome"] == "terminated"
    table = [["".join(v) for v in row] for row in report["structure_constants"]]
    assert table == [["1000", "0100", "0000", "0000"],
                     ["0000", "0000", "0000", "0100"],
                     ["0010", "0000", "0000", "0000"],
                     ["0000", "0000", "0010", "0001"]]


@pytest.mark.parametrize("ring, leaf", [
    ("Q[z]/(z^2)", ["1", "0"]),
    ("Q[i][z]/(z^2)", [["1", "0"], ["0", "0"]]),
    ("F5[z]/(z^2)", [1, 0]),
])
def test_ncdef_structure_constants_by_field(capsys, tmp_path, ring, leaf):
    # Q values print as strings (also inside K[i] pairs), F_p values as numbers
    mods = tmp_path / "modules.txt"
    mods.write_text("A/(z)\n")
    code, report = run_cli(capsys, "ncdef", "--ring", ring, "--modules",
                           str(mods), "--max-iter", "4")
    assert code == 0
    assert report["outcome"] == "terminated"
    assert report["structure_constants"][0][0] == leaf


def test_invariant_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(ncdef, "deform_step", lambda state: state)
    code = main(["ncdef", "--model", "node", "--max-iter", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: dim R failed to grow")


def test_ncdef_from_module_file(capsys, tmp_path):
    mods = tmp_path / "modules.txt"
    mods.write_text("# the point module of the node\nk/(x, y)\n")
    out = tmp_path / "run.json"
    code = main(["ncdef", "--ring", "Q[x,y]/(x*y)", "--modules", str(mods),
                 "--max-iter", "2", "--report", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["dim_R_trajectory"] == [1, 3]


def test_ncdef_report_ignores_a_relation_zero_modulo_the_ideal(capsys, tmp_path):
    # x*y+z*w is zero in the ring, so both files present the same module
    reports = []
    for name, line in (("plain", "A/(x, z)"), ("padded", "A/(x, z, x*y+z*w)")):
        mods, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
        mods.write_text(line + "\n")
        code = main(["ncdef", "--ring", "Q[x,y,z,w,u]/(x*y+z*w)", "--modules",
                     str(mods), "--max-iter", "3", "--report", str(out)])
        assert code == 0, capsys.readouterr().err
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["dim_R_trajectory"] == [1, 2, 3]


def test_user_fan_grammar(capsys):
    fan_text = "fan rank=2 rays=[[1,0],[0,1],[-1,-1]] cones=[[0,1],[1,2],[0,2]]"
    code, report = run_cli(capsys, "toric-cohomology", "--fan", fan_text,
                           "--divisor", "[-1,-1,-1]")
    assert code == 0
    assert report["h"] == [0, 0, 1]


def test_groebner_refuses_an_exponent_past_the_packing_bound(capsys):
    # the S-pair of the two generators reaches y^32768
    code = main(["groebner", "--ring", "Q[x,y]",
                 "--gens", "x^32767+y^32767; x*y"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exponent 32768, at or above the packing bound 32768" in err
