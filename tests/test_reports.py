"""Golden reports: each command's output, byte for byte.

Every case runs one command in-process through cli.main and compares its
stdout, its stderr and, for a command given --report, the report file with
the files under tests/golden/ named after the case.  A missing golden file
stands for empty output.  The golden files record answers that are known to
be right; a mismatch is a change of answer (or of report layout) and is
read, never regenerated away.
"""

from pathlib import Path

import pytest

from singcat.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case name, argv); "{report}" stands for a report file in a fresh directory
CASES = [
    ("reproduce", ["reproduce"]),
    ("ncdef-cone", ["ncdef", "--model", "cone"]),
    ("ncdef-node", ["ncdef", "--model", "node"]),
    ("sod-verify-eight", ["sod-verify", "--which", "eight"]),
    ("sod-verify-five", ["sod-verify", "--which", "five"]),
    ("sod-verify-orthogonality", ["sod-verify", "--which", "orthogonality"]),
    ("sod-verify-quadric_cone", ["sod-verify", "--which", "quadric_cone"]),
    ("sod-verify-blowup", ["sod-verify", "--which", "blowup"]),
    # the command-line examples of the README, in its order
    ("readme-stable-hom", ["stable-hom", "--ring", "Q[z,w]/(z*w)",
                           "--M", "B/(w)", "--N", "B/(z)"]),
    ("readme-ext", ["ext", "--ring", "Q[z]/(z^2)", "--M", "A/(z)",
                    "--N", "A/(z)", "--pmax", "4", "--pmin", "1"]),
    ("readme-ext-ungraded", ["ext", "--ring", "Q[x,y]", "--M", "A/(x+y^2)",
                             "--N", "A/(x,y)", "--pmax", "2"]),
    ("readme-groebner", ["groebner", "--ring", "Q[x,y]",
                         "--gens", "x^2; x*y+y^2"]),
    ("readme-mf", ["mf", "--ring", "Q[z]/(z^2)", "--module", "A/(z)"]),
    ("readme-knorrer", ["knorrer", "--input",
                        'mf over Q[z] potential z^2 A=[["z"]] B=[["z"]]',
                        "--x", "x", "--y", "y"]),
    ("readme-toric-cohomology", ["toric-cohomology", "--fan", "P2",
                                 "--divisor", "[-1,-1,-1]"]),
    ("readme-intersect", ["intersect", "--fan", "blowupP3_2pts",
                          "--divisor", "[0,0,0,-1,1,0]", "--curve", "l"]),
    ("readme-sod-verify", ["sod-verify", "--which", "five"]),
    ("readme-ncdef", ["ncdef", "--model", "cone", "--max-iter", "8",
                      "--report", "{report}"]),
    ("readme-reproduce", ["reproduce", "--section", "7.2"]),
]


def run_case(argv, report_path, capsys):
    """(exit code, {"stdout": ..., "stderr": ..., "report": ...}) of one
    in-process run; "report" is None without --report."""
    code = main([a.replace("{report}", str(report_path)) for a in argv])
    captured = capsys.readouterr()
    outputs = {"stdout": captured.out, "stderr": captured.err, "report": None}
    if "{report}" in argv:
        outputs["report"] = report_path.read_text()
    return code, outputs


def golden_text(name, stream):
    path = GOLDEN / f"{name}.{stream}"
    return path.read_text() if path.exists() else ""


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(name, argv, tmp_path, capsys):
    code, outputs = run_case(argv, tmp_path / "report.json", capsys)
    assert code == 0
    for stream, text in outputs.items():
        if text is not None:
            assert text == golden_text(name, stream), f"{name}.{stream}"
