import json
import re
import shlex
from pathlib import Path

import pytest

from hdivkit.cli import build_parser, main

# the flags each subcommand's cmd_* function reads, and no others
SUBCOMMAND_FLAGS = {
    "mesh": {"--mesh", "--labels", "--out"},
    "project": {"--mesh", "--labels", "--p", "--field", "--variant", "--quad-degree"},
    "best-approx": {"--mesh", "--labels", "--p", "--field", "--quad-degree"},
    "solve-mixed": {"--mesh", "--labels", "--p", "--problem"},
    "solve-ls": {"--mesh", "--labels", "--p", "--q", "--problem"},
    "study": {
        "--mesh", "--labels", "--p", "--field", "--refinements", "--variant",
        "--quad-degree", "--tol", "--out", "--config",
    },
    "verify": {"--seed", "--variant"},
}
# the flags every subcommand took before, each with a well-formed value, so
# a dropped flag is refused for its name and not for its value
FLAG_VALUES = {
    "--mesh": "structured:2", "--labels": "all-dirichlet", "--p": "1", "--q": "1",
    "--field": "cubic", "--refinements": "2", "--variant": "def31", "--quad-degree": "8",
    "--tol": "1e-9", "--seed": "0", "--out": ".",
}


def _subparsers():
    (action,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return action.choices


def test_each_subcommand_takes_only_the_flags_it_reads():
    parsers = _subparsers()
    assert set(parsers) == set(SUBCOMMAND_FLAGS)
    for name, sub in parsers.items():
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == SUBCOMMAND_FLAGS[name], name


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in SUBCOMMAND_FLAGS for f in sorted(set(FLAG_VALUES) - SUBCOMMAND_FLAGS[c])],
)
def test_dropped_flag_is_an_argparse_error(capsys, command, flag):
    argv = [command] + (["inspect"] if command == "mesh" else []) + [flag, FLAG_VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    commands = [
        shlex.split(line.split("#")[0])
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip()
    ]
    assert len(commands) >= 7
    for argv in commands:
        assert argv[0] == "hdivkit"
        build_parser().parse_args(argv[1:])


def test_mesh_gen_and_inspect(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main(["mesh", "gen", "--mesh", "structured:2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["mesh", "inspect", "--mesh", str(path), "--labels", "file"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["triangles"] == 8
    assert out["dirichlet_edges"] == 8


@pytest.mark.parametrize(
    "labels,dirichlet,neumann",
    [(None, 8, 0), ("file", 8, 0), ("all-neumann", 0, 8), ("left-neumann", 6, 2)],
)
def test_label_rule_applies_to_mesh_file(tmp_path, capsys, labels, dirichlet, neumann):
    # an explicit rule relabels a loaded mesh; no rule or "file" keeps its labels
    path = tmp_path / "m.json"
    assert main(["mesh", "gen", "--mesh", "structured:2", "--out", str(path)]) == 0
    capsys.readouterr()
    argv = ["mesh", "inspect", "--mesh", str(path)] + (["--labels", labels] if labels else [])
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["dirichlet_edges"], out["neumann_edges"]) == (dirichlet, neumann)


def test_mesh_refine(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["mesh", "refine", "--mesh", "structured:2", "--out", str(path)]) == 0
    capsys.readouterr()
    main(["mesh", "inspect", "--mesh", str(path), "--labels", "file"])
    out = json.loads(capsys.readouterr().out)
    assert out["triangles"] == 32


def test_project_command(capsys):
    assert main(["project", "--mesh", "structured:2", "--field", "cubic", "--p", "0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p0"]["commute_residual"] < 1e-10
    assert out["p1"]["commute_residual"] < 1e-10
    # two multipliers per triangle and degree at the six-triangle interior vertex
    assert [out[f"p{p}"]["patch_system_size"] for p in (0, 1)] == [12, 24]


def test_best_approx_command(capsys):
    assert main(["best-approx", "--mesh", "structured:2", "--field", "cubic", "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p1"]["ratio_glob_over_loc"] >= 1.0 - 1e-9


def test_solve_commands(capsys):
    assert main(["solve-mixed", "--mesh", "structured:2", "--p", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p0"]["div_constraint_defect"] < 1e-10
    assert out["p0"]["system_size"] == 8  # one multiplier per interior edge at p = 0
    assert out["p0"]["nnz_lu"] > 0
    assert main(["solve-ls", "--mesh", "structured:2", "--p", "0", "--q", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p0_q1"]["kkt_residual"] < 1e-10
    assert out["p0_q1"]["system_size"] == 16 + 1  # every RT0 dof and one free P1 node
    assert out["p0_q1"]["nnz_lu"] > 0


def test_best_approx_reports_the_factorized_system(capsys):
    assert main(["best-approx", "--mesh", "structured:2", "--labels", "all-neumann",
                 "--field", "random_rtn:p=1", "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p1"]["system_size"] == 2 * 16 - 1  # every edge carries multipliers, one grounded
    assert out["p1"]["nnz_lu"] > 0


def test_study_command(tmp_path, capsys):
    code = main(
        [
            "study",
            "--field",
            "sine_divfree",
            "--mesh",
            "structured:2",
            "--refinements",
            "4",
            "--p",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "study.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_study_config_file(tmp_path, capsys):
    cfg = {
        "field": "cubic",
        "mesh": "structured:2",
        "refinements": 3,
        "degrees": [1],
        "out_dir": str(tmp_path),
        "run_projector": False,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["study", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert "study:" in captured.out


def _assert_one_line_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hdivkit: error: ")


def test_bad_field_spec_is_one_line_error(capsys):
    _assert_one_line_error(
        ["project", "--mesh", "lshape:1", "--field", "lshape_singular:alpha=x"], capsys
    )


@pytest.mark.parametrize(
    "text",
    ['{"threads": 2}', '{"refinements": 0}', '{"quad_degree": -3}', "[1]", "{not json",
     '{"seed": -1}', '{"field_params": {"alpa": 0.5}, "field": "lshape_singular"}'],
    ids=["unknown-key", "bad-value", "negative-quad-degree", "not-object", "not-json",
         "negative-seed", "unknown-field-param"],
)
def test_bad_study_config_is_one_line_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    _assert_one_line_error(["study", "--config", str(cfg_path)], capsys)


@pytest.mark.parametrize(
    "command", [["mesh", "inspect"], ["project"], ["study"]], ids=["mesh", "project", "study"]
)
@pytest.mark.parametrize("mesh", ["structured:2", "lshape:1"])
def test_labels_file_on_generated_mesh_is_one_line_error(capsys, command, mesh):
    argv = command + ["--mesh", mesh, "--labels", "file"]
    argv += ["--refinements", "1"] if command == ["study"] else []
    _assert_one_line_error(argv, capsys)


@pytest.mark.parametrize(
    "mesh", ["structured:x", "lshape:", "nonexist.json"], ids=["bad-n", "no-n", "missing-file"]
)
def test_bad_mesh_spec_is_one_line_error(tmp_path, monkeypatch, capsys, mesh):
    monkeypatch.chdir(tmp_path)
    _assert_one_line_error(["project", "--mesh", mesh], capsys)


def test_mesh_file_not_json_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    _assert_one_line_error(["mesh", "inspect", "--mesh", str(path)], capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-mixed", "--mesh", "structured:2", "--labels", "left-neumann"],
        ["solve-ls", "--mesh", "structured:2", "--p", "0", "--q", "0"],
    ],
    ids=["neumann-model-problem", "lagrange-degree-0"],
)
def test_model_problem_error_is_one_line_error(capsys, argv):
    _assert_one_line_error(argv, capsys)


@pytest.mark.parametrize("command", ["project", "best-approx", "solve-mixed", "solve-ls", "study"])
@pytest.mark.parametrize("degrees", ["-1", "1,x", "1.5", "0,-2", ""])
def test_bad_degree_is_one_line_error(capsys, command, degrees):
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", degrees])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hdivkit: error: argument --p: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--quad-degree", "-3"],
        ["best-approx", "--quad-degree", "-3"],
        ["study", "--quad-degree", "-3", "--refinements", "1"],
        ["project", "--quad-degree", "200"],
        ["project", "--variant", "def52", "--p", "0"],
        ["project", "--field", "random_rtn:p=-1"],
        ["best-approx", "--field", "random_rtn:p=1,seed=-1"],
        ["project", "--field", "lshape_singular:alpa=0.5"],
        ["best-approx", "--field", "sine_divfree:alpha=0.5"],
        ["project", "--field", "random_rtn:p=1.5"],
        ["best-approx", "--field", "random_rtn:p=1,seed=2.7"],
        ["verify", "--seed", "-1"],
        ["verify", "--seed", "x"],
    ],
    ids=["project-quad", "best-approx-quad", "study-quad", "quad-too-high", "def52-p0",
         "random-negative-p", "random-negative-seed", "unknown-param", "param-of-no-param-field",
         "random-fractional-p", "random-fractional-seed", "verify-negative-seed",
         "verify-bad-seed"],
)
def test_bad_value_is_one_line_error(capsys, argv):
    # argparse exits with 2 itself; the rest is main's one-line error
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hdivkit: error: ")


def test_degree_list_parses_to_integers():
    args = build_parser().parse_args(["project", "--p", "0,2,3"])
    assert args.p == [0, 2, 3]
    assert build_parser().parse_args(["project"]).p == [1]
