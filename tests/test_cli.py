import json
import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from hdivkit.cli import build_parser, main
from hdivkit.mesh import MeshError, build_lshape, build_structured, load_mesh
from hdivkit.study import StudyConfig, run_study

# the flags each subcommand's cmd_* function reads, and no others
SUBCOMMAND_FLAGS = {
    "mesh": {"--mesh", "--labels", "--out"},
    "project": {"--mesh", "--labels", "--p", "--field", "--variant", "--quad-degree"},
    "best-approx": {"--mesh", "--labels", "--p", "--field", "--quad-degree"},
    "solve-mixed": {"--mesh", "--labels", "--p", "--problem"},
    "solve-ls": {"--mesh", "--labels", "--p", "--q", "--problem"},
    "study": {
        "--mesh", "--labels", "--p", "--field", "--refinements", "--variant",
        "--quad-degree", "--out", "--config",
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
    assert main(["mesh", "inspect", "--mesh", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["triangles"] == 8
    assert out["dirichlet_edges"] == 8


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hdivkit", "mesh", "inspect", "--mesh", "structured:2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("hdivkit", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["triangles"] == 8


@pytest.mark.parametrize(
    "labels,dirichlet,neumann",
    [(None, 8, 0), ("all-neumann", 0, 8), ("left-neumann", 6, 2)],
)
def test_label_rule_applies_to_mesh_file(tmp_path, capsys, labels, dirichlet, neumann):
    # an explicit rule relabels a loaded mesh; no rule keeps its labels
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
    main(["mesh", "inspect", "--mesh", str(path)])
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


def test_bare_study_runs_the_default_config(tmp_path, capsys):
    # the study flags take their defaults from StudyConfig, as a config does
    assert main(["study", "--out", str(tmp_path / "cli")]) == 0
    run_study(StudyConfig(out_dir=str(tmp_path / "lib")))
    assert (tmp_path / "cli" / "study.csv").read_bytes() == (tmp_path / "lib" / "study.csv").read_bytes()


@pytest.mark.parametrize("p", [1, 2])
def test_best_approx_reports_an_exact_zero_as_study_does(tmp_path, capsys, p):
    # a member at its own degree: roundoff errors, ratio 0.0 in both front ends
    field = f"random_rtn:p={p}"
    assert main(["best-approx", "--mesh", "structured:2", "--field", field, "--p", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    cfg = StudyConfig(field=field, refinements=1, degrees=[p], out_dir=str(tmp_path), run_projector=False)
    (row,) = run_study(cfg)["rows"]
    assert row["notes"] == "exact-zero"
    assert out[f"p{p}"]["ratio_glob_over_loc"] == row["ratio_glob_over_loc"] == 0.0


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
    return lines[0]


def test_bad_field_spec_is_one_line_error(capsys):
    _assert_one_line_error(
        ["project", "--mesh", "lshape:1", "--field", "lshape_singular:alpha=x"], capsys
    )


@pytest.mark.parametrize(
    "text",
    ['{"threads": 2}', '{"refinements": 0}', '{"quad_degree": -3}', "[1]", "{not json",
     '{"seed": -1}', '{"field_params": {"alpa": 0.5}, "field": "lshape_singular"}',
     '{"degrees": [-1]}', '{"refinements": "2"}', '{"tol": "x"}', '{"mesh": 3}', '{"degrees": []}',
     '{"variant": "def52", "degrees": [0]}', '{"degrees": [1, 1]}'],
    ids=["unknown-key", "bad-value", "negative-quad-degree", "not-object", "not-json",
         "negative-seed", "unknown-field-param", "negative-degree", "string-refinements",
         "string-tol", "integer-mesh", "no-degrees", "def52-without-p-1", "repeated-degree"],
)
def test_bad_study_config_is_one_line_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    _assert_one_line_error(["study", "--config", str(cfg_path)], capsys)


@pytest.mark.parametrize(
    "argv,flag",
    [(["--config", "CFG", "--p", "2"], "--p"), (["--p", "2", "--config", "CFG"], "--p"),
     (["--config", "CFG", "--out=o1"], "--out"), (["--config", "CFG", "--out", "."], "--out"),
     (["--config", "CFG", "--mesh", "structured:2"], "--mesh")],
    ids=["p", "p-first", "out", "out-default", "mesh-default"],
)
def test_study_config_takes_no_other_flag(tmp_path, monkeypatch, capsys, argv, flag):
    # a flag beside the config would go unread: it is refused by name, even
    # at its default value, before any work or write
    monkeypatch.chdir(tmp_path)
    cfg = {"mesh": "structured:2", "refinements": 1, "degrees": [0], "run_projector": False}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    line = _assert_one_line_error(["study"] + [a.replace("CFG", "cfg.json") for a in argv], capsys)
    assert line.endswith(f"got {flag}")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_bad_study_config_is_reported_before_other_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"tol": 1e-3}')
    line = _assert_one_line_error(["study", "--config", str(cfg_path), "--p", "2"], capsys)
    assert "unknown config key(s)" in line and line.endswith("tol")


def test_def52_study_without_a_degree_to_run_is_one_line_error(tmp_path, capsys):
    # as ``project --variant def52 --p 0`` is, and before any work: no
    # header-only study.csv and no "0/0 checks passed"
    _assert_one_line_error(["study", "--variant", "def52", "--p", "0", "--out", str(tmp_path)], capsys)
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize(
    "command", [["mesh", "inspect"], ["project"], ["study"]], ids=["mesh", "project", "study"]
)
@pytest.mark.parametrize("mesh", ["structured:2", "lshape:1"])
def test_labels_file_on_generated_mesh_is_one_line_error(capsys, command, mesh):
    argv = command + ["--mesh", mesh, "--labels", "file"]
    argv += ["--refinements", "1"] if command == ["study"] else []
    _assert_one_line_error(argv, capsys)


def test_labels_file_is_an_unknown_rule_for_a_mesh_file(tmp_path, capsys):
    # leaving out --labels keeps a mesh file's own labels; "file" is no rule
    path = tmp_path / "m.json"
    assert main(["mesh", "gen", "--mesh", "structured:2", "--out", str(path)]) == 0
    capsys.readouterr()
    line = _assert_one_line_error(["mesh", "inspect", "--mesh", str(path), "--labels", "file"], capsys)
    assert "unknown boundary label rule 'file'" in line


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


def test_folded_mesh_file_is_one_line_error(tmp_path, capsys):
    # structured:1 with vertex 2 moved across the diagonal (0, 3)
    data = build_structured(1).to_dict()
    data["vertices"][2] = [1.5, 0.5]
    path = tmp_path / "folded.json"
    path.write_text(json.dumps(data))
    _assert_one_line_error(["project", "--mesh", str(path)], capsys)
    code = main(["mesh", "inspect", "--mesh", str(path)])
    assert code == 2 and "folded at edge" in capsys.readouterr().err


@pytest.mark.parametrize("vertices,triangles,message", [
    ([[0, 0], [2, 0], [1, 1], [1, 0], [0.5, -1]], [[0, 1, 2], [0, 4, 3]],
     "hanging node: vertex 3 lies inside edge (0, 1)"),
    ([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], [[0, 1, 2], [4, 2, 3]],
     "vertex 4 coincides with vertex 0, an end of boundary edge (0, 1)"),
], ids=["hanging", "slit"])
def test_non_conforming_mesh_file_is_one_line_error(tmp_path, capsys, vertices, triangles, message):
    # each of the six sides of the two triangles is a boundary edge
    boundary = [{"edge": [t[j], t[(j + 1) % 3]], "label": "dirichlet"} for t in triangles for j in range(3)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "triangles": triangles, "boundary": boundary}))
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert str(err.value) == message
    assert _assert_one_line_error(["mesh", "inspect", "--mesh", str(path)], capsys) == f"hdivkit: error: {message}"


def _set(data, key, i, value, j=None):
    if j is None:
        data[key][i] = value
    else:
        data[key][i][j] = value


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: _set(d, "boundary", 3, {"label": "dirichlet"}),
         "boundary item 3 {'label': 'dirichlet'} is not an object with a two-integer \"edge\" and a \"label\""),
        (lambda d: _set(d, "boundary", 3, [0], "edge"), "boundary item 3 {'edge': [0], 'label': 'dirichlet'} is not"),
        (lambda d: _set(d, "boundary", 3, [0.0, 1.0], "edge"), "boundary item 3 {'edge': [0.0, 1.0], "),
        (lambda d: d.update(boundary=5), "mesh file field 'boundary' must be a list, not 5"),
        (lambda d: _set(d, "vertices", 5, [0.0]), "vertex 5 [0.0] is not 2 numbers"),
        (lambda d: _set(d, "vertices", 5, ["x", 0]), "vertex 5 ['x', 0] is not 2 numbers"),
        (lambda d: _set(d, "triangles", 7, 10**6, 1), "triangle 7 (4, 1000000, 7) has a vertex index outside [0, 21)"),
        (lambda d: _set(d, "triangles", 7, -1, 0), "triangle 7 (-1, 8, 7) has a vertex index outside [0, 21)"),
        (lambda d: _set(d, "triangles", 7, [0, 1]), "triangle 7 [0, 1] is not 3 integers"),
        (lambda d: _set(d, "triangles", 7, 2.5, 2), "triangle 7 [4, 8, 2.5] is not 3 integers"),
        (lambda d: d.update(triangles=[]), "triangles must be an (n, 3) array of integers, n >= 1"),
    ],
    ids=["no-edge", "short-edge", "float-edge", "boundary-not-list", "ragged-vertex", "string-vertex",
         "index-too-big", "negative-index", "ragged-triangle", "float-index", "no-triangles"],
)
def test_malformed_mesh_file_is_one_line_error(tmp_path, capsys, edit, message):
    # each names the offending item, where a bare array conversion would
    # end in a traceback, wrap a negative index or truncate a float one
    data = build_lshape(2).to_dict()
    assert (len(data["vertices"]), data["triangles"][7]) == (21, [4, 8, 7])
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert message in _assert_one_line_error(["mesh", "inspect", "--mesh", str(path)], capsys)


def test_non_finite_mesh_file_is_one_line_error(tmp_path, capsys):
    # JSON's NaN literal reaches the mesh as a float
    data = build_structured(2).to_dict()
    data["vertices"][4] = [float("nan"), 0.5]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    _assert_one_line_error(["project", "--mesh", str(path)], capsys)
    code = main(["mesh", "inspect", "--mesh", str(path)])
    assert code == 2 and "vertex 4 has a non-finite coordinate" in capsys.readouterr().err


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
@pytest.mark.parametrize("degrees", ["-1", "1,x", "1.5", "0,-2", "", "1,1", "1,2,1"])
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
        ["project", "--mesh", "structured:1", "--p", "60"],
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
    ids=["project-quad", "best-approx-quad", "study-quad", "quad-too-high", "rtn-degree-too-high", "def52-p0",
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


def test_quadrature_degree_too_high_names_quad_degree(capsys):
    # refused before any work, with the flag's value and the largest one
    # this p accepts, not the degree of a rule built from it
    assert main(["project", "--mesh", "structured:2", "--quad-degree", "500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hdivkit: error: quad_degree=500 needs rules of degree 501 > 120 at p = 1; "
                            "at this p quad_degree may be at most 119\n")


def test_degree_list_parses_to_integers():
    args = build_parser().parse_args(["project", "--p", "0,2,3"])
    assert args.degrees == [0, 2, 3]
    assert build_parser().parse_args(["project"]).degrees == [1]


def test_a_failed_patch_or_solve_is_one_line_error(monkeypatch, capsys):
    # patch data out of balance raises CompatibilityError, a singular
    # system SingularSystemError; both are raised here on purpose, since
    # whether the roundoff floor of a high-degree fit trips the gate
    # depends on the BLAS kernels and thread count
    import numpy as np

    import hdivkit.cli as cli
    from hdivkit.linsolve import SingularSystemError
    from hdivkit.local_solve import check_compatibility

    def incompatible(v, p, mesh, **options):
        check_compatibility(np.array([4]), np.array([2.3e-9]))

    def singular(prob, p):
        raise SingularSystemError("dense solve residual nan")

    monkeypatch.setattr(cli, "project_hdiv", incompatible)
    monkeypatch.setattr(cli, "solve_mixed", singular)
    argvs = [["project", "--mesh", "structured:2", "--p", "1"],
             ["solve-mixed", "--mesh", "structured:2", "--p", "0"]]
    for argv, message in zip(argvs, ["divergence data incompatible", "dense solve residual nan"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("hdivkit: error: ") and message in captured.err


@pytest.mark.parametrize("argv", [["mesh", "gen", "--mesh", "structured:2", "--out", "{missing}/m.json"],
                                  ["study", "--out", "{file}/out"]],
                         ids=["mesh-in-a-missing-directory", "study-under-a-regular-file"])
def test_an_output_that_cannot_be_written_is_one_line_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("hdivkit: error: cannot write ")
