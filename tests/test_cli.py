import json

import pytest

from hdivkit.cli import main


def test_mesh_gen_and_inspect(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main(["mesh", "gen", "--mesh", "structured:2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["mesh", "inspect", "--mesh", str(path), "--labels", "file"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["triangles"] == 8
    assert out["dirichlet_edges"] == 8


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


def test_best_approx_command(capsys):
    assert main(["best-approx", "--mesh", "structured:2", "--field", "cubic", "--p", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p1"]["ratio_glob_over_loc"] >= 1.0 - 1e-9


def test_solve_commands(capsys):
    assert main(["solve-mixed", "--mesh", "structured:2", "--p", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p0"]["div_constraint_defect"] < 1e-10
    assert main(["solve-ls", "--mesh", "structured:2", "--p", "0", "--q", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p0_q1"]["kkt_residual"] < 1e-10


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
    ['{"threads": 2}', '{"refinements": 0}', "[1]", "{not json"],
    ids=["unknown-key", "bad-value", "not-object", "not-json"],
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
    argv = command + ["--mesh", mesh, "--labels", "file", "--refinements", "1"]
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
