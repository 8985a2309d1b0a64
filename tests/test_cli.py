import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubequot
from cubequot.cli import main

from conftest import QUATERNION_FILE


@pytest.fixture()
def quaternion_file(tmp_path):
    path = tmp_path / "quaternion.grp"
    path.write_text(QUATERNION_FILE, encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_mindist_text(quaternion_file, capsys):
    code, out, _ = run_cli(["mindist", quaternion_file], capsys)
    assert code == 0
    assert "d_K=4" in out and "order=8" in out and "even=true" in out


def test_mindist_json_deterministic(quaternion_file, capsys):
    code, out1, _ = run_cli(["mindist", quaternion_file, "--format", "json"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["mindist", quaternion_file, "--format", "json"], capsys)
    assert out1 == out2
    data = json.loads(out1)
    assert data == {"d_K": 4, "order": 8, "even": True, "semiregular": True}


def test_mindist_trivial_inf(tmp_path, capsys):
    path = tmp_path / "trivial.grp"
    path.write_text("n=6\n", encoding="utf-8")
    code, out, _ = run_cli(["mindist", str(path), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["d_K"] == "inf"


def test_mindist_hamming_like_code(tmp_path, capsys):
    path = tmp_path / "ones.grp"
    path.write_text("n=7\nx=1111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["mindist", str(path)], capsys)
    assert code == 0 and "d_K=7" in out


def test_quotient_json_output(tmp_path, capsys):
    path = tmp_path / "k.grp"
    path.write_text("n=3\n", encoding="utf-8")
    out_file = tmp_path / "cube.json"
    code, _, _ = run_cli(["quotient", str(path), "--out", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["n_vertices"] == 8 and len(data["edges"]) == 12
    assert data["labels"][0] == "000"


def test_quotient_folded_8(tmp_path, capsys):
    path = tmp_path / "folded.grp"
    path.write_text("n=8\nx=11111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["quotient", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n_vertices"] == 128 and len(data["edges"]) == 512


def test_quotient_quaternion_vertices(quaternion_file, capsys):
    code, out, _ = run_cli(["quotient", quaternion_file], capsys)
    data = json.loads(out)
    assert data["n_vertices"] == 32


def test_quotient_dot_format(tmp_path, capsys):
    path = tmp_path / "k.grp"
    path.write_text("n=2\n", encoding="utf-8")
    code, out, _ = run_cli(["quotient", str(path), "--format", "dot"], capsys)
    assert code == 0 and out.startswith("graph G {")


def test_halves_quaternion_verdict(quaternion_file, tmp_path, capsys):
    prefix = tmp_path / "halves"
    code, out, _ = run_cli(["halves", quaternion_file, "--out", str(prefix)], capsys)
    assert code == 0
    assert "verdict=NOT_ISOMORPHIC" in out
    for idx in (0, 1):
        data = json.loads(Path(f"{prefix}.half{idx}.json").read_text())
        assert data["n_vertices"] == 16


def test_halves_folded_isomorphic(tmp_path, capsys):
    path = tmp_path / "folded.grp"
    path.write_text("n=8\nx=11111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["halves", str(path)], capsys)
    assert code == 0 and "verdict=ISOMORPHIC" in out


def test_halves_non_even_error(tmp_path, capsys):
    path = tmp_path / "odd.grp"
    path.write_text("n=7\nx=1111111 perm=id\n", encoding="utf-8")
    code, _, err = run_cli(["halves", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:NOT_BIPARTITE:")


def test_params_cube(tmp_path, capsys):
    path = tmp_path / "k.grp"
    path.write_text("n=4\n", encoding="utf-8")
    code, out, _ = run_cli(["params", str(path), "--format", "json", "--max-level", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["valency"] == 4
    assert [lvl["c"] for lvl in data["levels"][1:]] == [1, 2, 3, 4]


def test_params_negative_level_is_typed_error(tmp_path, capsys):
    path = tmp_path / "k.grp"
    path.write_text("n=6\nx=111111 perm=id\n", encoding="utf-8")
    code, out, err = run_cli(["params", str(path), "--max-level", "-1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:PRECONDITION_VIOLATED:") and err.count("\n") == 1


def test_aut_folded6(tmp_path, capsys):
    path = tmp_path / "folded6.grp"
    path.write_text("n=6\nx=111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["aut", str(path), "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["aut_order"] == 23040 and data["vertex_transitive"] is True


def test_verify_single_claim(capsys):
    code, out, _ = run_cli(["verify", "--claims", "ex-exp-halved"], capsys)
    assert code == 0
    assert "ex-exp-halved" in out and "HOLDS" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "--claims", "ex-exp-halved,ex-valency-m", "--format", "json", "--seed", "3"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    reports = json.loads(out1)
    assert [r["claim_id"] for r in reports] == ["ex-exp-halved", "ex-valency-m"]


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(["verify", "--claims", "nonsense"], capsys)
    assert code == 1
    assert err.startswith("error:UNKNOWN_CLAIM:")


def test_example_exp_halved(capsys):
    code, out, _ = run_cli(["example", "exp-halved", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"]["sphere2_of_zero"] == 13
    assert data["witnesses"]["sphere2_of_e1"] == 14


def test_example_unknown(capsys):
    code, _, err = run_cli(["example", "bogus"], capsys)
    assert code == 1 and err.startswith("error:UNKNOWN_EXAMPLE:")


def test_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text("n=8\nx=1111 perm=id\n", encoding="utf-8")
    code, _, err = run_cli(["mindist", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:PARSE_ERROR: line 2:")


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(["mindist", "/nonexistent/file.grp"], capsys)
    assert code == 1 and err.startswith("error:IO_ERROR:")


def test_group_cap_enforced(tmp_path, capsys):
    path = tmp_path / "big.grp"
    lines = ["n=6"] + [
        "x=" + "".join("1" if j == i else "0" for j in range(6)) + " perm=id"
        for i in range(6)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(["mindist", str(path), "--cap-group", "10"], capsys)
    assert code == 1 and err.startswith("error:GROUP_TOO_LARGE:")


def test_console_entry_point_runs():
    # the child process imports the same cubequot as this one, also when the
    # package is found through pytest's `pythonpath` setting only
    src = str(Path(cubequot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "cubequot.cli", "verify", "--claims", "ex-valency-m"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "ex-valency-m" in proc.stdout
