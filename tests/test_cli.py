import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cubequot
from cubequot import CubeGroup, format_group_text
from cubequot.cli import main
from cubequot.cube_symmetry import standard_generators

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


EXPORT_FILES = {
    8: QUATERNION_FILE,
    12: "n=12\nx=110000000000 perm=(3 4)(5 6)(7 8)\nx=000000000111 perm=(1 12)(2 11)\n",
    15: "n=15\nx=111111111111111 perm=id\n",
}


@pytest.mark.parametrize(
    "n, fmt, digest",
    [
        (8, "json", "52e072ed7772f19a"),
        (8, "dot", "c1793b7af13e40af"),
        (12, "json", "be9aae6e463d59e5"),
        (12, "dot", "934ffbbc62171d84"),
        (15, "json", "67be3480ee3dae42"),
        (15, "dot", "e1b7f30949d849ef"),
    ],
)
def test_quotient_export_pinned(n, fmt, digest, tmp_path, capsys):
    # sha256 recorded while the quotient's edges were read off adjacency masks
    path = tmp_path / f"k{n}.grp"
    path.write_text(EXPORT_FILES[n], encoding="utf-8")
    code, out, _ = run_cli(["quotient", str(path), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


def run_cli_capped(args, address_space):
    """The CLI in a child process whose address space is capped, so a size
    check that fails to refuse ends in a MemoryError there, not in an OOM."""
    src = str(Path(cubequot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "cubequot.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=cap,
    )


def cube_params_text(n, levels=3):
    """`params` text output for Q_n, the quotient by the trivial group."""
    rows = [f"i={i} c_i={i} a_i=0\n" for i in range(levels + 1)]
    return f"vertices={1 << n} regular=True valency={n}\n" + "".join(rows)


def test_mask_users_refuse_trivial_q17_and_quotient_exports_it(tmp_path):
    # the masks of 2^17 vertices take 2 GiB; halves needs them, while params
    # searches the neighbour table and answers
    path = tmp_path / "trivial17.grp"
    path.write_text("n=17\n", encoding="utf-8")
    proc = run_cli_capped(["params", str(path)], 3 << 29)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == cube_params_text(17)
    proc = run_cli_capped(["halves", str(path)], 3 << 29)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:TOO_LARGE:") and proc.stderr.count("\n") == 1
    out = tmp_path / "q17.dot"
    proc = run_cli_capped(["quotient", str(path), "--format", "dot", "--out", str(out)], 3 << 29)
    assert proc.returncode == 0
    with open(out, encoding="utf-8") as fh:
        assert sum(" -- " in line for line in fh) == 17 << 16


@pytest.mark.parametrize("n", [18, 19, 20])
def test_params_of_large_trivial_quotients_answer_or_refuse(tmp_path, n):
    # under the same address-space cap: the parameters, or one TOO_LARGE
    # line, never a MemoryError
    path = tmp_path / f"trivial{n}.grp"
    path.write_text(f"n={n}\n", encoding="utf-8")
    proc = run_cli_capped(["params", str(path)], 3 << 29)
    if proc.returncode == 0:
        assert proc.stdout == cube_params_text(n) and proc.stderr == ""
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:TOO_LARGE:") and proc.stderr.count("\n") == 1


def test_halves_quaternion_verdict(quaternion_file, tmp_path, capsys):
    prefix = tmp_path / "halves"
    code, out, _ = run_cli(["halves", quaternion_file, "--out", str(prefix)], capsys)
    assert code == 0
    assert "verdict=NOT_ISOMORPHIC" in out
    for idx in (0, 1):
        data = json.loads(Path(f"{prefix}.half{idx}.json").read_text())
        assert data["n_vertices"] == 16


def test_halves_json_with_out_prints_verdict_and_witness(quaternion_file, tmp_path, capsys):
    prefix = tmp_path / "halves"
    args = ["halves", quaternion_file, "--format", "json", "--out", str(prefix)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out) == {"verdict": "NOT_ISOMORPHIC", "witness": None}
    for idx in (0, 1):
        assert json.loads(Path(f"{prefix}.half{idx}.json").read_text())["n_vertices"] == 16


def test_halves_folded_isomorphic(tmp_path, capsys):
    path = tmp_path / "folded.grp"
    path.write_text("n=8\nx=11111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["halves", str(path)], capsys)
    assert code == 0 and "verdict=ISOMORPHIC" in out


def test_halves_json_folded_8_pinned(tmp_path, capsys):
    # the JSON prints the isomorphism witness; sha256 recorded before the
    # isomorphism test moved onto the automorphism search
    path = tmp_path / "folded.grp"
    path.write_text("n=8\nx=11111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["halves", str(path), "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "ISOMORPHIC" and len(data["witness"]) == 64
    assert hashlib.sha256(out.encode()).hexdigest().startswith("753f79362517c173")


def test_halves_json_quaternion_pinned(quaternion_file, capsys):
    code, out, _ = run_cli(["halves", quaternion_file, "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NOT_ISOMORPHIC" and data["witness"] is None
    assert hashlib.sha256(out.encode()).hexdigest().startswith("92b1ea28b2660f45")


def test_halves_dot_needs_out(quaternion_file, capsys):
    # DOT output is one file per half, so it cannot go to stdout
    code, out, err = run_cli(["halves", quaternion_file, "--format", "dot"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:PRECONDITION_VIOLATED:") and err.count("\n") == 1


def test_halves_dot_with_out_writes_both_halves(quaternion_file, tmp_path, capsys):
    prefix = tmp_path / "halves"
    args = ["halves", quaternion_file, "--format", "dot", "--out", str(prefix)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and out == "verdict=NOT_ISOMORPHIC\n"
    for idx in (0, 1):
        assert Path(f"{prefix}.half{idx}.dot").read_text().startswith("graph G {")


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


def test_params_level_above_dimension_is_typed_error(tmp_path, capsys):
    # a quotient of Q_n has diameter at most n: level n is the last one asked
    path = tmp_path / "k.grp"
    path.write_text("n=6\nx=111111 perm=id\n", encoding="utf-8")
    code, out, err = run_cli(["params", str(path), "--max-level", "7"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:PRECONDITION_VIOLATED:") and err.count("\n") == 1
    code, out, _ = run_cli(["params", str(path), "--format", "json", "--max-level", "6"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["valency"] == 6 and [lvl["i"] for lvl in data["levels"]] == list(range(7))
    assert [lvl["c"] for lvl in data["levels"][1:]] == [1, 2, 6, "VACUOUS", "VACUOUS", "VACUOUS"]


@pytest.mark.parametrize("n", [1, 2])
def test_params_default_level_stops_at_the_dimension(tmp_path, capsys, n):
    # the default is level 3, or n when n < 3; an explicit level above n is refused
    path = tmp_path / "k.grp"
    path.write_text(f"n={n}\n", encoding="utf-8")
    code, out, err = run_cli(["params", str(path)], capsys)
    assert (code, err) == (0, "")
    assert out == cube_params_text(n, n)
    code, out, err = run_cli(["params", str(path), "--max-level", str(n + 1)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:PRECONDITION_VIOLATED:") and err.count("\n") == 1


def test_consecutive_main_calls_share_no_options(quaternion_file, tmp_path, capsys):
    # one parser serves every call: an option given once must not carry over
    out_path = tmp_path / "q.json"
    code, out, _ = run_cli(["quotient", quaternion_file, "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    code, out, _ = run_cli(["quotient", quaternion_file], capsys)
    assert code == 0 and out == out_path.read_text(encoding="utf-8")
    code, out, _ = run_cli(["params", quaternion_file, "--max-level", "2"], capsys)
    assert code == 0 and out.count("\ni=") == 3  # levels 0..2
    code, out, _ = run_cli(["params", quaternion_file], capsys)
    assert code == 0 and out.count("\ni=") == 4
    code, out, _ = run_cli(["mindist", quaternion_file, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["d_K"] == 4
    code, out, _ = run_cli(["mindist", quaternion_file], capsys)
    assert code == 0 and "d_K=4" in out


def test_bad_argv_still_exits_2_with_usage(quaternion_file, capsys):
    for argv in (["mindist", quaternion_file, "--bogus"], [], ["params"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cubequot")
    code, _, _ = run_cli(["mindist", quaternion_file], capsys)
    assert code == 0


def test_aut_folded6(tmp_path, capsys):
    path = tmp_path / "folded6.grp"
    path.write_text("n=6\nx=111111 perm=id\n", encoding="utf-8")
    code, out, _ = run_cli(["aut", str(path), "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["aut_order"] == 23040 and data["vertex_transitive"] is True


@pytest.mark.parametrize(
    "claim, digest",
    [("thm-main-even", "89c665a7d6a59d05"), ("lem-loc-tn", "d43c450134437654")],
)
def test_verify_locally_triangular_claims_pinned(claim, digest, capsys):
    # sha256 recorded while these claims ran one isomorphism search per
    # neighbourhood, before the star-clique test
    args = ["verify", "--claims", claim, "--seed", "0", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


@pytest.mark.parametrize(
    "claim, seed, digest",
    [
        ("lem-cycle", 0, "fd635b7212c5c8bb"),
        ("lem-cycle", 1, "fd635b7212c5c8bb"),
        ("lem-cycle", 2, "ca344298306fab22"),
        *[("ex-exp-halved", seed, "3b6e44472e48b3ad") for seed in range(3)],
        *[("ex-k2", seed, "66746c2f6b79b87e") for seed in range(3)],
        *[("lem-even", seed, "8dcd10296995502f") for seed in range(3)],
    ],
)
def test_verify_element_list_and_bipartition_claims_pinned(claim, seed, digest, capsys):
    # sha256 recorded while element lists came from a breadth-first key
    # closure and bipartite_parts ran its own BFS after a connectivity check
    args = ["verify", "--claims", claim, "--seed", str(seed), "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


@pytest.mark.parametrize(
    "claim, seed, digest",
    [
        *[("cor-main-rect", seed, "87f0afcd515edf2b") for seed in range(3)],
        ("lem-covering", 0, "01caa5dc76135cfb"),
    ],
)
def test_verify_covering_claims_pinned(claim, seed, digest, capsys):
    # sha256 recorded while lifts checked every bit pair of each vertex and
    # deck groups picked their generators by Schreier-Sims
    args = ["verify", "--claims", claim, "--seed", str(seed), "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


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


def test_mindist_above_the_default_cap_lists_no_elements(tmp_path, capsys, monkeypatch):
    # Aut(Q_8), order 2^8 8! = 10,321,920: order and d_K come from the generators alone
    path = tmp_path / "aut8.grp"
    path.write_text(format_group_text(CubeGroup(8, standard_generators(8), 1)), encoding="utf-8")

    def no_list(*args, **kwargs):
        raise AssertionError("element list built")

    monkeypatch.setattr(CubeGroup, "elements", property(no_list))
    code, out, _ = run_cli(["mindist", str(path), "--cap-group", "20000000"], capsys)
    assert code == 0
    assert "d_K=0" in out.splitlines() and "order=10321920" in out.splitlines()


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
