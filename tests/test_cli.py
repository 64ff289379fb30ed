import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hultman import cli, groups
from hultman.cli import main


def test_classify_command(capsys):
    code = main(
        ["classify", "--family", "B", "--rank", "3", "--element", "362514"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "chambers: True" in out
    assert "relaxed_hull: True" in out


def test_classify_explain_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        [
            "classify",
            "--family", "B", "--rank", "3",
            "--element", "426153",
            "--explain",
            "--json", str(path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0  # all-false is still consistent
    assert "  E(w)  = [(3, 2, 1), (3, 4, 2), (5, 2, 0), (5, 4, 1)]\n" in out
    assert "  E'(w) = [(3, 4, 2), (5, 2, 0)]\n" in out
    assert "  violated boxes: [(3, 2, 1), (5, 4, 1)]\n" in out
    assert "distance witness: u = 132546, l_D = 4, l_T = 2" in out
    assert "matched pattern: 426153" in out
    doc = json.loads(path.read_text())
    assert doc["conditions"]["bp_avoidance"] is False
    assert doc["violations"] == [{"p": 3, "q": 2, "r": 1}, {"p": 5, "q": 4, "r": 1}]


def test_classify_signed_window_input(capsys):
    code = main(
        ["classify", "--family", "B", "--rank", "3", "--element=-3,2,-1",
         "--conditions", "3,5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "element 426153" in out


def test_one_entry_signed_window_input(capsys):
    # a leading minus marks a signed window even without a comma
    code = main(["classify", "--family", "B", "--rank", "1", "--element=-1"])
    assert code == 0
    assert "element 21 in B_1" in capsys.readouterr().out
    code = main(["patterns", "--host=-1", "--host-family", "B", "--pattern", "1",
                 "--family", "A"])
    assert code == 0
    assert "21 BP contains 1 in S_1" in capsys.readouterr().out
    code = main(["classify", "--family", "A", "--rank", "1", "--element=-1"])
    assert code == 2
    assert "only valid for type B" in capsys.readouterr().err


def test_classify_condition_subset(capsys):
    code = main(
        ["classify", "--family", "A", "--rank", "4", "--element", "4231",
         "--conditions", "1,5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "c(w) = 18, s(w) = 20" in out
    assert "distance" not in out


def test_python_m_hultman_runs_the_cli():
    # a source checkout runs the command line without an install
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-m", "hultman", "verify", "--family", "B", "--rank", "2"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Hultman elements: 8" in done.stdout


def test_verify_command(tmp_path, capsys):
    path = tmp_path / "verify.json"
    code = main(
        ["verify", "--family", "B", "--rank", "2", "--json", str(path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Hultman elements: 8" in out
    assert "all computed conditions agree" in out
    doc = json.loads(path.read_text())
    assert doc["total"] == 8
    assert len(doc["elements"]) == 8
    element_doc = doc["elements"][0]
    assert set(element_doc) >= {
        "element", "family", "rank", "conditions", "c", "s",
        "witnesses", "violations", "matched_pattern",
    }


def test_verify_reports_seconds_per_condition(tmp_path, capsys):
    path = tmp_path / "verify.json"
    code = main(["verify", "--family", "B", "--rank", "3", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(path.read_text())
    names = {"chambers", "distance", "pseudo_inclusions", "relaxed_hull", "bp_avoidance"}
    assert set(doc["seconds"]) == names
    assert all(s >= 0 for s in doc["seconds"].values())
    layers = {
        "elements", "group_rank_grids", "bruhat_graph", "group_absolute_lengths",
        "orbit_representatives",
    }
    assert set(doc["layer_seconds"]) == layers
    assert all(s >= 0 for s in doc["layer_seconds"].values())
    assert sum(doc["seconds"].values()) + sum(doc["layer_seconds"].values()) <= (
        doc["elapsed_s"]
    )
    for name in names:
        assert f"    {name}: " in out


def test_verify_prints_its_layer_seconds(capsys):
    # the enumeration and the shared tables on one line, so that a run
    # without --json shows them too
    assert main(["verify", "--family", "B", "--rank", "3", "--conditions", "1,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    layers = [line for line in lines if line.startswith("  layers: ")]
    assert len(layers) == 1
    names = [part.split()[0] for part in layers[0].removeprefix("  layers: ").split(", ")]
    assert names == ["elements", "group_rank_grids", "orbit_representatives"]


@pytest.mark.parametrize(
    "family, rank, line",
    [
        ("A", 3, "  c1, c2: 4 of 6 computed, the rest by w -> w^-1 and w -> w0 w w0\n"),
        ("B", 2, "  c1, c2: 7 of 8 computed, the rest by w -> w^-1\n"),
    ],
)
def test_verify_says_how_many_rows_it_computed(tmp_path, capsys, family, rank, line):
    # S_3 has the orbits {123}, {132, 213}, {231, 312}, {321}; in B_2 only
    # the two rotations of order 4 are not involutions
    path = tmp_path / "verify.json"
    code = main(["verify", "--family", family, "--rank", str(rank), "--json", str(path)])
    assert code == 0
    assert line in capsys.readouterr().out
    doc = json.loads(path.read_text())
    computed = int(line.split(": ")[1].split()[0])
    assert doc["rows_computed"]["chambers"] == doc["rows_computed"]["distance"] == computed
    assert doc["rows_from_orbit"]["distance"] == doc["total"] - computed
    assert doc["rows_computed"]["bp_avoidance"] == doc["total"]


def test_minimal_patterns_command(capsys):
    code = main(["minimal-patterns", "--max-a", "3", "--max-b", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total: 10" in out
    assert "matches the listed pattern set exactly" in out


def test_minimal_patterns_with_a_short_type_a_scan_exits_2(tmp_path, capsys):
    # the A_5 obstructions embed in B_5 hosts, so a scan of S_4 alone would
    # leave B_5 candidates undominated and report spurious patterns; the
    # bounds are checked before the --json file is opened, which they leave
    # as it was
    path = tmp_path / "out.json"
    path.write_text("kept")
    code = main(["minimal-patterns", "--max-a", "4", "--max-b", "5", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: max_a = 4 < max_b = 5")
    assert "total:" not in captured.out
    assert path.read_text() == "kept"


def test_witnesses_command(capsys):
    code = main(["witnesses"])
    out = capsys.readouterr().out
    assert code == 0
    assert "B_3 426153: non-Hultman confirmed, 1 witnesses" in out
    assert "parity-inconsistent" in out  # the S_4 row is flagged
    assert "unlisted witness u=1324: (4,2)" in out


def test_witnesses_json(tmp_path, capsys):
    path = tmp_path / "witnesses.json"
    assert main(["witnesses", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert len(doc) == 31
    confirmed = {entry["pattern"]: entry["non_hultman_confirmed"] for entry in doc}
    assert confirmed["426153"] is True


def test_minimal_patterns_json(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    assert main(["minimal-patterns", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert len(doc) == 31
    assert all(set(row) == {"family", "rank", "element"} for row in doc)
    assert {"family": "B", "rank": 3, "element": "426153"} in doc


def test_chambers_command(capsys):
    code = main(
        ["chambers", "--family", "A", "--rank", "4", "--element", "4231"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "|Inv(w)| = 5" in out
    assert "c(w) = 18" in out
    assert "x1-x2" in out or "x1-x4" in out


def test_chambers_command_type_b(capsys):
    code = main(["chambers", "--family", "B", "--rank", "3", "--element", "654321"])
    out = capsys.readouterr().out
    assert code == 0
    assert "characteristic polynomial: +1t^3 -9t^2 +23t^1 -15t^0" in out
    assert "c(w) = 48" in out


def test_patterns_command(capsys):
    code = main(
        ["patterns", "--host", "52863174", "--pattern", "4231",
         "--family", "A"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "BP contains" in out and "(1, 2, 5, 6)" in out

    code = main(
        ["patterns", "--host", "52863174", "--pattern", "4231",
         "--family", "B"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "BP avoids" in out


def test_patterns_command_rank_6_type_b(capsys):
    # a B_6 pattern spans 12 positions: 66 comparisons, more than 8 bits
    code = main(
        ["patterns", "--host", "1b6d73a5c8294e", "--pattern", "a5c6294b7183",
         "--family", "B"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "at positions (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)" in out


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["--host", "1,2,3", "--pattern", "21", "--family", "A"],
         "123456 BP avoids 21 in S_2"),
        (["--host=-3,2,-1", "--pattern", "2,1", "--family", "B"],
         "426153 BP avoids 2143 in B_2"),
    ],
)
def test_patterns_command_signed_windows_take_rank_from_entries(capsys, argv, expected):
    # the rank of a comma-separated signed window is its number of entries,
    # not half its text length
    code = main(["patterns"] + argv)
    out = capsys.readouterr().out
    assert code == 0
    assert expected in out


def test_bad_element_exits_2(capsys):
    code = main(
        ["classify", "--family", "A", "--rank", "4", "--element", "4232"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_windows_too_wide_for_an_int64_key_exit_2(capsys):
    # a degree-16 window cannot be packed into an int64 key, so condition 1
    # stops before it enumerates B_8; the conditions that need no key run
    argv = ["classify", "--family", "B", "--rank", "8", "--element", "123456789abcdefg"]
    assert main(argv + ["--conditions", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: windows of degree 16 do not fit an int64 key\n"
    assert main(argv + ["--conditions", "3,4,5"]) == 0
    assert capsys.readouterr().out.count(": True") == 3


@pytest.mark.parametrize(
    "family, rank, name",
    [("A", 16, "S_16"), ("A", 30, "S_30"), ("B", 20, "B_20"), ("A", 12, "S_12")],
)
def test_verify_on_a_group_too_large_to_enumerate_exits_2(
    capsys, monkeypatch, family, rank, name
):
    # S_16's window matrix would take 304 TiB, and the orders of S_30 and
    # B_20 overflow an int64 count; S_12's matrix (5.35 GiB) fits in 8 GiB,
    # but building and sorting it would not.  Each fails before any memory
    # is touched
    def allocation(*args, **kwargs):
        pytest.fail(f"{name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 8 * 2**30)
    monkeypatch.setattr(groups, "_children", allocation)
    argv = ["verify", "--family", family, "--rank", str(rank), "--conditions", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} has ") and "too many to enumerate" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--family", "B", "--rank", "8"], "conditions 1 and 2 on B_8"),
        (["verify", "--family", "A", "--rank", "11", "--conditions", "2"], "condition 2 on S_11"),
        (
            ["classify", "--family", "B", "--rank", "8", "--element", "123456789abcdefg"],
            "conditions 1 and 2 on B_8",
        ),
    ],
)
def test_tables_too_large_for_memory_exit_2_before_enumerating(capsys, monkeypatch, argv, message):
    # on an 8 GiB machine the tables of conditions 1 and 2 do not fit beside
    # the enumeration of B_8, nor condition 2's beside that of S_11
    def enumerate_group(ctx):
        pytest.fail(f"{ctx.name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 8 * 2**30)
    monkeypatch.setattr(groups.GroupContext, "_enumeration", property(enumerate_group))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the tables of {message} would take ")
    assert err.count("\n") == 1


def test_verify_on_windows_too_wide_for_an_int64_key_exits_2_before_enumerating(
    capsys, monkeypatch
):
    # with memory to spare, condition 1 still cannot read B_8's rows by
    # their degree-16 windows, so verify stops before it enumerates
    def enumerate_group(ctx):
        pytest.fail(f"{ctx.name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 2**40)
    monkeypatch.setattr(groups.GroupContext, "_enumeration", property(enumerate_group))
    assert main(["verify", "--family", "B", "--rank", "8", "--conditions", "1"]) == 2
    assert capsys.readouterr().err == "error: windows of degree 16 do not fit an int64 key\n"


def test_explaining_a_type_b_element_never_enumerates_the_group(capsys, monkeypatch):
    # E'(w) is read off E(w), so conditions 3 to 5 explain an element of B_8
    # in 1 MiB, room for neither its enumeration nor its tables; condition 1
    # still needs the rank table, 2.46 GiB on B_8, and says so before
    # enumerating
    def enumerate_group(ctx):
        pytest.fail(f"{ctx.name} began to enumerate")

    monkeypatch.setattr(groups, "_memory_bytes", lambda: 2**20)
    monkeypatch.setattr(groups.GroupContext, "_enumeration", property(enumerate_group))
    argv = ["classify", "--family", "B", "--rank", "8", "--element", "123456789abcdefg"]
    assert main(argv + ["--conditions", "3,4,5", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "  E'(w) = [(2, 1, 0), " in out
    monkeypatch.setattr(groups, "_memory_bytes", lambda: 2 * 2**30)
    assert main(argv + ["--conditions", "1", "--explain"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the tables of condition 1 on B_8 would take ")
    assert err.count("\n") == 1


def test_a_minimal_pattern_tree_too_large_for_memory_exits_2(capsys, monkeypatch):
    # the children of S_7's 2343 condition-3 holders and their comparison
    # masks take 2343 * 8 * (8 + 2 * 7) bytes, more than 128 kiB
    monkeypatch.setattr(groups, "_memory_bytes", lambda: 2**17)
    assert main(["minimal-patterns", "--max-a", "8", "--max-b", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the 18744 children of 2343 elements in the scan of S_8 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["classify", "--family", "B", "--rank", "2", "--element", "1234"],
        ["verify", "--family", "B", "--rank", "2"],
        ["witnesses"],
        ["minimal-patterns", "--max-a", "3", "--max-b", "3"],
    ],
)
def test_unwritable_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "missing" / "out.json"
    code = main(command + ["--json", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not path.exists()


@pytest.mark.parametrize(
    "command, work",
    [
        (["classify", "--family", "B", "--rank", "4", "--element", "12345678"], "classify"),
        (["verify", "--family", "B", "--rank", "4"], "verify_equivalence"),
        (["witnesses"], "witness_table"),
        (["minimal-patterns"], "find_minimal_non_hultman"),
    ],
)
def test_unwritable_json_fails_before_any_computation(
    tmp_path, capsys, monkeypatch, command, work
):
    # the output file is opened first, so a bad path throws no work away
    def computation(*args, **kwargs):
        pytest.fail(f"{work} ran before the --json file was opened")

    monkeypatch.setattr(cli, work, computation)
    path = tmp_path / "missing" / "out.json"
    assert main(command + ["--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory") and str(path) in err


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["classify", "--family", "Z", "--rank", "3", "--element", "123"])
    assert err.value.code == 2
