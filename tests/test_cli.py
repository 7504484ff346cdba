"""Command line interface: exit codes, report shapes, determinism."""

import hashlib
import json
import time

import pytest

from conftest import model
from looptop.cli import main
from looptop.dga import dga_to_doc


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_ok(capsys):
    code, out, err = run(capsys, ["validate", "--model", "sphere:3"])
    assert code == 0
    assert "OK" in out
    assert err == ""


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, ["validate", "--model", "torus:2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["violations"] == []


def test_validate_broken_model_file(tmp_path, capsys):
    doc = dga_to_doc(model("torus:2"))
    for entry in doc["products"]:
        if entry["left"] == "x1" and entry["right"] == "x2":
            entry["result"] = {"x12": "2"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "rule" in out


def test_validate_reports_on_a_huge_top_degree(tmp_path, capsys):
    """A two-element model with top degree 10^9 and its orientation on
    the unit gets its violation report without walking every degree."""
    doc = {"name": "huge", "unit": "1", "top_degree": 10 ** 9,
           "basis": [{"name": "1", "degree": 0},
                     {"name": "x", "degree": 10 ** 9}],
           "products": [{"left": "1", "right": "1", "result": {"1": "1"}},
                        {"left": "1", "right": "x", "result": {"x": "1"}},
                        {"left": "x", "right": "1", "result": {"x": "1"}}],
           "orientation": {"1": "1"}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out.splitlines()[2:] == [
        "orientation/support\t1\tdegree 0 != top 1000000000",
        "orientation/nondegenerate\t0\t"
        "homology pairing degrees (0,1000000000) singular",
        "orientation/nondegenerate\t1000000000\t"
        "homology pairing degrees (1000000000,0) singular"]


def test_reports_refuse_invalid_model(tmp_path, capsys):
    """A model whose only product is 1·x = x breaks the unit law; the
    report commands name the rule and exit 1 instead of reporting."""
    doc = dga_to_doc(model("sphere:2"))
    doc["products"] = [{"left": "1", "right": "x", "result": {"x": "1"}}]
    path = tmp_path / "unit_broken.json"
    path.write_text(json.dumps(doc))
    for command in ("loop-homology", "bar-betti", "bracket"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 1, command
        assert out == "", command
        assert "unit/identity" in err, command


def test_model_source_is_exclusive(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dga_to_doc(model("sphere:2"))))
    code, _, err = run(capsys, ["validate", str(path), "--model", "sphere:2"])
    assert code == 2
    assert "not both" in err


def test_model_source_is_required(capsys):
    code, _, err = run(capsys, ["validate"])
    assert code == 2


def test_unknown_builtin_is_usage_error(capsys):
    code, _, err = run(capsys, ["validate", "--model", "klein:1"])
    assert code == 2


BAD_BUILTIN_IDS = {
    "nope": "unknown builtin model 'nope'",
    "foo:x": "unknown builtin model 'foo'",
    "acyclic_extension:": "unknown builtin model ''",
    "acyclic_extension:nope": "unknown builtin model 'nope'",
    "torus": "torus takes exactly one integer parameter",
    "torus:1:2": "torus takes exactly one integer parameter",
}


@pytest.mark.parametrize("model_id", list(BAD_BUILTIN_IDS))
def test_bad_builtin_id_names_the_fault(capsys, model_id):
    """The family is checked before its parameters are counted."""
    code, out, err = run(capsys, ["validate", "--model", model_id])
    assert (code, out, err) == (
        2, "", f"usage error: {BAD_BUILTIN_IDS[model_id]}\n")


def test_missing_file_is_failure(capsys):
    code, _, err = run(capsys, ["validate", "/no/such/file.json"])
    assert code == 1
    assert "cannot read" in err


def test_bad_json_file_is_failure(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "not valid JSON" in err


def test_repeated_table_entry_is_failure(tmp_path, capsys):
    doc = dga_to_doc(model("sphere:2"))
    doc["products"].append({"left": "1", "right": "x",
                            "result": {"x": "5"}})
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: repeated products entry 1·x\n"


def test_loop_homology_exact_run(capsys):
    code, out, _ = run(capsys, ["loop-homology", "--model", "sphere:3",
                                "--min", "-3", "--max", "5",
                                "--cutoff", "8"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "degree\tbetti\tstatus\tclasses\tproducts"
    assert len(lines) == 2 + 9
    assert all("exact" in line for line in lines[2:])


# exit code and sha256 of the full stdout, recorded while tsv still sorted
# the whole ring once per degree
LOOP_HOMOLOGY_TSV = {
    ("sphere:3", "-3", "5"): (
        0, "7e101a7f234d90e3837d6177e2fb020b7e4d607c8498b5abfb76c68a38ceae51"),
    ("complex_projective:2", "-4", "6"): (
        3, "770ee453d0df08e934d955f2c6c3c0b21f730f11fcacab2b0d453f7258b16682"),
}


def test_loop_homology_tsv_frozen(capsys):
    for (mid, lo, hi), want in LOOP_HOMOLOGY_TSV.items():
        code, out, _ = run(capsys, ["loop-homology", "--model", mid,
                                    "--min", lo, "--max", hi,
                                    "--cutoff", "8"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, mid


# the default window of CP^3 (degrees -6..8) at cutoff 11: exit code and
# sha256 of stdout, recorded while every word up to the cutoff was built
# (265,720 words)
CP3_CUTOFF_11 = (
    3, "18d095107d280aa9bb63738ca4bb4f992527a4e7cf55f3e5a02cb6403999d2e7")


def test_loop_homology_default_window_frozen(capsys):
    code, out, _ = run(capsys, ["loop-homology", "--model",
                                "complex_projective:3", "--cutoff", "11"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CP3_CUTOFF_11


def test_loop_homology_truncated_run(capsys):
    code, out, _ = run(capsys, ["loop-homology", "--model", "sphere:2",
                                "--min", "0", "--max", "4", "--cutoff", "2"])
    assert code == 3
    assert "weight-truncated" in out


def test_loop_homology_degenerate_range(capsys):
    code, _, err = run(capsys, ["loop-homology", "--model", "sphere:3",
                                "--min", "4", "--max", "0"])
    assert code == 2


def test_loop_homology_needs_cutoff_with_degree_one_letters(capsys):
    """No weight cutoff is exact when the model has degree-1 generators,
    so the default (which grows without bound there) is refused."""
    for mid in ("torus:2", "surface:1", "acyclic_extension:torus:1"):
        code, out, err = run(capsys, ["loop-homology", "--model", mid])
        assert code == 2, mid
        assert out == "", mid
        assert "degree-1 generators" in err and "--cutoff" in err, mid


def test_loop_homology_json(capsys):
    code, out, _ = run(capsys, ["loop-homology", "--model", "sphere:3",
                                "--min", "-3", "--max", "5", "--cutoff", "8",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["-3"] == {"betti": 1, "exact": True}
    assert doc["ring"]["h-3.0*h2.0"] == {"h-1.0": "1"}


def test_bar_betti_sphere(capsys):
    code, out, _ = run(capsys, ["bar-betti", "--model", "sphere:2",
                                "--min", "0", "--max", "4",
                                "--max-weight", "5"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[2:]]
    assert [int(r[1]) for r in rows] == [1, 1, 1, 1, 1]


def test_bar_betti_truncated_exit(capsys):
    code, out, _ = run(capsys, ["bar-betti", "--model", "torus:2",
                                "--min", "0", "--max", "2",
                                "--max-weight", "2"])
    assert code == 3


def test_bar_betti_needs_max_weight_with_degree_one_letters(capsys):
    """The default weight (max degree) enumerates every word of that
    weight on a model with degree-1 generators -- about 2.7e9 on torus:4
    -- and is still inexact, so it is refused."""
    for mid in ("torus:4", "surface:1", "acyclic_extension:torus:1"):
        code, out, err = run(capsys, ["bar-betti", "--model", mid])
        assert code == 2, mid
        assert out == "", mid
        assert "degree-1 generators" in err and "--max-weight" in err, mid


@pytest.mark.parametrize("command, builder, default", [
    ("loop-homology", "loop_homology", lambda n: (-n, n + 2)),
    ("bar-betti", "bar_homology", lambda n: (0, 2 * n))])
def test_wide_default_window_is_refused(capsys, monkeypatch, command,
                                        builder, default):
    """A default window grows with the top degree, one slice per degree,
    so one wider than 1,000 degrees is refused before anything is built,
    and so is one with a single default end; one of 1,000 degrees or
    fewer, and any window with both ends given, is not."""
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    start = time.perf_counter()
    code, out, err = run(capsys, [command, "--model", "sphere:100000000"])
    assert time.perf_counter() - start < 0.5
    lo, hi = default(100000000)
    assert (code, out) == (2, "")
    assert err == (f"usage error: default degree window {lo}..{hi} spans "
                   f"{hi - lo + 1} degrees, more than 1000; give --min "
                   "and --max\n")
    monkeypatch.setattr(f"looptop.cli.{builder}", built)
    for argv, refused in (
            (["--model", "sphere:499"], command == "loop-homology"),
            (["--model", "sphere:498"], False),
            (["--model", "sphere:500"], True),
            (["--model", "sphere:100000000", "--max", "3"],
             command == "loop-homology"),
            (["--model", "sphere:100000000", "--min", "0"], True),
            (["--model", "sphere:499", "--max", "3"], False),
            (["--model", "sphere:100000000", "--min", "-5000", "--max",
              "5000"], False)):
        if refused:
            assert run(capsys, [command] + argv)[0] == 2, argv
        else:
            with pytest.raises(Built):
                main([command] + argv)


@pytest.mark.parametrize("command, flag", [("loop-homology", "--cutoff"),
                                           ("bar-betti", "--max-weight")])
def test_negative_weight_cutoff_is_usage_error(capsys, command, flag):
    """A negative cutoff holds no word, not even the empty one, so the
    report would be all zeros; it is refused instead."""
    for mid in ("sphere:3", "torus:2"):
        code, out, err = run(capsys, [command, "--model", mid, flag, "-1"])
        assert code == 2, mid
        assert out == "", mid
        assert err == f"usage error: {flag[2:]} must be non-negative\n", mid


def test_bracket_table_torus(capsys):
    code, out, _ = run(capsys, ["bracket", "--model", "torus:2", "--p", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "class1\tclass2\tfiltration\texpansion"
    assert lines[-1] == "antisymmetry\tok"
    # 6 classes at cutoff 2, so a full 36-row table
    assert len(lines) == 2 + 36 + 1


# exit code and sha256 of the full stdout, recorded while bracket still ran
# every cochain operation of the composite on every call
BRACKET_FROZEN = {
    ("torus:2", "3", "tsv"): (
        0, "100ed2886d4149e3ba348e5f3462a398b377e17baccd23beef4bf2f8faf7898e"),
    ("surface:1", "3", "json"): (
        0, "c0d40af64beb07ceda26ec560cacc39942ace2b513168b3cbf266cc17b6fc865"),
    ("surface:2", "2", "tsv"): (
        0, "3102da26b32f400f446277db0313e496b7207f292cef8562f382ab7411599b12"),
}


def test_bracket_frozen(capsys):
    for (mid, p, fmt), want in BRACKET_FROZEN.items():
        code, out, _ = run(capsys, ["bracket", "--model", mid, "--p", p,
                                    "--format", fmt])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, mid


def test_bracket_rejects_bad_p(capsys):
    code, _, _ = run(capsys, ["bracket", "--model", "torus:2", "--p", "0"])
    assert code == 2


def test_bracket_needs_symplectic_model(capsys):
    code, _, err = run(capsys, ["bracket", "--model", "sphere:3"])
    assert code == 1


def test_bracket_refuses_model_before_building_slices(capsys, monkeypatch):
    def no_slices(*args, **kwargs):
        raise AssertionError("a slice was built")

    monkeypatch.setattr("looptop.cli.hochschild_homology", no_slices)
    for mid, message in (
            ("sphere:3", "model lacks symplectic degree-1 structure "
                         "(top degree 3 != 2)"),
            ("acyclic_extension:torus:2", "orientation pairing of "
             "acyclic_extension(torus(2)) is not chain-invertible")):
        code, out, err = run(capsys, ["bracket", "--model", mid, "--p", "4"])
        assert (code, out, err) == (1, "", f"error: {message}\n"), mid


def test_out_of_memory_is_one_line_failure(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("looptop.cli.loop_homology", exhausted)
    code, out, err = run(capsys, ["loop-homology", "--model", "sphere:3"])
    assert (code, out) == (1, "")
    assert err == ("error: out of memory in loop-homology; try a smaller "
                   "degree window or weight cutoff\n")


def test_pi1_compare(capsys):
    code, out, _ = run(capsys, ["pi1-compare", "--p", "3"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 1), (2, 3), (3, 6)]
    assert all(r[3] == "ok" for r in rows)


def test_pi1_compare_json(capsys):
    code, out, _ = run(capsys, ["pi1-compare", "--p", "2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [row["h0_dim"] for row in doc["rows"]] == [1, 3]


def test_unknown_command_exits_two(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_repeat_runs_are_identical(capsys):
    argv = ["loop-homology", "--model", "torus:1",
            "--min", "-2", "--max", "2", "--cutoff", "4"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
