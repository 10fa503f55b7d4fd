"""Command-line verbs: reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pointdyn.cli import main
from pointdyn import sysfile
from pointdyn.bundled import bundled_system


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_validate_bundled(capsys):
    code, doc = run(capsys, "validate", "bundled:id3")
    assert code == 0
    assert doc["tool"] == "pointdyn" and doc["verb"] == "validate"
    assert doc["results"]["ok"] is True
    assert doc["results"]["violations"] == []
    assert doc["system"]["digest"] == "6c0b610a2a45"


def test_validate_all_bundled(capsys):
    for name in ("id3", "nearpair4", "r6k2", "r12k1", "r12k3", "r12k5",
                 "cat5", "shift2", "satellite3"):
        code, doc = run(capsys, "validate", f"bundled:{name}")
        assert code == 0 and doc["results"]["ok"] is True


def test_classify_rotation(capsys):
    code, doc = run(capsys, "classify", "bundled:r12k3",
                    "--variant", "minimal", "--c", "1/6")
    assert code == 0
    assert doc["results"]["points"] == [str(i) for i in range(12)]
    assert doc["system"]["digest"] == "893014a8931f"

    code, doc = run(capsys, "classify", "bundled:r12k3",
                    "--variant", "uniform", "--c", "1/6")
    assert code == 0 and doc["results"]["points"] == []


def test_shadow_exact_and_windowed(capsys):
    code, doc = run(capsys, "shadow", "bundled:id3",
                    "--x", "0", "--eps", "1/2", "--delta", "1/2")
    assert code == 0 and doc["results"]["result"] is True

    code, doc = run(capsys, "shadow", "bundled:r12k3",
                    "--x", "0", "--eps", "1/4", "--delta", "1/6",
                    "--window", "3")
    assert code == 1
    res = doc["results"]
    assert res["result"] is False
    assert res["windows_checked"] == 18
    assert res["worst_window"] == ["0", "4", "8", "0", "3", "7", "11"]
    assert res["worst_tracer_count"] == 0


def test_shadow_budget_exit_code(capsys):
    code, _ = run(capsys, "shadow", "bundled:id3",
                  "--x", "0", "--eps", "1/2", "--delta", "2",
                  "--window", "3", "--budget", "10")
    assert code == 3


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PDL_BUDGET", "10")
    code, _ = run(capsys, "shadow", "bundled:id3",
                  "--x", "0", "--eps", "1/2", "--delta", "2", "--window", "3")
    assert code == 3


@pytest.mark.parametrize("value", ["abc", "1/2", "2.5"])
def test_budget_env_var_must_be_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("PDL_BUDGET", value)
    code = main(["shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4",
                 "--delta", "1/24", "--window", "2"])
    assert code == 2
    assert "PDL_BUDGET must be an integer" in capsys.readouterr().err


def test_conjugacy_verb(capsys):
    code, doc = run(capsys, "conjugacy", "bundled:id3", "bundled:id3",
                    "--x", "0", "--eps", "1/2", "--delta", "1/2")
    assert code == 0
    res = doc["results"]
    assert res["success"] is True
    assert res["h"] == {"0": "0"}
    assert res["residual"] == "0/1"
    assert res["eta"] == "1/32"


def test_trackmap_verb(capsys):
    code, doc = run(capsys, "trackmap", "bundled:id3", "--x", "0",
                    "--eta", "1/2")
    assert code == 0
    assert doc["results"]["images"] == {"0": ["0"]}


def test_ghdist_verb(capsys):
    code, doc = run(capsys, "ghdist", "bundled:r12k1", "bundled:r12k5",
                    "--budget", "40000")
    assert code == 0
    res = doc["results"]
    assert res["lower"] == "2021/8192"
    assert res["upper"] == "129/512"
    assert res["complete"] is True


def test_ghstable_verb(capsys):
    code, doc = run(capsys, "ghstable", "bundled:id3", "bundled:id3",
                    "--x", "0", "--eps", "1/2", "--delta", "1/2")
    assert code == 0 and doc["results"]["result"] is True


def test_mustable_verb(capsys):
    code, doc = run(capsys, "mustable", "bundled:id3",
                    "--x", "0", "--eps", "1/2", "--delta", "1/2",
                    "--measure", "bundled:nullpoint3")
    assert code == 0
    assert doc["results"]["result"] is True
    clauses = {c["name"]: c["result"] for c in doc["results"]["clauses"]}
    assert all(clauses.values()) and len(clauses) == 7

    code, doc = run(capsys, "mustable", "bundled:id3",
                    "--x", "0", "--eps", "1/2", "--delta", "1/2",
                    "--measure", "bundled:uniform3")
    assert code == 1
    clauses = {c["name"]: c["result"] for c in doc["results"]["clauses"]}
    assert clauses["i:null-images"] is False
    del clauses["i:null-images"]
    assert all(clauses.values())


def test_satellite_verb(capsys):
    code, doc = run(capsys, "satellite")
    assert code == 0
    res = doc["results"]
    assert res["result"] is True
    assert res["satellite_count"] == 18
    assert len(res["entries"]) == 40


def test_usage_errors_exit_two(capsys):
    assert main(["validate", "bundled:nosuch"]) == 2
    capsys.readouterr()
    assert main(["classify", "bundled:id3", "--variant", "bogus",
                 "--c", "1/2"]) == 2
    capsys.readouterr()
    assert main(["nosuchverb"]) == 2
    capsys.readouterr()


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "validate", "bundled:satellite3")
    code = main(["validate", "bundled:satellite3"])
    second = capsys.readouterr().out
    assert json.dumps(first, sort_keys=True, separators=(",", ":")) + "\n" == second


def test_file_input(tmp_path, capsys):
    path = tmp_path / "rot.pdl"
    path.write_text(sysfile.dumps(system=bundled_system("r12k3")))
    code, doc = run(capsys, "classify", str(path), "--variant", "minimal",
                    "--c", "1/6")
    assert code == 0 and len(doc["results"]["points"]) == 12


def test_pretty_flag_changes_rendering_only(capsys):
    code, doc = run(capsys, "validate", "bundled:id3")
    code2 = main(["--pretty", "validate", "bundled:id3"])
    pretty = capsys.readouterr().out
    assert code == code2 == 0
    assert json.loads(pretty) == doc
    assert pretty.count("\n") > 3


SRC = str(Path(__file__).resolve().parents[1] / "src")
BAD_STANZA = "explicit {\n  n = 2\n  d 0 1 abc\n  map = 1 0\n}\n"
ID3_SCALES = ("--eps", "1/2", "--delta", "1/2")


def write_stanza_files(directory: Path) -> dict:
    """Placeholder -> path of the files an argv may name: a stanza file
    with a parse error, a lattice, one that holds only a measure, a
    measure whose mass lies off id3's carrier, one that weighs only id3's
    point 0, a directory and a file that is not UTF-8 text."""
    files = {"{stanza}": BAD_STANZA,
             "{lattice}": "lattice {\n  n = 6\n  map = rot 2\n}\n",
             "{measure-only}": "measure {\n  weights = 0:1 1:1 2:1\n}\n",
             "{off-carrier}": "measure {\n  weights = 0:0 1:0 2:0 99:1\n}\n",
             "{partial}": "measure {\n  weights = 0:1\n}\n"}
    paths = {}
    for key, text in files.items():
        paths[key] = directory / f"{key[1:-1]}.pdl"
        paths[key].write_text(text)
    paths["{dir}"] = directory / "folder.pdl"
    paths["{dir}"].mkdir()
    paths["{binary}"] = directory / "binary.pdl"
    paths["{binary}"].write_bytes(b"\xff\xfe lattice {\n")
    return {key: str(path) for key, path in paths.items()}


# argv that once ended in a traceback, with the exit codes they now give
BAD_ARGV = (
    (("classify", "bundled:r12k3", "--variant", "minimal", "--c", "abc"), {2}),
    (("classify", "bundled:r12k3", "--variant", "minimal", "--c", "1/0"), {2}),
    (("conjugacy", "bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES,
      "--c", "xyz"), {2}),
    (("validate", "{stanza}"), {2}),
    (("shadow", "bundled:r12k3", "--x", "99", "--eps", "1/4",
      "--delta", "1/24"), {1, 2}),
    (("shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4", "--delta", "1/24",
      "--window", "-1"), {1, 2}),
    (("trackmap", "bundled:id3", "--x", "7", "--eta", "1/2"), {1, 2}),
    (("ghstable", "bundled:id3", "bundled:id3", "--x", "9", *ID3_SCALES),
     {1, 2}),
    (("mustable", "bundled:id3", "--measure", "bundled:nullpoint3", "--x", "5",
      *ID3_SCALES), {1, 2}),
    # non-positive scales once came back with a verdict
    (("shadow", "bundled:r12k3", "--x", "0", "--eps", "0", "--delta", "1/24"),
     {1}),
    (("shadow", "bundled:r12k3", "--x", "0", "--eps", "0", "--delta", "0"),
     {1}),
    (("mustable", "bundled:id3", "--measure", "bundled:nullpoint3", "--x", "0",
      "--eps", "1/2", "--delta", "0"), {1}),
    (("ghstable", "bundled:id3", "bundled:id3", "--x", "0", "--eps", "1/2",
      "--delta", "0"), {1}),
    # a non-positive expansivity constant once came back with a verdict
    (("conjugacy", "bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES,
      "--c", "0"), {1}),
    (("mustable", "bundled:id3", "--measure", "bundled:nullpoint3", "--x", "0",
      *ID3_SCALES, "--c", "-1"), {1}),
    (("satellite", "bundled:satellite3", "--c", "0"), {1}),
    (("classify", "bundled:r12k3", "--variant", "minimal", "--c=-1/2"), {1}),
    (("classify", "bundled:r12k3", "--variant", "expansive", "--c", "0"), {1}),
    # optional scales go through the parser of --eps: an empty --eta was
    # once read as absent, and a bad --c did not name its flag
    (("conjugacy", "bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES,
      "--eta", ""), {2}),
    (("mustable", "bundled:id3", "--measure", "bundled:nullpoint3", "--x", "0",
      *ID3_SCALES, "--c", "abc"), {2}),
    # points off an infinite carrier once came back with a verdict
    (("classify", "bundled:shift2", "--variant", "expansive", "--c", "1/2",
      "--probe", "2~2~2@0"), {1, 2}),
    (("classify", "bundled:satellite3", "--variant", "expansive", "--c", "1/2",
      "--probe", "q(1,1,99)"), {1, 2}),
    # a window count of thousands of digits once broke its refusal message
    (("shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4", "--delta", "1/6",
      "--window", "8000"), {3}),
    # a stanza file with no system stanza, a directory and a file that is
    # not UTF-8 once ended in a traceback wherever they were read
    (("classify", "{measure-only}", "--variant", "minimal", "--c", "1/2"), {2}),
    (("shadow", "{measure-only}", "--x", "0", "--eps", "1/4", "--delta", "1/24"),
     {2}),
    (("conjugacy", "{measure-only}", "bundled:id3", "--x", "0", *ID3_SCALES), {2}),
    (("trackmap", "{measure-only}", "--x", "0", "--eta", "1/2"), {2}),
    (("ghdist", "bundled:id3", "{measure-only}"), {2}),
    (("ghstable", "bundled:id3", "{measure-only}", "--x", "0", *ID3_SCALES), {2}),
    (("mustable", "{measure-only}", "--x", "0", *ID3_SCALES), {2}),
    (("satellite", "{measure-only}"), {2}),
    (("validate", "{dir}"), {2}),
    (("classify", "{dir}", "--variant", "minimal", "--c", "1/2"), {2}),
    (("mustable", "bundled:id3", "--measure", "{dir}", "--x", "0", *ID3_SCALES),
     {2}),
    (("validate", "{binary}"), {2}),
    (("trackmap", "{binary}", "--x", "0", "--eta", "1/2"), {2}),
    (("mustable", "bundled:id3", "--measure", "{binary}", "--x", "0",
      *ID3_SCALES), {2}),
    # a measure with all its mass off the carrier once passed every clause
    (("mustable", "bundled:id3", "--measure", "{off-carrier}", "--x", "0",
      *ID3_SCALES), {1}),
    # a measure with no weight at 1 and 2 once classified id3
    (("classify", "bundled:id3", "--variant", "mu-uniform", "--c", "1/2",
      "--measure", "{partial}"), {1}),
    # one loader reads systems and measures: a spec it cannot resolve
    (("mustable", "bundled:id3", "--measure", "nosuch", "--x", "0", *ID3_SCALES),
     {2}),
    (("mustable", "bundled:id3", "--measure", "bundled:nosuch", "--x", "0",
      *ID3_SCALES), {2}),
    (("classify", "nosuch", "--variant", "minimal", "--c", "1/2"), {2}),
)
# what the loader says of a spec it cannot resolve, by the stanza it wanted
LOADER_MISSES = {"nosuch": "no such file or bundled {}: 'nosuch'",
                 "bundled:nosuch": "no bundled {} named 'nosuch'"}


@pytest.mark.parametrize("argv, codes", BAD_ARGV,
                         ids=[" ".join(a) for a, _ in BAD_ARGV])
def test_bad_input_exits_without_traceback(tmp_path, argv, codes):
    files = write_stanza_files(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pointdyn.cli import main; sys.exit(main())",
         *(files.get(a, a) for a in argv)],
        capture_output=True, text=True, env=env)
    assert proc.returncode in codes
    assert "Traceback" not in proc.stderr
    if "{stanza}" in argv:
        assert "line 3:" in proc.stderr
    if "{off-carrier}" in argv:
        assert "99 is not a carrier point" in proc.stderr
    if "{partial}" in argv:
        assert "1 carries no weight" in proc.stderr
    for spec, message in LOADER_MISSES.items():
        if spec in argv:
            stanza = "measure" if argv[argv.index(spec) - 1] == "--measure" else "system"
            assert message.format(stanza) in proc.stderr


@pytest.mark.parametrize("n", (0, -3))
def test_torus_lattice_needs_a_positive_n(tmp_path, capsys, n):
    # n = 0 once ended in a ZeroDivisionError, and n = -3 built an empty
    # carrier whose validation sample fell back to the shift probes, a TypeError
    path = tmp_path / "torus.pdl"
    path.write_text(f"lattice {{\n  n = {n}\n  map = mat 2 1 1 1\n}}\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: torus lattice needs n >= 1\n"


def test_ghdist_reads_carriers_past_the_recursion_limit(tmp_path):
    # the map searches once recursed once per carrier point: ghdist on two
    # 1 100-point stanza files ended in a RecursionError traceback (exit 1)
    paths = []
    for name in ("a", "b"):
        paths.append(tmp_path / f"z1100{name}.pdl")
        paths[-1].write_text("lattice {\n  n = 1100\n  map = rot 1\n}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pointdyn.cli import main; sys.exit(main())",
         "ghdist", *map(str, paths)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert (results["lower"], results["upper"], results["complete"]) == ("0/1", "0/1", True)


def test_closed_stdout_exits_without_traceback():
    # a reader that leaves early (pdl ... | head -c 10) once ended the run
    # in a BrokenPipeError traceback; the read end is closed before the
    # child starts, so its first write to stdout fails on every run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from pointdyn.cli import main; sys.exit(main())",
             "classify", "bundled:cat5", "--variant", "shadow",
             "--eps", "1/2", "--delta", "1/3"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# every verb that takes a budget reads it first; ghdist once reported
# with a negative one and shadow --window ran out of it (exit 3)
BUDGET_ARGV = (
    (("shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4", "--delta", "1/24"), 0),
    (("shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4", "--delta", "1/24",
      "--window", "2"), 3),
    (("ghdist", "bundled:id3", "bundled:nearpair4"), 0),
    (("ghstable", "bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES), 0),
)


@pytest.mark.parametrize("argv, zero_code", BUDGET_ARGV,
                         ids=[" ".join(a) for a, _ in BUDGET_ARGV])
def test_negative_budget_is_a_usage_error(capsys, monkeypatch, argv, zero_code):
    monkeypatch.delenv("PDL_BUDGET", raising=False)
    for budget in ("-1", "-5"):
        assert main([*argv, "--budget", budget]) == 2
        assert f"--budget must be nonnegative, got {budget}" in capsys.readouterr().err
        monkeypatch.setenv("PDL_BUDGET", budget)
        assert main(list(argv)) == 2
        assert f"PDL_BUDGET must be nonnegative, got {budget}" in capsys.readouterr().err
        monkeypatch.delenv("PDL_BUDGET")
    # zero stays a budget: no window, no search node beyond the first
    assert main([*argv, "--budget", "0"]) == zero_code


@pytest.mark.parametrize("verb, flag", (("conjugacy", "--c"), ("conjugacy", "--eta"),
                                        ("ghstable", "--eta"), ("mustable", "--c"),
                                        ("satellite", "--c")))
def test_optional_scales_name_their_flag(capsys, verb, flag):
    args = {"conjugacy": ("bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES),
            "ghstable": ("bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES),
            "mustable": ("bundled:id3", "--measure", "bundled:nullpoint3",
                         "--x", "0", *ID3_SCALES),
            "satellite": ("bundled:satellite3",)}[verb]
    for bad in ("abc", ""):
        assert main([verb, *args, flag, bad]) == 2
        assert f"{flag} must be a rational p/q, got {bad!r}" in capsys.readouterr().err


# flags that verbs once left out of the command block: it echoes every
# argument as parsed, so a budgeted or probed report states its inputs;
# PDL_BUDGET is not argv, so it is never echoed
ECHO_ARGV = (
    (("shadow", "bundled:id3", "--x", "0", *ID3_SCALES, "--budget", "100"),
     {"system": "bundled:id3", "x": "0", "eps": "1/2", "delta": "1/2",
      "budget": 100}),
    (("ghstable", "bundled:id3", "bundled:id3", "--x", "0", *ID3_SCALES,
      "--budget", "100"),
     {"f": "bundled:id3", "candidates": ["bundled:id3"], "x": "0", "eps": "1/2",
      "delta": "1/2", "budget": 100}),
    (("validate", "bundled:shift2", "--probe", "0~1~0@2"),
     {"system": "bundled:shift2", "probe": ["0~1~0@2"]}),
    (("classify", "bundled:id3", "--variant", "shadow", *ID3_SCALES,
      "--probe", "2", "--probe", "1"),
     {"system": "bundled:id3", "variant": "shadow", "eps": "1/2", "delta": "1/2",
      "probe": ["2", "1"]}),
    (("ghdist", "bundled:id3", "bundled:nearpair4"),
     {"x_system": "bundled:id3", "y_system": "bundled:nearpair4"}),
)


@pytest.mark.parametrize("argv, command", ECHO_ARGV,
                         ids=[" ".join(a) for a, _ in ECHO_ARGV])
def test_the_command_block_echoes_every_flag(capsys, monkeypatch, argv, command):
    monkeypatch.setenv("PDL_BUDGET", "100")
    code, doc = run(capsys, *argv)
    assert code == 0
    assert doc["command"] == command


# -- fuzzing: any argv ends in an exit code, never in an exception -----------

# Values are drawn mostly well formed, so that most argv get past parsing
# and reach the library; the rest are off the carrier or not scales. The
# {placeholders} name the files of write_stanza_files: a lattice stanza and
# three files no verb can load.
FUZZ_POINTS = {
    "bundled:id3": ("0", "2"), "bundled:nearpair4": ("0", "3"),
    "bundled:r6k2": ("0", "5"), "bundled:r12k3": ("0", "11"),
    "bundled:r12k5": ("1", "7"), "bundled:cat5": ("(0,0)", "(4,1)"),
    "bundled:shift2": ("01~~01@0", "0~1~0@2"),
    "bundled:satellite3": ("q(1,1,0)", "01~~01@0"), "{lattice}": ("0", "5"),
}
UNLOADABLE = ("{measure-only}", "{dir}", "{binary}")
FUZZ_SYSTEMS = tuple(FUZZ_POINTS) + ("bundled:nope",) + UNLOADABLE
OFF_POINTS = ("99", "-1", "abc", "(9,9)", "2~2~2@0", "q(1,1,99)")
GOOD_SCALES = ("1/6", "1/4", "1/3", "1/2", "2/3", "1", "2")
FUZZ_SCALES = GOOD_SCALES * 3 + ("0", "-1/2", "abc", "1/0")
FUZZ_VALUES = {
    "--variant": st.sampled_from(("expansive", "uniform", "minimal", "shadow",
                                  "mu-uniform", "nope")),
    "--window": st.integers(-2, 40).map(str),
    "--budget": st.one_of(st.integers(-10 ** 4, -1), st.integers(0, 10 ** 4)).map(str),
    "--measure": st.sampled_from(("bundled:uniform3", "bundled:nullpoint3",
                                  "bundled:bernoulli_half", "bundled:nope",
                                  "{lattice}") + UNLOADABLE),
    "--g": st.sampled_from(FUZZ_SYSTEMS),
}
# PDL_BUDGET values: unset (None), integers, and text that is not one
FUZZ_ENV_BUDGETS = st.one_of(st.sampled_from((None, "abc", "1/2", "")),
                             st.integers(-10 ** 4, -1).map(str),
                             st.integers(0, 10 ** 4).map(str))
# verb -> (systems it takes, its options); the GH verbs always get a
# budget from --budget or a set PDL_BUDGET, since without one a search
# may run for seconds
FUZZ_VERBS = {
    "validate": (1, ("--probe",)),
    "classify": (1, ("--variant", "--c", "--eps", "--delta", "--measure",
                     "--probe")),
    "shadow": (1, ("--x", "--eps", "--delta", "--window", "--budget")),
    "conjugacy": (2, ("--x", "--eps", "--delta", "--c", "--eta")),
    "trackmap": (2, ("--x", "--eta")),
    "ghdist": (2, ("--budget",)),
    "ghstable": (3, ("--x", "--eps", "--delta", "--eta", "--budget")),
    "mustable": (1, ("--g", "--x", "--eps", "--delta", "--eta", "--c",
                     "--measure", "--through")),
    "satellite": (1, ("--c",)),
}


@st.composite
def pdl_argv(draw):
    """(argv, the PDL_BUDGET value to run it under or None for unset)."""
    env_budget = draw(FUZZ_ENV_BUDGETS, label="PDL_BUDGET")
    verb = draw(st.sampled_from(sorted(FUZZ_VERBS)))
    arity, flags = FUZZ_VERBS[verb]
    systems = [draw(st.sampled_from(FUZZ_SYSTEMS)) for _ in range(arity)]
    points = st.sampled_from(FUZZ_POINTS.get(systems[0], ()) * 3 + OFF_POINTS)
    argv = [verb] + systems
    for flag in flags:
        if flag == "--budget" and env_budget:    # mostly left to PDL_BUDGET
            present = draw(st.sampled_from((True, False, False, False)))
        else:
            present = verb.startswith("gh") and flag == "--budget" or \
                draw(st.sampled_from((True, True, True, False)))
        if present:
            values = points if flag in ("--x", "--probe", "--through") else \
                FUZZ_VALUES.get(flag, st.sampled_from(FUZZ_SCALES))
            argv += [flag, draw(values, label=flag)]
    return argv, env_budget


@pytest.fixture(scope="module")
def stanza_files(tmp_path_factory):
    return write_stanza_files(tmp_path_factory.mktemp("stanzas"))


@settings(max_examples=150, deadline=None)
@given(pdl_argv())
@example((["shadow", "bundled:r12k3", "--x", "0", "--eps", "1/4",
           "--delta", "1/24", "--window", "2"], "abc"))
def test_any_argv_exits_with_a_contract_code(stanza_files, drawn):
    argv, env_budget = drawn
    argv = [stanza_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("PDL_BUDGET", None)
        if env_budget is not None:
            os.environ["PDL_BUDGET"] = env_budget
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, env_budget, err.getvalue())
    budget = argv[argv.index("--budget") + 1] if "--budget" in argv else env_budget
    if "--budget" in FUZZ_VERBS[argv[0]][1] and budget and budget.startswith("-"):
        assert code == 2, (argv, env_budget, err.getvalue())
    if out.getvalue():
        # a report echoes every flag the argv gives, with its parsed value
        command = json.loads(out.getvalue())["command"]
        arity = FUZZ_VERBS[argv[0]][0]
        for flag, value in zip(argv[1 + arity::2], argv[2 + arity::2]):
            if flag in ("--window", "--budget"):
                value = int(value)
            elif flag in ("--probe", "--through"):
                value = [value]
            assert command[flag[2:]] == value, (argv, command)
