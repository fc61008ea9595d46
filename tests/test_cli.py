import json
import os
import random
import shutil
import subprocess
import sys

import pytest
from helpers import bench_workloads

import jcore
from jcore.cli import main
from jcore.corpus import CORPUS_DIR


def _c(path):
    return os.path.join(CORPUS_DIR, path)


def test_check_accepts_corpus(capsys):
    assert main(["check", _c("observer_v1.jcore")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.jcore"
    bad.write_text("class C extends { }")
    assert main(["check", str(bad)]) == 1
    # a digit that is not decimal starts no integer literal
    bad.write_text("class Cell extends Object { int f; unit m() { self.f := ² } }", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().out == f"{bad}: 1:57: unexpected character '²'\n"


def test_check_accepts_a_long_negation_chain(tmp_path, capsys):
    # 500 nested `!`: finding the first free `$tmpN` must not recurse per level
    src = tmp_path / "bang.jcore"
    src.write_text("class A extends Object { bool out; unit m() { self.out := " + "!" * 500 + "true } }\n")
    assert main(["check", str(src)]) == 0
    assert capsys.readouterr().out == f"{src}: ok\n"


def test_check_accepts_300_nested_parentheses(tmp_path, capsys):
    # two parser frames per level of parentheses
    src = tmp_path / "parens.jcore"
    src.write_text("class A extends Object { int out; unit m() { self.out := " + "(" * 300 + "1" + ")" * 300 + " } }\n")
    assert main(["check", str(src)]) == 0
    assert capsys.readouterr() == (f"{src}: ok\n", "")


def test_check_and_analyze_accept_3000_sequential_locals(tmp_path, capsys):
    # each local scopes the rest of the body: a LocalBlock nest 3000 deep
    body = "; ".join(f"int x{i} := {i}" for i in range(3000))
    src = tmp_path / "locals.jcore"
    src.write_text(
        "class O extends Object { } class R extends Object { }\n"
        "class K extends Object { unit m() { " + body + " } }\n"
    )
    assert main(["check", str(src)]) == 0
    assert capsys.readouterr() == (f"{src}: ok\n", "")
    assert main(["analyze", "--own", "O", "--rep", "R", str(src)]) == 0
    assert capsys.readouterr() == (f"{src}: safe\n", "")


def test_analyze_rejects_bad(capsys):
    code = main(["analyze", "--own", "OBool", "--rep", "Bool", _c("obool_bad_v1.jcore")])
    out = capsys.readouterr().out
    assert code == 1
    assert "OwnerPublicReturnsRep" in out


def test_analyze_json_lines(capsys):
    code = main(["--format", "json", "analyze", "--own", "OBool", "--rep", "Bool", _c("obool_bad_v1.jcore")])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert lines[0]["ok"] is False
    diag = lines[1]
    assert diag["rule"] == "OwnerPublicReturnsRep"
    assert diag["class"] == "OBool"
    assert diag["file"].endswith("obool_bad_v1.jcore")
    assert diag["span"] and diag["message"]


def test_analyze_requires_designations(capsys):
    assert main(["analyze", _c("observer_v1.jcore")]) == 2


def test_run_text_and_json(capsys):
    code = main(["run", "--entry", "Main.main", _c("observer_v1.jcore")])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok at fuel 2" in out
    assert "count = 1" in out
    code = main(["--format", "json", "run", "--entry", "Main.main", _c("observer_v1.jcore")])
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "ok" and data["fuel"] == 2
    assert "count = 1" in data["state"]


def test_run_monitor_flags_leak(capsys):
    code = main([
        "run", "--entry", "Main.main", "--own", "OBool", "--rep", "Bool",
        "--monitor", "every", _c("obool_bad_leak.jcore"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "ClientToRep" in out


def test_run_abort_reported(capsys):
    code = main(["run", "--entry", "Main.main", _c("meyer_sieber_v1.jcore")])
    out = capsys.readouterr().out
    assert code == 0  # aborting is a valid outcome, not a diagnostic
    assert "explicit-abort" in out


DOWN_200 = """
class D extends Object {
  int down(int n) {
    if n = 0 then result := 0 else result := self.down(n - 1) + 1 fi
  }
}
class Main extends Object {
  int out;
  unit main() { D r := new D; self.out := r.down(200) }
}
"""


def test_run_recursion_200_calls_deep(tmp_path, capsys):
    """201 nested calls fit under the default recursion limit: a compiled
    call costs about four Python frames."""
    src = tmp_path / "down.jcore"
    src.write_text(DOWN_200)
    assert main(["run", "--entry", "Main.main", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok at fuel 256\n")
    assert "Main@0: {out = 200}" in out


def test_run_down_319_in_a_fresh_process(tmp_path):
    """`jcore run` of the benchmark's `down(319)` in a process of its own, at
    the default recursion limit: 320 nested calls fit (the deepest `k` is 329
    on Python 3.10 to 3.12), so no change may add a Python frame per call."""
    workloads = bench_workloads()
    src, out = workloads.down_program(319, workloads.Names(random.Random(0)))
    path = tmp_path / "down.jcore"
    path.write_text(src)
    src_dir = os.path.dirname(os.path.dirname(jcore.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "jcore.cli", "run", "--entry", "Main.main", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"Main@0: {{{out} = 319}}" in proc.stdout


def test_equiv_exit_codes(capsys):
    assert main(["equiv", _c("manifests/observer_v1_sentinel.json")]) == 0
    assert "equivalent" in capsys.readouterr().out
    assert main(["equiv", _c("manifests/obool_bad_pair.json")]) == 1
    assert "distinguished" in capsys.readouterr().out


def test_equiv_json(capsys):
    main(["--format", "json", "equiv", _c("manifests/observer_version_pair.json")])
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "equivalent"
    assert data["sigma"]


def test_simtest_cli(capsys):
    assert main(["simtest", _c("manifests/sim_meyer.json")]) == 0
    out = capsys.readouterr().out
    assert "all pass" in out and "callP" in out
    assert main(["simtest", _c("manifests/sim_obool_bad.json")]) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simtest_reports_a_failing_script_with_a_unit_argument(tmp_path, capsys, fmt):
    # `poke` breaks the negation coupling and takes a unit, so failing scripts pass `it`
    poke = "  unit poke(unit u) { self.g.set(true) }\n  bool getg()"
    for v in ("v1", "v2"):
        with open(_c(f"obool_{v}.jcore")) as f:
            (tmp_path / f"obool_{v}.jcore").write_text(f.read().replace("  bool getg()", poke))
    with open(_c("manifests/sim_obool.json")) as f:
        manifest = json.load(f)
    manifest.update(tableA="obool_v1.jcore", tableB="obool_v2.jcore")
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(manifest))
    assert main(["--format", fmt, "simtest", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "text":
        assert "FAILURES" in out and "poke" in out
    else:
        steps = [st for fail in json.loads(out)["failures"] for st in fail["replay"]["script"]]
        assert {"op": "call", "target": "o", "method": "poke", "args": [["lit", "it"]], "bind": None,
                "prot": False} in steps


def test_dot_golden(capsys, tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "goldens", "observer_v1_final.dot")
    out_path = tmp_path / "out.dot"
    code = main([
        "dot", "--entry", "Main.main", "--own", "Observable", "--rep", "Node",
        "-o", str(out_path), _c("observer_v1.jcore"),
    ])
    assert code == 0
    with open(golden) as f:
        assert out_path.read_text() == f.read()


ILL_TYPED = """\
class Own extends Object { int g; }
class Rep extends Object { int f; }
class Main extends Object { int n; unit main() { int x := 3; self.n := x.n } }
"""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [
    ["run"], ["run", "--monitor", "every"], ["dot"],
], ids=["run", "run-monitor", "dot"])
def test_run_and_dot_refuse_ill_typed_programs(tmp_path, capsys, fmt, command):
    # interpreting `x.n` on an int would crash the interpreter
    src = tmp_path / "ill.jcore"
    src.write_text(ILL_TYPED)
    des = ["--own", "Own", "--rep", "Rep"]
    assert main(["check", str(src)]) == 1
    issues = capsys.readouterr().out
    assert "PrivateFieldAccess" in issues
    assert main(["--format", fmt, *command, "--entry", "Main.main", *des, str(src)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + issues


def test_usage_error_exit_2(capsys):
    assert main(["run", _c("observer_v1.jcore")]) == 2  # missing --entry
    assert main(["nonsense"]) == 2


def test_missing_file_exit_2(capsys):
    assert main(["equiv", "/nonexistent/manifest.json"]) == 2


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.jcore"
    path.write_bytes("class Caf\xe9 extends Object { }".encode("latin-1"))
    return str(path)


def _manifest_table_a(tmp_path, table):
    with open(_c("manifests/obool_pair.json")) as f:
        data = json.load(f)
    data["tableA"], data["tableB"] = table, _c("obool_v2.jcore")
    path = tmp_path / "table_a.json"
    path.write_text(json.dumps(data))
    return str(path)


_OBOOL = ["--entry", "Main.main", "--own", "OBool", "--rep", "Bool"]


@pytest.mark.parametrize("argv, culprit, problem", [
    (lambda tmp: ["check", str(tmp)], str, "Is a directory"),
    (lambda tmp: ["analyze", "--own", "OBool", "--rep", "Bool", str(tmp)], str, "Is a directory"),
    (lambda tmp: ["run", str(tmp), "--entry", "A.m"], str, "Is a directory"),
    (lambda tmp: ["equiv", str(tmp)], str, "Is a directory"),
    (lambda tmp: ["simtest", str(tmp)], str, "Is a directory"),
    (lambda tmp: ["check", _not_utf8(tmp)], _not_utf8, "not UTF-8 text"),
    (lambda tmp: ["dot", _not_utf8(tmp), *_OBOOL], _not_utf8, "not UTF-8 text"),
    (lambda tmp: ["equiv", _manifest_table_a(tmp, str(tmp))], str, "Is a directory"),
    (lambda tmp: ["equiv", _manifest_table_a(tmp, _not_utf8(tmp))], _not_utf8, "not UTF-8 text"),
    (lambda tmp: ["dot", "-o", str(tmp), _c("obool_v1.jcore"), *_OBOOL], str, "Is a directory"),
], ids=["check-dir", "analyze-dir", "run-dir", "equiv-dir", "simtest-dir", "check-not-utf8", "dot-not-utf8",
        "equiv-tableA-dir", "equiv-tableA-not-utf8", "dot-output-dir"])
def test_unreadable_inputs_are_clean_errors(tmp_path, capsys, argv, culprit, problem):
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert culprit(tmp_path) in err and problem in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [["check"], ["analyze", "--own", "OBool", "--rep", "Bool"]])
def test_unreadable_file_among_others_is_reported_in_place(tmp_path, capsys, fmt, command):
    # the files after an unreadable one still get their verdicts; the exit code is 2
    first, last = _c("obool_v1.jcore"), _c("obool_v2.jcore")
    assert main(["--format", fmt, *command, first, str(tmp_path), last]) == 2
    out, err = capsys.readouterr()
    head = "ok" if command == ["check"] else "safe"
    if fmt == "text":
        assert out == f"{first}: {head}\n{last}: {head}\n"
    else:
        assert [json.loads(line) for line in out.splitlines()] == [
            {"file": first, "ok": True}, {"file": last, "ok": True}]
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err and "Is a directory" in err


@pytest.mark.parametrize("argv", [
    ["check", _c("obool_v1.jcore")],
    ["analyze", _c("obool_v1.jcore")],
    ["run", "--entry", "Main.main", _c("obool_v1.jcore")],
    ["dot", "--entry", "Main.main", _c("obool_v1.jcore")],
], ids=["check", "analyze", "run", "dot"])
@pytest.mark.parametrize("flag", ["--rep", "--rep2"])
def test_rep_without_own_is_a_usage_error(capsys, argv, flag):
    assert main([*argv, flag, "Bool"]) == 2
    assert capsys.readouterr() == ("", f"usage error: {flag} requires --own\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("entry, message", [
    ("Nope.main", "unknown entry class Nope"),
    ("Main.nope", "Main has no method nope"),
    ("Bool.set", "entry method set must take no parameters"),
], ids=["unknown-class", "missing-method", "parameterised-method"])
def test_run_bad_entry_is_a_clean_error(capsys, fmt, entry, message):
    assert main(["--format", fmt, "run", "--entry", entry, _c("bool_v1.jcore")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("entry, message", [
    ({"class": "Nope", "method": "main"}, "unknown entry class Nope"),
    ({"class": "Main", "method": "nope"}, "Main has no method nope"),
], ids=["unknown-class", "missing-method"])
def test_equiv_bad_entry_is_a_manifest_error(tmp_path, capsys, entry, message):
    with open(_c("manifests/obool_pair.json")) as f:
        data = json.load(f)
    for side in ("tableA", "tableB"):
        name = os.path.basename(data[side])
        shutil.copy(_c(name), tmp_path / name)
        data[side] = name
    data["entry"] = entry
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(data))
    assert main(["equiv", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: manifest {path}: {message}\n")


def _unknown_coupling(tmp_path):
    with open(_c("manifests/sim_obool.json")) as f:
        data = json.load(f)
    data["coupling"] = "no-such-coupling"
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(data))
    return str(path)


def _not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    return str(path)


@pytest.mark.parametrize("command, manifest, expected", [
    ("equiv", lambda tmp: _c("manifests/sim_obool.json"), "missing key 'entry'"),
    ("simtest", lambda tmp: _c("manifests/obool_pair.json"), "missing key 'coupling'"),
    ("simtest", _unknown_coupling, "'no-such-coupling'; builtins: obool-negation, meyer-sieber-even"),
    ("equiv", _not_json, "not JSON"),
], ids=["equiv-on-simtest", "simtest-on-equiv", "unknown-coupling", "not-json"])
def test_bad_manifest_clean_error(tmp_path, capsys, command, manifest, expected):
    path = manifest(tmp_path)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {path}: ")
    assert expected in err


def _manifest_with(tmp_path, name, key, value):
    with open(_c(f"manifests/{name}")) as f:
        data = json.load(f)
    for side in ("tableA", "tableB"):
        data[side] = _c(os.path.join("manifests", data[side]))
    *parents, leaf = key.split(".")  # "entry.class" sets data["entry"]["class"]
    target = data
    for k in parents:
        target = target[k]
    target[leaf] = value
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command, name", [("equiv", "obool_pair.json"), ("simtest", "sim_obool.json")])
@pytest.mark.parametrize("key, value, problem", [
    ("maxFuel", "abc", "maxFuel: expected a non-negative integer, got 'abc'"),
    ("maxFuel", True, "maxFuel: expected a non-negative integer, got True"),
    ("loopCap", "x", "loopCap: expected a non-negative integer, got 'x'"),
    ("loopCap", -1, "loopCap: expected a non-negative integer, got -1"),
    ("fuels", ["a"], "fuels: expected a non-negative integer, got 'a'"),
    ("fuels", [-1, 2], "fuels: expected a non-negative integer, got -1"),
    ("fuels", 4, "fuels: expected a list of non-negative integers, got 4"),
    ("maxLen", "x", "maxLen: expected a non-negative integer, got 'x'"),
    ("maxLen", 2.0, "maxLen: expected a non-negative integer, got 2.0"),
    ("maxScripts", None, "maxScripts: expected a non-negative integer, got None"),
], ids=["maxFuel-str", "maxFuel-bool", "loopCap-str", "loopCap-negative", "fuels-str", "fuels-negative",
        "fuels-not-a-list", "maxLen-str", "maxLen-float", "maxScripts-null"])
def test_manifest_numbers_are_validated(tmp_path, capsys, command, name, key, value, problem):
    path = _manifest_with(tmp_path, name, key, value)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: manifest {path}: {problem}\n")


_NAME_KEYS = ["tableA", "tableB", "own", "repA", "repB"]


@pytest.mark.parametrize("command, name, key", [
    *[("equiv", "obool_pair.json", key) for key in _NAME_KEYS + ["entry.class", "entry.method"]],
    *[("simtest", "sim_obool.json", key) for key in _NAME_KEYS + ["coupling"]],
])
@pytest.mark.parametrize("value", [1, ["Bool"], {"name": "Bool"}], ids=["number", "list", "object"])
def test_manifest_names_are_validated(tmp_path, capsys, command, name, key, value):
    path = _manifest_with(tmp_path, name, key, value)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: manifest {path}: {key}: expected a string, got {value!r}\n")


@pytest.mark.parametrize("value", ["Main.main", ["Main", "main"], 1], ids=["string", "list", "number"])
def test_manifest_entry_is_an_object(tmp_path, capsys, value):
    path = _manifest_with(tmp_path, "obool_pair.json", "entry", value)
    assert main(["equiv", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: manifest {path}: entry: expected an object, got {value!r}\n")


@pytest.mark.parametrize("command", ["run", "dot"])
@pytest.mark.parametrize("option", ["--max-fuel", "--loop-cap"])
def test_negative_budgets_are_usage_errors(capsys, command, option):
    argv = [command, option, "-1", "--entry", "Main.main", "--own", "OBool", "--rep", "Bool", _c("obool_v1.jcore")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument {option}: must be at least 0, got -1\n")


def test_zero_budgets_stay_legal(capsys):
    assert main(["run", "--max-fuel", "0", "--entry", "Main.main", _c("obool_v1.jcore")]) == 0
    assert capsys.readouterr().out == "bottom: fuel-exhausted (call to init) at fuel 0\n"
    assert main(["run", "--loop-cap", "0", "--entry", "Main.main", _c("obool_v1.jcore")]) == 0
    assert capsys.readouterr().out.startswith("ok at fuel 2\n")


def test_corpus_list_and_run_all(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "observer_v1" in out
    assert main(["corpus", "run-all"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_corpus_run_all_reports_each_failure(monkeypatch, capsys):
    from jcore.corpus import load_corpus

    failures = ["observer_v1: fuel 9, expected 8", "bool_v1: check expectation mismatch"]
    monkeypatch.setattr("jcore.cli.replay", lambda: failures)
    n = len(load_corpus())
    assert main(["corpus", "run-all"]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{n} programs, 2 failures"] + [f"  {f}" for f in failures]
    assert main(["--format", "json", "corpus", "run-all"]) == 1
    assert json.loads(capsys.readouterr().out) == {"programs": n, "failures": failures}


def test_run_trace(capsys):
    code = main(["run", "--entry", "Main.main", "--trace", _c("bool_v1.jcore")])
    out = capsys.readouterr().out
    assert code == 0
    traces = [l for l in out.splitlines() if l.startswith("trace: ")]
    assert traces
    assert any("NewAssign" in t for t in traces)
    assert all("@" in t for t in traces)


def test_run_trace_lists_only_the_executed_run(capsys):
    from jcore.classtable import load_table
    from jcore.interp import run

    path = _c("observer_v1.jcore")
    assert main(["--format", "json", "run", "--entry", "Main.main", "--trace", path]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert len(trace) == run(load_table(path), "Main", "main").steps
    assert not any("bottom:fuel-exhausted" in t for t in trace)


def test_corpus_list_extra_dir(tmp_path, capsys):
    (tmp_path / "mine.jcore").write_text("class C extends Object { }")
    assert main(["corpus", "list", "--extra", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mine" in out and "observer_v1" in out
    assert main(["corpus", "list", "--extra", str(tmp_path / "missing")]) == 2
