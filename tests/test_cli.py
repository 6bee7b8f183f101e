import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypercause.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
SYSTEM = str(BENCH / "running_example.machine.json")
TRACES = str(BENCH / "running_example.traces.json")
FORMULA = str(BENCH / "formulas" / "running_example.hltl")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES,
    )
    assert code == 0
    assert "falsifies" in out


def test_validate_bad_machine(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"format": 1, "inputs": ["a"], "outputs": [],
                               "states": [{"id": "q", "label": []}],
                               "initial": "q",
                               "transitions": [{"from": "q", "guard": "a", "to": "q"}]}))
    code, _, err = run_cli(capsys, "validate", "--system", str(bad))
    assert code == 2
    assert "no guard" in err


def test_check_finds_violation_and_emits_trace_file(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "check", "--system", SYSTEM, "--formula", FORMULA,
        "--prefix-bound", "3", "--period-bound", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == 1 and set(doc["traces"]) == {"t1", "t2"}
    # the emitted file format feeds straight back into explain
    cexfile = tmp_path / "cex.json"
    cexfile.write_text(out)
    code, out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", str(cexfile), "--all",
    )
    assert code == 0
    assert json.loads(out)["status"] == "found"


def test_check_no_violation_exit_one(capsys):
    formula = BENCH / "formulas" / "tautology.hltl"
    formula.write_text("forall p1 p2. G (lo[p1] <-> lo[p1])\n")
    try:
        code, out, _ = run_cli(
            capsys, "check", "--system", SYSTEM, "--formula", str(formula),
            "--prefix-bound", "2", "--period-bound", "1", "--format", "text",
        )
        assert code == 1
        assert "no violation found within bounds" in out
    finally:
        formula.unlink()


def test_explain_all_reports_both_causes(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES, "--all",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert len(doc["causes"]) == 2
    events = [tuple((e["trace"], e["position"], e["prop"], e["polarity"])
                    for e in c["events"]) for c in doc["causes"]]
    assert (("t1", 0, "hi", "negative"),) in events
    assert (("t2", 0, "hi", "positive"),) in events
    assert all(c["verified"] for c in doc["causes"])


def test_explain_all_closes_past_the_cause_bound(capsys):
    # both causes have one event; the set check then rules out every set of
    # the remaining candidates, so no cause can lie above the bound
    code, out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES, "--all", "--max-cause-size", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["stats"]["decided_by"] == "closure"
    events = [[(e["trace"], e["position"], e["prop"], e["polarity"]) for e in c["events"]]
              for c in doc["causes"]]
    assert events == [[("t1", 0, "hi", "negative")], [("t2", 0, "hi", "positive")]]


def test_explain_without_counterexample_autochecks(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", FORMULA,
        "--prefix-bound", "3", "--period-bound", "2",
    )
    assert code == 0
    assert json.loads(out)["status"] == "found"


def test_explain_satisfied_formula_exit_one(capsys):
    formula = BENCH / "formulas" / "tautology2.hltl"
    formula.write_text("forall p1 p2. G (lo[p1] <-> lo[p1])\n")
    try:
        code, _, err = run_cli(
            capsys, "explain", "--system", SYSTEM, "--formula", str(formula),
            "--prefix-bound", "2", "--period-bound", "1",
        )
        assert code == 1
        assert "nothing to explain" in err
    finally:
        formula.unlink()


def test_candidates_json_and_text(capsys):
    code, out, _ = run_cli(
        capsys, "candidates", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES,
    )
    assert code == 0
    doc = json.loads(out)
    events = {(e["trace"], e["position"], e["prop"], e["polarity"])
              for e in doc["candidate"]["events"]}
    assert ("t1", 0, "hi", "negative") in events
    assert ("t2", 0, "hi", "positive") in events
    code, out, _ = run_cli(
        capsys, "candidates", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES, "--format", "text",
    )
    assert code == 0
    assert "[*]" in out


def test_oracle_matches_explain_all(capsys):
    code, explain_out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES, "--all",
    )
    assert code == 0
    code, oracle_out, _ = run_cli(
        capsys, "oracle", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES,
    )
    assert code == 0
    explain_doc = json.loads(explain_out)
    oracle_doc = json.loads(oracle_out)
    assert oracle_doc["oracle"] is True
    assert json.dumps(explain_doc["causes"], sort_keys=True) == json.dumps(
        oracle_doc["causes"], sort_keys=True
    )


def test_dump_aa(capsys):
    argv = ["explain", "--system", SYSTEM, "--formula", FORMULA, "--counterexample", TRACES]
    code, out, err = run_cli(capsys, *argv, "--dump-aa")
    assert code == 0
    assert "node[" in err and "@0" in err
    plain_code, plain_out, _ = run_cli(capsys, *argv)
    assert plain_code == code
    report, plain = json.loads(out), json.loads(plain_out)
    report.pop("stats")
    plain.pop("stats")
    assert report == plain


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_importing_the_cli_leaves_the_alternating_automaton_out():
    # only --dump-aa reads it, so it is imported there
    probe = "import sys, hypercause.cli; print('hypercause.alternating' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_src_env(), timeout=120, check=True)
    assert done.stdout == "False\n"


def test_usage_error_on_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "explain", "--system", "/nonexistent.json", "--formula", FORMULA,
        "--counterexample", TRACES,
    )
    assert code == 2
    assert "error" in err


def test_infix_syntax_selector(tmp_path, capsys):
    formula = tmp_path / "od.txt"
    formula.write_text("forall p1 p2. G (lo[p1] <-> lo[p2])\n")
    code, out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", str(formula),
        "--counterexample", TRACES, "--all",
    )
    assert code == 0
    assert len(json.loads(out)["causes"]) == 2


def test_validate_warns_when_assignment_satisfies(tmp_path, capsys):
    formula = tmp_path / "taut.txt"
    formula.write_text("forall p1 p2. G (lo[p1] <-> lo[p1])\n")
    code, out, _ = run_cli(
        capsys, "validate", "--system", SYSTEM, "--formula", str(formula),
        "--counterexample", TRACES,
    )
    assert code == 0
    assert "warning" in out


def test_main_twice_carries_no_option_over(capsys, monkeypatch):
    from hypercause import cli

    parsed = []
    explain = cli.cmd_explain

    def recording(args):
        parsed.append(vars(args))
        return explain(args)

    monkeypatch.setattr(cli, "cmd_explain", recording)
    argv = ["explain", "--system", SYSTEM, "--formula", FORMULA, "--counterexample", TRACES]
    code, out_all, _ = run_cli(capsys, *argv, "--all", "--max-contingency-size", "3")
    assert code == 0
    code, out_default, _ = run_cli(capsys, *argv)
    assert code == 0
    assert parsed[0]["all"] and parsed[0]["max_contingency_size"] == 3
    assert parsed[1] == vars(cli.build_parser().parse_args(argv))
    assert len(json.loads(out_all)["causes"]) == 2
    assert len(json.loads(out_default)["causes"]) == 1


# argvs the command's own parser reads, and argvs left to the top-level one
DISPATCH_ARGVS = [
    pytest.param([], id="no arguments"),
    pytest.param(["-h"], id="help"),
    pytest.param(["nope"], id="unknown command"),
    pytest.param(["check"], id="missing options"),
    pytest.param(["check", "-h"], id="command help"),
    pytest.param(["check", "--system", SYSTEM, "--formula", FORMULA, "--bogus"],
                 id="unrecognized option"),
    pytest.param(["check", "--system", SYSTEM, "--formula", FORMULA, "extra"],
                 id="unrecognized argument"),
    pytest.param(["--bogus", "check", "--system", SYSTEM, "--formula", FORMULA],
                 id="option before the command"),
    pytest.param(["explain", "--system", SYSTEM, "--formula", FORMULA,
                  "--max-cause-size", "-1"], id="negative bound"),
    pytest.param(["check", f"--system={SYSTEM}", f"--formula={FORMULA}", "--prefix-bound=2"],
                 id="option=value"),
    pytest.param(["validate", "--system", SYSTEM, "--", "x"], id="double dash"),
]


def _parsed(parse, argv, capsys):
    """The options `parse(argv)` gives, or its exit code; and what it printed."""
    try:
        value = vars(parse(argv))
    except SystemExit as exc:
        value = ("exit", exc.code)
    captured = capsys.readouterr()
    return value, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS)
def test_commands_parse_as_the_top_level_parser_parses_them(capsys, argv):
    from hypercause import cli

    expected = _parsed(cli.build_parser().parse_args, argv, capsys)
    assert _parsed(cli._parse_args, argv, capsys) == expected
    if isinstance(expected[0], tuple):  # main exits as the parser does
        assert _parsed(main, argv, capsys) == expected


@pytest.mark.parametrize("argv", [
    ["check", "--period-bound", "0"],
    ["oracle", "--counterexample", TRACES, "--max-cause-size", "-1"],
    ["explain", "--counterexample", TRACES, "--max-contingency-size", "-1"],
])
def test_bound_that_searches_nothing_is_a_usage_error(capsys, argv):
    # the running example violates its formula and has two causes, so each
    # of these bounds would answer wrongly instead of searching
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--system", SYSTEM, "--formula", FORMULA])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hypercause.cli", "explain", "--system", SYSTEM,
             "--formula", FORMULA, "--counterexample", TRACES, "--all"],
            stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


@pytest.mark.parametrize("argv", [
    ["explain", "--counterexample", TRACES, "--all"],
    ["oracle", "--counterexample", TRACES],
    ["check", "--prefix-bound", "3", "--period-bound", "2"],
])
def test_json_output_renders_no_text(capsys, monkeypatch, argv):
    from hypercause import reports

    def refuse(*args, **kwargs):
        raise AssertionError("text rendered for JSON output")

    monkeypatch.setattr(reports, "render_report", refuse)
    monkeypatch.setattr(reports, "render_traces", refuse)
    code, out, _ = run_cli(capsys, *argv, "--system", SYSTEM, "--formula", FORMULA,
                           "--format", "json")
    assert code == 0
    assert out.endswith("}\n")
    assert json.loads(out)["format"] == 1


def test_explain_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES, "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: found"
    assert lines[2] == "cause 1: <!hi,0,t1>"
    assert "t1: {!hi[*]} {lo} ({ho lo})^w" in lines  # captured stdout is not a terminal
    assert lines[-1].startswith("stats: subsets_checked=")
    assert "decided_by=search" in lines[-1]


def _write_traces(tmp_path, traces):
    path = tmp_path / "traces.json"
    path.write_text(json.dumps({"format": 1, "traces": traces}))
    return str(path)


T1 = {"prefix": [[], ["lo"]], "period": [["ho", "lo"]]}


@pytest.mark.parametrize("argv", [
    ["explain"], ["explain", "--all"], ["candidates"], ["oracle"], ["validate"],
], ids=" ".join)
def test_trace_that_is_not_a_run_is_a_usage_error(tmp_path, capsys, argv):
    broken = {"prefix": [["ho"]], "period": [["ho", "lo"]]}
    traces = _write_traces(tmp_path, {"t1": T1, "t2": broken})
    code, out, err = run_cli(capsys, *argv, "--system", SYSTEM, "--formula", FORMULA,
                             "--counterexample", traces)
    assert code == 2
    assert out == ""
    assert err == (
        "error: trace 't2': not a trace of the machine: "
        "outputs ['ho'] do not match state 's0' label [] @ 0\n"
    )


def test_duplicate_state_id_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(Path(SYSTEM).read_text())
    first = doc["states"][0]
    doc["states"].append(dict(first, label=["lo"]))
    system = tmp_path / "m.json"
    system.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--system", str(system), "--formula", FORMULA,
                             "--counterexample", TRACES)
    assert code == 2
    assert out == ""
    last = len(doc["states"]) - 1
    assert err == f"error: duplicate state id {first['id']!r} at states[{last}]\n"


@pytest.mark.parametrize("argv", [
    ["explain"], ["explain", "--all"], ["candidates"], ["oracle"], ["validate"],
], ids=" ".join)
def test_period_that_does_not_close_is_a_usage_error(tmp_path, capsys, argv):
    # two states share the empty label and swap on every step, so the run
    # of ({})^w is p q p q ...: a run whose one-letter period does not close
    system = tmp_path / "m.json"
    system.write_text(json.dumps({
        "format": 1, "inputs": ["a"], "outputs": ["o"],
        "states": [{"id": "p", "label": []}, {"id": "q", "label": []}], "initial": "p",
        "transitions": [{"from": "p", "guard": "true", "to": "q"},
                        {"from": "q", "guard": "true", "to": "p"}],
    }))
    formula = tmp_path / "f.hltl"
    formula.write_text("forall p. G o[p]")
    traces = _write_traces(tmp_path, {"t1": {"prefix": [], "period": [[]]}})
    code, out, err = run_cli(capsys, *argv, "--system", str(system), "--formula",
                             str(formula), "--counterexample", traces)
    assert code == 2
    assert out == ""
    assert err == (
        "error: trace 't1': period does not close on machine states; "
        "use a representation aligned with the state recurrence\n"
    )


@pytest.mark.parametrize("argv", [["explain", "--dump-aa"], ["candidates"], ["oracle"]],
                         ids=" ".join)
def test_counterexample_that_satisfies_the_formula_has_nothing_to_explain(
    tmp_path, capsys, argv
):
    traces = _write_traces(tmp_path, {"t1": T1, "t2": T1})
    code, out, err = run_cli(capsys, *argv, "--system", SYSTEM, "--formula", FORMULA,
                             "--counterexample", traces)
    assert code == 1
    assert out == ""
    assert err == "the counterexample satisfies the formula; nothing to explain\n"


@pytest.mark.parametrize("command", ["oracle", "candidates"])
def test_text_reports_are_coloured_on_a_terminal(capsys, monkeypatch, command):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    code, out, _ = run_cli(capsys, command, "--system", SYSTEM, "--formula", FORMULA,
                           "--counterexample", TRACES, "--format", "text")
    assert code == 0
    assert "\x1b[" in out


# (file, path to the value replaced in it, the wrongly typed value, the error)
WRONGLY_TYPED = [
    ("system", ("inputs",), "hi", "inputs must be an array"),
    ("system", ("outputs",), ["ho", 5], "outputs[1] must be a string"),
    ("system", ("states", 1, "label"), "ho", "states[1].label must be an array"),
    ("system", ("states", 1, "label"), 5, "states[1].label must be an array"),
    ("system", ("states", 0, "id"), ["s0"], "states[0].id must be a string"),
    ("system", ("states", 2), "s2", "states[2] must be an object"),
    ("system", ("initial",), 0, "initial must be a string"),
    ("system", ("transitions", 0, "guard"), 1, "transitions[0].guard must be a string"),
    ("system", ("transitions", 3, "to"), None, "transitions[3].to must be a string"),
    ("counterexample", ("traces", "t1", "prefix", 1), "lo",
     "traces.t1.prefix[1] must be an array"),
    ("counterexample", ("traces", "t2", "period", 0), ["ho", 5],
     "traces.t2.period[0][1] must be a string"),
    ("counterexample", ("traces", "t2", "prefix"), "hi", "traces.t2.prefix must be an array"),
    ("counterexample", ("traces", "t1"), [], "traces.t1 must be an object"),
    ("counterexample", ("traces",), [], "traces must be an object"),
]


@pytest.mark.parametrize("command", ["validate", "explain"])
@pytest.mark.parametrize("case", WRONGLY_TYPED,
                         ids=lambda case: f"{'.'.join(map(str, case[1]))}={json.dumps(case[2])}")
def test_wrongly_typed_json_is_a_usage_error(tmp_path, capsys, command, case):
    # a string is never read as a set of its characters, and no type error
    # escapes as a traceback
    kind, path, value, message = case
    files = {"system": SYSTEM, "counterexample": TRACES}
    doc = json.loads(Path(files[kind]).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    files[kind] = tmp_path / f"{kind}.json"
    files[kind].write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--system", str(files["system"]),
                             "--formula", FORMULA, "--counterexample",
                             str(files["counterexample"]))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_report_counts_its_table(capsys):
    # one table serves the candidate analysis and the enumeration, and the
    # report gives its counters under the search's names
    code, out, _ = run_cli(
        capsys, "oracle", "--system", SYSTEM, "--formula", FORMULA,
        "--counterexample", TRACES, "--max-cause-size", "3", "--max-contingency-size", "2",
    )
    assert code == 0
    assert json.loads(out)["stats"] == {"evaluations": 5, "runs": 11}


#: the corpus draws whose JSON layout the byte-level test checks
LAYOUT_DRAWS = (11, 12, 27)
LAYOUT_OPERATIONS = {
    "check": ["check", "--prefix-bound", "2", "--period-bound", "2"],
    "explain": ["explain"],
    "explain --all": ["explain", "--all"],
    "candidates": ["candidates"],
    "oracle": ["oracle"],
}


def _instance_files(tmp_path, draw) -> tuple[str, str, str]:
    """System, formula and counterexample files of the running example
    (`draw` None) or of a corpus draw."""
    if draw is None:
        return SYSTEM, FORMULA, TRACES
    from genrand import random_violated_instance
    from hypercause.machine import traces_to_json

    machine, formula, cex = random_violated_instance(draw)
    files = (tmp_path / "system.json", tmp_path / "formula.hltl", tmp_path / "traces.json")
    files[0].write_text(json.dumps(machine.to_json()))
    files[1].write_text(str(formula))
    files[2].write_text(json.dumps(traces_to_json(cex.traces)))
    return tuple(map(str, files))


@pytest.mark.parametrize("draw", (None, *LAYOUT_DRAWS),
                         ids=["running-example", *(f"draw-{d}" for d in LAYOUT_DRAWS)])
@pytest.mark.parametrize("op", list(LAYOUT_OPERATIONS))
def test_json_output_is_the_standard_indented_layout(tmp_path, capsys, draw, op):
    # compares bytes, which a comparison of parsed reports would not see
    system, formula, traces = _instance_files(tmp_path, draw)
    command, *options = LAYOUT_OPERATIONS[op]
    given = [] if op == "check" else ["--counterexample", traces]
    code, out, _ = run_cli(capsys, command, "--system", system, "--formula", formula,
                           *given, *options)
    assert code in (0, 1, 3)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
