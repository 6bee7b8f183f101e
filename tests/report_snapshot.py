"""Report JSON of the acceptance corpus, for comparing two versions of the code.

For each of the 500 instances of the acceptance corpus
(`genrand.random_violated_instance`, the draws `tests/test_acceptance.py`
uses), the script writes the machine, formula and counterexample to files
and runs ``check`` at prefix bound 2 and period bound 2 (the bounds the
corpus was drawn at), ``candidates``, and ``explain``, ``explain --all``,
``explain --all --format text`` and ``oracle`` at cause bound 3 and
contingency bound 2, all through `hypercause.cli.main`.  Each draw in
between that the corpus skips (no violation within the bounds, refused by
the size guard, or traces over the corpus caps) gets its ``check`` line
only, so the checker's "no violation" answers and guard refusals are
compared too.  ``explain`` runs with ``--dump-aa``, so the alternating
automaton of the negated body and its accepting run tree are in its
stderr.  It prints one JSON line per instance and operation: the seed, the
operation, the exit code, stderr, and the report with its ``stats``
removed (they count work, which a refactor may change; the text report
loses its ``stats:`` line).  A fixed tail of error paths follows: every
operation, and ``validate``, on the running example with a trace that is
not a run of the machine, with an assignment that satisfies the formula
(``t1`` twice), and with one trace for the two-variable formula; then
every operation with a front-end error in its input files (a guard with an
unexpected character, an unclosed ``(`` or a non-input name, a formula
with an unexpected character, files with ``\\r\\n`` line ends and an error
after them), and command lines argparse refuses (an unknown command, an
unrecognized option), whose exit code is the one ``SystemExit`` carries.
These lines carry the case's name instead of a seed, and text output as
it is.
A refactor that keeps the outputs gives byte-identical output:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/report_snapshot.py > after.jsonl
    PYTHONHASHSEED=0 PYTHONPATH=<old checkout>/src python tests/report_snapshot.py > before.jsonl
    diff before.jsonl after.jsonl

``PYTHONHASHSEED=0`` fixes set iteration order, which can change the
search's order of work.  The script is not a pytest module; it takes
about 10 s on a 2-vCPU host.

With ``--counters`` it prints, in place of those lines, one JSON line per
operation in the order first run: the totals over every line of each
integer ``stats`` field but ``time_ms`` (``evaluations``, ``runs``,
``subsets_checked``, ...), and for each string ``stats`` field the number
of lines per value (``"decided_by.precheck": 104``).  A change that claims
to keep the work the same compares them the same way:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/report_snapshot.py --counters
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from genrand import random_draw, random_violated_instance  # noqa: E402
from hypercause import cli  # noqa: E402
from hypercause.machine import traces_to_json  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SUITE_SIZE = 500
BOUNDS = ["--max-cause-size", "3", "--max-contingency-size", "2"]
OPERATIONS = {
    "check": ["check", "--prefix-bound", "2", "--period-bound", "2"],
    "candidates": ["candidates"],
    "explain": ["explain", "--dump-aa", *BOUNDS],
    "explain --all": ["explain", "--all", *BOUNDS],
    "explain --all --format text": ["explain", "--all", "--format", "text", *BOUNDS],
    "oracle": ["oracle", *BOUNDS],
}
RUNNING_EXAMPLE = [
    f"--system={ROOT / 'benchmarks' / 'running_example.machine.json'}",
    f"--formula={ROOT / 'benchmarks' / 'formulas' / 'running_example.hltl'}",
]
T1 = {"prefix": [[], ["lo"]], "period": [["ho", "lo"]]}
ERROR_CASES = {
    "trace not a run": {"t1": T1, "t2": {"prefix": [["ho"]], "period": [["ho", "lo"]]}},
    "satisfied assignment": {"t1": T1, "t2": T1},
    "one trace for two variables": {"t1": T1},
}
RUNNING_MACHINE = (ROOT / "benchmarks" / "running_example.machine.json").read_text()
RUNNING_FORMULA = "forall p1 p2. G (lo[p1] <-> lo[p2])"
# the machine text and formula text of each front-end error case
FILE_ERROR_CASES = {
    "guard with an unexpected character":
        (RUNNING_MACHINE.replace('"guard": "!hi"', '"guard": "!hi $"'), RUNNING_FORMULA),
    "guard with an unclosed parenthesis":
        (RUNNING_MACHINE.replace('"guard": "!hi"', '"guard": "!(hi"'), RUNNING_FORMULA),
    "guard with a non-input name on two states":
        (RUNNING_MACHINE.replace('"guard": "hi"', '"guard": "hi | zz"'), RUNNING_FORMULA),
    "formula with an unexpected character": (RUNNING_MACHINE, RUNNING_FORMULA + " $"),
    "formula error after a CRLF line end":
        (RUNNING_MACHINE, RUNNING_FORMULA.replace(". ", ".\r\n") + " $"),
    "machine JSON error after CRLF line ends":
        (RUNNING_MACHINE.replace("\n", "\r\n").replace('"s0", "label": []', '"s0", "label": ]'),
         RUNNING_FORMULA),
}
USAGE_ERROR_CASES = {
    "unknown command": ["nope", *RUNNING_EXAMPLE],
    "unrecognized option": ["check", *RUNNING_EXAMPLE, "--bogus"],
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report(out: str):
    """The JSON report without its ``stats``, text output without its
    ``stats:`` line, or None; and the JSON ``stats``."""
    if not out:
        return None, {}
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        kept = [line for line in out.splitlines(True) if not line.startswith("stats: ")]
        return "".join(kept), {}
    return report, report.pop("stats", {})


def _operations(paths: list[str], operations: dict[str, list[str]]):
    """(line, stats) per operation."""
    for op, argv in operations.items():
        # check searches for its own counterexample
        used = paths[:2] if op == "check" else paths
        code, out, err = _run([argv[0], *used, *argv[1:]])
        report, stats = _report(out)
        yield {"op": op, "exit": code, "stderr": err, "report": report}, stats


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counters", action="store_true",
                        help="print per operation the totals of the integer stats but "
                             "time_ms, and the lines per value of each string stat")
    counters = parser.parse_args(argv or []).counters
    totals: dict[str, dict[str, int]] = {}

    def emit(key: dict, line: dict, stats: dict) -> None:
        if not counters:
            print(json.dumps({**key, **line}, sort_keys=True))
            return
        total = totals.setdefault(line["op"], {})
        for field, value in stats.items():
            if type(value) is str:  # one line with this value
                field, value = f"{field}.{value}", 1
            if type(value) is int and field != "time_ms":
                total[field] = total.get(field, 0) + value

    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp) / name) for name in ("system", "formula", "counterexample")}
        paths = [f"--{name}={path}" for name, path in files.items()]
        seed = done = 0
        while done < SUITE_SIZE:
            seed += 1
            instance = random_violated_instance(seed)
            if instance is None:  # the draw's check line only
                machine, formula = random_draw(seed)
                operations = {"check": OPERATIONS["check"]}
            else:
                done += 1
                machine, formula, cex = instance
                Path(files["counterexample"]).write_text(json.dumps(traces_to_json(cex.traces)))
                operations = OPERATIONS
            Path(files["system"]).write_text(json.dumps(machine.to_json()))
            Path(files["formula"]).write_text(str(formula))
            for line, stats in _operations(paths, operations):
                emit({"seed": seed}, line, stats)
        traces = files["counterexample"]
        for case, named in ERROR_CASES.items():
            Path(traces).write_text(json.dumps({"format": 1, "traces": named}))
            paths = [*RUNNING_EXAMPLE, f"--counterexample={traces}"]
            for line, stats in _operations(paths, {**OPERATIONS, "validate": ["validate"]}):
                emit({"case": case}, line, stats)
        paths = [f"--{name}={path}" for name, path in files.items()]
        Path(traces).write_text((ROOT / "benchmarks" / "running_example.traces.json").read_text())
        for case, (machine_text, formula_text) in FILE_ERROR_CASES.items():
            # bytes, so that the line ends stay as written
            Path(files["system"]).write_bytes(machine_text.encode())
            Path(files["formula"]).write_bytes(formula_text.encode())
            for line, stats in _operations(paths, {**OPERATIONS, "validate": ["validate"]}):
                emit({"case": case}, line, stats)
        for case, argv in USAGE_ERROR_CASES.items():
            code, out, err = _run(argv)
            if not counters:  # no stats to count, and "nope" is no operation
                emit({"case": case}, {"op": argv[0], "exit": code, "stderr": err,
                                      "report": _report(out)[0]}, {})
    for op, total in totals.items():
        print(json.dumps({"op": op, **total}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
