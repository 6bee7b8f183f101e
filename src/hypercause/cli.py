"""Command-line entry point.

Subcommands:
    check       search for a counterexample within lasso bounds
    explain     compute actual causes for a violation (auto-checks if no
                counterexample file is given)
    candidates  emit the over-approximated candidate events
    oracle      brute-force all causes, same report schema plus oracle:true
    validate    check machine/trace/formula files for well-formedness

Exit codes: 0 success with a result, 1 property holds / nothing to explain,
2 usage or validation error, 3 search bounds exhausted.  A bound below its
least meaningful value (period 1, the others 0) is a usage error.  When
stdout is closed early (``| head``), the command ends quietly with exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable

from . import causality, checker, oracle, reports, satcore
from .counterfactual import InterventionTable, trace_automata
from .errors import NothingToExplain, SizeGuardError, ValidationError
from .events import Counterexample
from .formulas import HyperFormula, negate_to_nnf
from .machine import MooreMachine, load_machine, load_traces, read_text, traces_to_json
from .parser import parse_hyperltl
from .semantics import falsifies, zip_hyper

EXIT_RESULT = 0
EXIT_NOTHING = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3


def _at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


COUNT = _at_least(0)
PERIOD = _at_least(1)


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each command by its name."""
    parser = argparse.ArgumentParser(
        prog="hypercause",
        description="explain violations of universally quantified HyperLTL formulas "
        "on explicit-state Moore machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, counterexample_required):
        p.add_argument("--system", required=True, help="machine JSON file")
        p.add_argument("--formula", required=True, help="formula file")
        p.add_argument("--counterexample", required=counterexample_required,
                       help="trace JSON file")
        p.add_argument("--format", choices=["json", "text"], default="json")

    check = sub.add_parser("check", help="bounded counterexample search")
    check.add_argument("--system", required=True)
    check.add_argument("--formula", required=True)
    check.add_argument("--prefix-bound", type=COUNT, default=4)
    check.add_argument("--period-bound", type=PERIOD, default=3)
    check.add_argument("--format", choices=["json", "text"], default="json")

    explain = sub.add_parser("explain", help="compute actual causes")
    common(explain, counterexample_required=False)
    explain.add_argument("--all", action="store_true", help="enumerate all minimal causes")
    explain.add_argument("--max-cause-size", type=COUNT, default=None,
                         help="largest cause tried, in both modes; exit 3 "
                         "when this bound cut the search")
    explain.add_argument("--max-contingency-size", type=COUNT, default=None,
                         help="largest contingency tried per cause")
    explain.add_argument("--prefix-bound", type=COUNT, default=4)
    explain.add_argument("--period-bound", type=PERIOD, default=3)
    explain.add_argument("--dump-aa", action="store_true",
                         help="dump the violation automaton and its run tree to stderr")

    candidates = sub.add_parser("candidates", help="candidate cause events")
    common(candidates, counterexample_required=True)

    orc = sub.add_parser("oracle", help="brute-force ground truth")
    common(orc, counterexample_required=True)
    orc.add_argument("--max-cause-size", type=COUNT, default=None)
    orc.add_argument("--max-contingency-size", type=COUNT, default=None)

    validate = sub.add_parser("validate", help="validate input files")
    validate.add_argument("--system", required=True)
    validate.add_argument("--formula", default=None)
    validate.add_argument("--counterexample", default=None)
    return parser, sub.choices


@functools.cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers `main` uses, built once: parsing keeps no state in them."""
    return _build_parsers()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with less work when ``argv[0]``
    names a command: that command's parser reads the rest of `argv`
    directly, as the top-level parser would hand it over.  Everything else,
    and arguments the command's parser leaves over, goes to the top-level
    parser, so that its errors and help are printed as they were."""
    parser, commands = _shared_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _load_formula(path: str) -> HyperFormula:
    return parse_hyperltl(read_text(path))


_encode_string = json.encoder.encode_basestring_ascii


def _indented_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what a report
    holds: strings, ``true``, ``false``, ``null``, ints, floats, lists,
    tuples and dicts with string keys; anything else is a `TypeError`.
    `indent` is the line break and indentation of `value`'s own line.

    With an indent, CPython before 3.13 encodes in pure Python; this writer
    costs less.  It can go once the floor is Python 3.13, whose C encoder
    handles indents.
    """
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # also spells NaN and the infinities
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_indented_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_encode_string(key) + ": " + _indented_json(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc, fmt: str, text: Callable[[], str]) -> None:
    """Write `doc` as JSON, or the text `text()` renders; only the chosen
    format is built, and JSON goes out in one write."""
    if fmt == "json":
        sys.stdout.write(_indented_json(doc) + "\n")
    else:
        sys.stdout.write(text() + "\n")


def cmd_check(args) -> int:
    machine = load_machine(args.system)
    formula = _load_formula(args.formula)
    found = checker.find_counterexample(
        machine, formula, args.prefix_bound, args.period_bound
    )
    if found is None:
        _emit(
            {"format": 1, "result": "no-violation"},
            args.format,
            lambda: "no violation found within bounds",
        )
        return EXIT_NOTHING
    doc = traces_to_json(found.traces)
    _emit(doc, args.format, lambda: reports.render_traces(found))
    return EXIT_RESULT


def _load_instance(args) -> tuple[MooreMachine, HyperFormula, Counterexample]:
    """Machine, formula, and the given counterexample or the checker's.  The
    cause layer checks a given one (see `InterventionTable`)."""
    machine = load_machine(args.system)
    formula = _load_formula(args.formula)
    if args.counterexample:
        return machine, formula, Counterexample(load_traces(args.counterexample))
    found = checker.find_counterexample(machine, formula, args.prefix_bound, args.period_bound)
    if found is None:
        raise NothingToExplain("no violation found within bounds")
    return machine, formula, found


def cmd_explain(args) -> int:
    machine, formula, cex = _load_instance(args)
    search = causality.all_minimal_causes if args.all else causality.actual_cause
    report = search(
        machine, formula, cex,
        bound=args.max_cause_size, max_contingency_size=args.max_contingency_size,
    )
    if args.dump_aa:  # after the search, which checks the instance
        from .alternating import accepts_lasso, dump_automaton, ltl_to_alternating

        body, zipped = zip_hyper(formula, cex)
        automaton = ltl_to_alternating(negate_to_nnf(body))
        sys.stderr.write(dump_automaton(automaton) + "\n")
        accepted, tree = accepts_lasso(automaton, zipped.lasso)
        if accepted:
            sys.stderr.write(tree.dump() + "\n")
    _emit(
        reports.report_to_json(report),
        args.format,
        lambda: reports.render_report(report, cex),
    )
    if report.status == "bounded-out":
        return EXIT_BOUNDS
    return EXIT_RESULT


def cmd_candidates(args) -> int:
    machine, formula, cex = _load_instance(args)
    candidate = satcore.candidate_cause(machine, formula, cex)

    def text() -> str:
        listing = ", ".join(str(e) for e in candidate.events) or "(none)"
        return listing + "\n" + reports.render_traces(cex, candidate.events)

    _emit({"format": 1, "candidate": reports.candidate_to_json(candidate)}, args.format, text)
    return EXIT_RESULT


def cmd_oracle(args) -> int:
    machine, formula, cex = _load_instance(args)
    # one table checks the instance and serves the candidate analysis and
    # the enumeration
    table = InterventionTable(machine, formula, cex)
    table.require_violation()
    candidate = satcore.candidate_set(table)
    pairs = oracle.enumerate_causes(
        table, machine, cex,
        max_cause_size=args.max_cause_size,
        max_contingency_size=args.max_contingency_size,
    )
    entries = tuple(
        causality.CauseEntry(cause, witness, True) for cause, witness in pairs
    )
    stats = {"evaluations": table.evaluations, "runs": table.runs}
    report = causality.CauseReport(
        candidate, entries, "found" if entries else "no-actual-cause", stats
    )
    _emit(
        reports.report_to_json(report, oracle=True),
        args.format,
        lambda: reports.render_report(report, cex),
    )
    return EXIT_RESULT


def cmd_validate(args) -> int:
    machine = load_machine(args.system)
    messages = [f"system: {len(machine.states())} states, ok"]
    formula = None
    if args.formula:
        formula = _load_formula(args.formula)
        messages.append(f"formula: {len(formula.variables)} quantifier(s), ok")
    if args.counterexample:
        cex = Counterexample(load_traces(args.counterexample))
        trace_automata(machine, cex)  # raises on a trace that is not a run
        messages.append(f"traces: {', '.join(cex.names())}, ok")
        if formula is not None:
            if falsifies(cex, formula):
                messages.append("assignment falsifies the formula body")
            else:
                messages.append("warning: assignment satisfies the formula body")
    sys.stdout.write("\n".join(messages) + "\n")
    return EXIT_RESULT


def main(argv: list[str] | None = None) -> int:
    """Run the command `argv` names (by default ``sys.argv[1:]``) and return
    its exit code; argparse exits with 0 after help and 2 on a usage error.
    See `_parse_args` for how the arguments reach the command's parser."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    handlers = {
        "check": cmd_check,
        "explain": cmd_explain,
        "candidates": cmd_candidates,
        "oracle": cmd_oracle,
        "validate": cmd_validate,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # inside the try, so that a closed pipe is caught here
        return code
    except NothingToExplain as exc:
        sys.stderr.write(f"{exc}; nothing to explain\n")
        return EXIT_NOTHING
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SizeGuardError as exc:
        sys.stderr.write(f"bounds exhausted: {exc}\n")
        return EXIT_BOUNDS
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_NOTHING


if __name__ == "__main__":
    sys.exit(main())
