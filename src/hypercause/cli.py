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
from typing import Callable

from . import causality, checker, oracle, reports, satcore
from .alternating import accepts_lasso, dump_automaton, ltl_to_alternating
from .errors import SizeGuardError, ValidationError
from .events import Counterexample
from .formulas import HyperFormula, negate_to_nnf
from .machine import MooreMachine, load_machine, load_traces, traces_to_json
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
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once: parsing keeps no state in it."""
    return build_parser()


def _load_formula(path: str) -> HyperFormula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hyperltl(fh.read())


def _load_counterexample(path: str, machine) -> Counterexample:
    """The traces in `path`, each checked to be a trace of `machine`."""
    cex = Counterexample(load_traces(path))
    for name, trace in cex.traces.items():
        diag = machine.validate_trace(trace)
        if not diag:
            raise ValidationError(
                f"trace {name!r} is not a trace of the system: "
                f"{diag.message} (position {diag.position})"
            )
    return cex


class _NothingToExplain(Exception):
    pass


def _emit(doc, fmt: str, text: Callable[[], str]) -> None:
    """Write `doc` as JSON, or the text `text()` renders; only the chosen
    format is built, and JSON goes out in one write."""
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
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
    _emit(doc, args.format, lambda: reports.render_traces(found, ansi=False))
    return EXIT_RESULT


def _load_instance(args) -> tuple[MooreMachine, HyperFormula, Counterexample]:
    """Machine, formula, and the given counterexample or the checker's, which
    must violate the formula."""
    machine = load_machine(args.system)
    formula = _load_formula(args.formula)
    if args.counterexample:
        cex = _load_counterexample(args.counterexample, machine)
        found = cex if falsifies(cex, formula) else None
    else:
        found = checker.find_counterexample(machine, formula, args.prefix_bound, args.period_bound)
    if found is None:
        raise _NothingToExplain()
    return machine, formula, found


def cmd_explain(args) -> int:
    machine, formula, cex = _load_instance(args)
    if args.dump_aa:
        body, zipped = zip_hyper(formula, cex)
        automaton = ltl_to_alternating(negate_to_nnf(body))
        sys.stderr.write(dump_automaton(automaton) + "\n")
        accepted, tree = accepts_lasso(automaton, zipped.lasso)
        if accepted:
            sys.stderr.write(tree.dump() + "\n")
    search = causality.all_minimal_causes if args.all else causality.actual_cause
    report = search(
        machine, formula, cex,
        bound=args.max_cause_size, max_contingency_size=args.max_contingency_size,
    )
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
        return listing + "\n" + reports.render_traces(cex, candidate.events, ansi=False)

    _emit({"format": 1, "candidate": reports.candidate_to_json(candidate)}, args.format, text)
    return EXIT_RESULT


def cmd_oracle(args) -> int:
    machine, formula, cex = _load_instance(args)
    candidate = satcore.candidate_cause(machine, formula, cex)
    pairs = oracle.brute_force_causes(
        machine, formula, cex,
        max_cause_size=args.max_cause_size,
        max_contingency_size=args.max_contingency_size,
    )
    entries = tuple(
        causality.CauseEntry(cause, witness, True) for cause, witness in pairs
    )
    report = causality.CauseReport(
        candidate, entries, "found" if entries else "no-actual-cause", {}
    )
    _emit(
        reports.report_to_json(report, oracle=True),
        args.format,
        lambda: reports.render_report(report, cex, ansi=False),
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
        cex = _load_counterexample(args.counterexample, machine)
        messages.append(f"traces: {', '.join(cex.names())}, ok")
        if formula is not None:
            if falsifies(cex, formula):
                messages.append("assignment falsifies the formula body")
            else:
                messages.append("warning: assignment satisfies the formula body")
    sys.stdout.write("\n".join(messages) + "\n")
    return EXIT_RESULT


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
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
    except _NothingToExplain:
        sys.stderr.write("no violation found within bounds; nothing to explain\n")
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
