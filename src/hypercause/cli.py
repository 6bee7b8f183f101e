"""Command-line entry point.

Subcommands:
    check       search for a counterexample within lasso bounds
    explain     compute actual causes for a violation (auto-checks if no
                counterexample file is given)
    candidates  emit the over-approximated candidate events
    oracle      brute-force all causes, same report schema plus oracle:true
    validate    check machine/trace/formula files for well-formedness

Exit codes: 0 success with a result, 1 property holds / nothing to explain,
2 usage or validation error, 3 search bounds exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import causality, checker, oracle, reports, satcore
from .alternating import accepts_lasso, dump_automaton, ltl_to_alternating
from .errors import SizeGuardError, ValidationError
from .events import Counterexample
from .formulas import HyperFormula, negate_to_nnf
from .machine import load_machine, load_traces, traces_to_json
from .parser import parse_hyperltl
from .semantics import falsifies, zip_hyper

EXIT_RESULT = 0
EXIT_NOTHING = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3


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
        p.add_argument("--syntax", choices=["auto", "infix", "sexpr"], default="auto")
        p.add_argument("--counterexample", required=counterexample_required,
                       help="trace JSON file")
        p.add_argument("--format", choices=["json", "text"], default="json")

    check = sub.add_parser("check", help="bounded counterexample search")
    check.add_argument("--system", required=True)
    check.add_argument("--formula", required=True)
    check.add_argument("--syntax", choices=["auto", "infix", "sexpr"], default="auto")
    check.add_argument("--prefix-bound", type=int, default=4)
    check.add_argument("--period-bound", type=int, default=3)
    check.add_argument("--format", choices=["json", "text"], default="json")

    explain = sub.add_parser("explain", help="compute actual causes")
    common(explain, counterexample_required=False)
    explain.add_argument("--all", action="store_true", help="enumerate all minimal causes")
    explain.add_argument("--max-cause-size", type=int, default=None)
    explain.add_argument("--max-contingency-size", type=int, default=None)
    explain.add_argument("--prefix-bound", type=int, default=4)
    explain.add_argument("--period-bound", type=int, default=3)
    explain.add_argument("--dump-aa", action="store_true",
                         help="dump the violation automaton and its run tree")

    candidates = sub.add_parser("candidates", help="candidate cause events")
    common(candidates, counterexample_required=True)

    orc = sub.add_parser("oracle", help="brute-force ground truth")
    common(orc, counterexample_required=True)
    orc.add_argument("--max-cause-size", type=int, default=None)
    orc.add_argument("--max-contingency-size", type=int, default=None)

    validate = sub.add_parser("validate", help="validate input files")
    validate.add_argument("--system", required=True)
    validate.add_argument("--formula", default=None)
    validate.add_argument("--syntax", choices=["auto", "infix", "sexpr"], default="auto")
    validate.add_argument("--counterexample", default=None)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once: parsing keeps no state in it."""
    return build_parser()


def _load_formula(path: str, syntax: str) -> HyperFormula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hyperltl(fh.read(), syntax)


def _load_counterexample(path: str) -> Counterexample:
    return Counterexample(load_traces(path))


def _require_violation(machine, formula, cex) -> None:
    for name, trace in cex.traces.items():
        diag = machine.validate_trace(trace)
        if not diag:
            raise ValidationError(
                f"trace {name!r} is not a trace of the system: "
                f"{diag.message} (position {diag.position})"
            )
    if not falsifies(cex, formula):
        raise _NothingToExplain()


class _NothingToExplain(Exception):
    pass


def _emit(doc, fmt: str, text: str) -> None:
    if fmt == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_check(args) -> int:
    machine = load_machine(args.system)
    formula = _load_formula(args.formula, args.syntax)
    found = checker.find_counterexample(
        machine, formula, args.prefix_bound, args.period_bound
    )
    if found is None:
        _emit(
            {"format": 1, "result": "no-violation"},
            args.format,
            "no violation found within bounds",
        )
        return EXIT_NOTHING
    doc = traces_to_json(found.traces)
    _emit(doc, args.format, reports.render_traces(found, ansi=False))
    return EXIT_RESULT


def _obtain_counterexample(args, machine, formula) -> Counterexample:
    if args.counterexample:
        cex = _load_counterexample(args.counterexample)
        _require_violation(machine, formula, cex)
        return cex
    found = checker.find_counterexample(
        machine, formula, args.prefix_bound, args.period_bound
    )
    if found is None:
        raise _NothingToExplain()
    return found


def cmd_explain(args) -> int:
    machine = load_machine(args.system)
    formula = _load_formula(args.formula, args.syntax)
    cex = _obtain_counterexample(args, machine, formula)
    if args.dump_aa:
        body, zipped = zip_hyper(formula, cex)
        automaton = ltl_to_alternating(negate_to_nnf(body))
        sys.stdout.write(dump_automaton(automaton) + "\n")
        accepted, tree = accepts_lasso(automaton, zipped.lasso)
        if accepted:
            sys.stdout.write(tree.dump() + "\n")
    candidate = satcore.candidate_cause(machine, formula, cex)
    if args.all:
        report = causality.all_minimal_causes(
            machine, formula, cex, candidate,
            bound=args.max_cause_size,
            max_contingency_size=args.max_contingency_size,
        )
    else:
        report = causality.actual_cause(
            machine, formula, cex, candidate,
            max_contingency_size=args.max_contingency_size,
        )
    _emit(
        reports.report_to_json(report),
        args.format,
        reports.render_report(report, cex, ansi=None if args.format == "text" else False),
    )
    if report.status == "bounded-out":
        return EXIT_BOUNDS
    return EXIT_RESULT


def cmd_candidates(args) -> int:
    machine = load_machine(args.system)
    formula = _load_formula(args.formula, args.syntax)
    cex = _load_counterexample(args.counterexample)
    _require_violation(machine, formula, cex)
    candidate = satcore.candidate_cause(machine, formula, cex)
    text_lines = [", ".join(str(e) for e in candidate.events) or "(none)"]
    text_lines.append(reports.render_traces(cex, candidate.events, ansi=False))
    _emit(
        {"format": 1, "candidate": reports.candidate_to_json(candidate)},
        args.format,
        "\n".join(text_lines),
    )
    return EXIT_RESULT


def cmd_oracle(args) -> int:
    machine = load_machine(args.system)
    formula = _load_formula(args.formula, args.syntax)
    cex = _load_counterexample(args.counterexample)
    _require_violation(machine, formula, cex)
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
        reports.render_report(report, cex, ansi=False),
    )
    return EXIT_RESULT


def cmd_validate(args) -> int:
    machine = load_machine(args.system)
    messages = [f"system: {len(machine.states())} states, ok"]
    formula = None
    if args.formula:
        formula = _load_formula(args.formula, args.syntax)
        messages.append(f"formula: {len(formula.variables)} quantifier(s), ok")
    if args.counterexample:
        cex = _load_counterexample(args.counterexample)
        for name, trace in cex.traces.items():
            diag = machine.validate_trace(trace)
            if not diag:
                raise ValidationError(
                    f"trace {name!r}: {diag.message} (position {diag.position})"
                )
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
        return handlers[args.command](args)
    except _NothingToExplain:
        sys.stderr.write("no violation found within bounds; nothing to explain\n")
        return EXIT_NOTHING
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SizeGuardError as exc:
        sys.stderr.write(f"bounds exhausted: {exc}\n")
        return EXIT_BOUNDS


if __name__ == "__main__":
    sys.exit(main())
