"""Report serialization: stable JSON and highlighted text rendering."""

from __future__ import annotations

import sys

from .causality import CauseReport
from .events import Counterexample, Event
from .satcore import CandidateSet

ANSI_CAUSE = "\x1b[1;31m"  # bold red
ANSI_CONTINGENCY = "\x1b[4;36m"  # underlined cyan
ANSI_RESET = "\x1b[0m"


def event_to_json(event: Event) -> dict:
    return {
        "trace": event.trace,
        "position": event.position,
        "prop": event.prop,
        "polarity": "positive" if event.positive else "negative",
    }


def candidate_to_json(candidate: CandidateSet) -> dict:
    return {
        "events": [event_to_json(e) for e in candidate.events],
        "per_step": [
            {"trace": trace, "step": step, "events": [event_to_json(e) for e in events]}
            for (trace, step), events in candidate.per_step
        ],
        "formula_support": [event_to_json(e) for e in candidate.formula_support],
        "rerouted": [event_to_json(e) for e in candidate.rerouted],
    }


def report_to_json(report: CauseReport, oracle: bool = False) -> dict:
    doc = {
        "format": 1,
        "candidate": candidate_to_json(report.candidate),
        "causes": [
            {
                "events": [event_to_json(e) for e in entry.cause],
                "contingency": [event_to_json(e) for e in entry.contingency],
                "verified": entry.verified,
            }
            for entry in report.causes
        ],
        "status": report.status,
        "stats": dict(report.stats),
    }
    if oracle:
        doc["oracle"] = True
    return doc


def _mark(prop: str, style: str, color: str, ansi: bool) -> str:
    if ansi:
        return f"{color}{prop}{ANSI_RESET}"
    return f"{prop}{style}"


def render_traces(
    cex: Counterexample,
    cause: tuple[Event, ...] = (),
    contingency: tuple[Event, ...] = (),
    ansi: bool | None = None,
) -> str:
    """Trace listing with cause events highlighted and contingency events
    underlined (ANSI) or marked with [*] and [~] (plain)."""
    if ansi is None:
        ansi = sys.stdout.isatty()
    cause_spots = {(e.trace, e.position, e.prop) for e in cause}
    cont_spots = {(e.trace, e.position, e.prop) for e in contingency}
    lines = []
    for name, trace in cex.traces.items():
        # a marked event's proposition may never hold on the trace
        props = sorted(trace.alphabet() | {e.prop for e in cause + contingency if e.trace == name})
        cells = []
        for pos in range(len(trace)):
            looped = "(" if pos == trace.loop_start else ""
            shown = []
            present = trace.at(pos)
            for prop in props:
                text = prop if prop in present else f"!{prop}"
                if (name, pos, prop) in cause_spots:
                    text = _mark(text, "[*]", ANSI_CAUSE, ansi)
                elif (name, pos, prop) in cont_spots:
                    text = _mark(text, "[~]", ANSI_CONTINGENCY, ansi)
                if prop in present or (name, pos, prop) in cause_spots | cont_spots:
                    shown.append(text)
            cells.append(looped + "{" + " ".join(shown) + "}")
        lines.append(f"{name}: " + " ".join(cells) + ")^w")
    return "\n".join(lines)


def render_report(report: CauseReport, cex: Counterexample, ansi: bool | None = None) -> str:
    listing = ", ".join(str(e) for e in report.candidate.events) or "(none)"
    lines = [f"status: {report.status}", f"candidate events: {listing}"]
    for i, entry in enumerate(report.causes, 1):
        cause_text = ", ".join(str(e) for e in entry.cause)
        lines.append(f"cause {i}: {cause_text}")
        if entry.contingency:
            lines.append(
                f"  contingency: {', '.join(str(e) for e in entry.contingency)}"
            )
        lines.append(f"  verified: {'yes' if entry.verified else 'no'}")
        lines.append(render_traces(cex, entry.cause, entry.contingency, ansi))
    if not report.causes:
        lines.append(render_traces(cex, ansi=ansi))
    stats = ", ".join(f"{k}={v}" for k, v in report.stats.items())
    if stats:
        lines.append(f"stats: {stats}")
    return "\n".join(lines)
