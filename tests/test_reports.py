import json

from hypercause.causality import CauseEntry, CauseReport
from hypercause.events import Counterexample, Event
from hypercause.lasso import Lasso
from hypercause.reports import (
    candidate_to_json,
    event_to_json,
    render_report,
    render_traces,
    report_to_json,
)
from hypercause.satcore import CandidateSet

from conftest import leaky_cex


def event_from_json(data: dict) -> Event:
    return Event(
        data["trace"], data["position"], data["prop"], data["polarity"] == "positive"
    )


def test_event_json_roundtrip():
    e = Event("t2", 2, "lo", False)
    assert event_from_json(event_to_json(e)) == e
    assert event_to_json(e)["polarity"] == "negative"


def sample_report():
    cause = (Event("t1", 0, "hi", False),)
    other = (Event("t2", 0, "hi", True),)
    contingency = (Event("t2", 2, "lo", True),)
    candidate = CandidateSet(cause + other, ((("t1", 0), cause),), ())
    return CauseReport(
        candidate,
        (CauseEntry(cause, (), True), CauseEntry(other, contingency, True)),
        "found",
        {"subsets_checked": 3, "time_ms": 1.25},
    )


def test_report_json_schema_roundtrip():
    doc = report_to_json(sample_report())
    text = json.dumps(doc, sort_keys=True)
    again = json.loads(text)
    assert again["format"] == 1
    assert again["status"] == "found"
    assert len(again["causes"]) == 2
    assert again["causes"][1]["contingency"][0]["prop"] == "lo"
    assert all(
        event_from_json(e) for c in again["causes"] for e in c["events"]
    )
    assert report_to_json(sample_report(), oracle=True)["oracle"] is True


def test_candidate_json_lists_rerouted_events():
    rerouted = (Event("t2", 1, "hi", True),)
    doc = candidate_to_json(CandidateSet(rerouted, (), (), rerouted))
    assert [event_from_json(e) for e in doc["rerouted"]] == list(rerouted)
    assert report_to_json(sample_report())["candidate"]["rerouted"] == []


def test_render_traces_plain_markers():
    text = render_traces(
        leaky_cex(),
        cause=(Event("t2", 0, "hi", True),),
        contingency=(Event("t2", 2, "lo", True),),
        ansi=False,
    )
    assert "hi[*]" in text
    assert "lo[~]" in text
    assert "t1:" in text and "t2:" in text


def test_render_traces_marks_props_that_never_hold_on_the_trace():
    # the shape of acceptance draw 224: neither i0 nor o0 holds anywhere on
    # t1, and the cause flips i0 under a reset of o0
    cex = Counterexample({"t1": Lasso([], [frozenset({"o1"})])})
    text = render_traces(
        cex, cause=(Event("t1", 0, "i0", False),), contingency=(Event("t1", 0, "o0", False),),
        ansi=False,
    )
    assert text == "t1: ({!i0[*] !o0[~] o1})^w"


def test_render_traces_ansi():
    text = render_traces(leaky_cex(), cause=(Event("t2", 0, "hi", True),), ansi=True)
    assert "\x1b[1;31m" in text and "\x1b[0m" in text


def test_render_report_mentions_status_and_stats():
    text = render_report(sample_report(), leaky_cex(), ansi=False)
    assert "status: found" in text
    assert "cause 1" in text and "cause 2" in text
    assert "contingency" in text
    assert "subsets_checked=3" in text
