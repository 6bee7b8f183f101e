"""The test harness itself: the pytest configuration and the refactor gate."""

import json
import subprocess
import sys
from pathlib import Path

import report_snapshot

REPO = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    # under the repository's warning filters, a failing @given test must
    # fail on its own and leave the session running
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert result.returncode == 1


def test_report_snapshot_prints_one_line_per_instance_and_operation(monkeypatch, capsys):
    monkeypatch.setattr(report_snapshot, "SUITE_SIZE", 3)
    report_snapshot.main()
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    corpus, tail = lines[:22], lines[22:]
    assert all(set(line) == {"seed", "op", "exit", "stderr", "report"} for line in corpus)
    ops: dict[int, list[str]] = {}
    for line in corpus:
        ops.setdefault(line["seed"], []).append(line["op"])
    every = list(report_snapshot.OPERATIONS)
    assert len(every) == 6
    assert ops == {1: every, 2: ["check"], 3: ["check"], 4: every,
                   5: ["check"], 6: ["check"], 7: every}
    # the draws the corpus skips: no violation (exit 1), and the size guard (exit 3)
    assert [line["exit"] for line in corpus if len(ops[line["seed"]]) == 1] == [1, 1, 3, 3]
    assert not any("stats" in (line["report"] or {}) for line in corpus)
    # the error tail: every operation and validate on each broken case,
    # then each command line argparse refuses
    cases = len(report_snapshot.ERROR_CASES) + len(report_snapshot.FILE_ERROR_CASES)
    assert len(tail) == cases * 7 + len(report_snapshot.USAGE_ERROR_CASES) == 65
    assert all(set(line) == {"case", "op", "exit", "stderr", "report"} for line in tail)
    assert {line["exit"] for line in tail if line["op"] != "check"} == {0, 1, 2}
    # every front-end error is a usage error, with its message
    front_end = tail[len(report_snapshot.ERROR_CASES) * 7:]
    assert all(line["exit"] == 2 and "error" in line["stderr"] for line in front_end)


def test_report_snapshot_counters_total_the_integer_stats_per_operation(monkeypatch, capsys):
    monkeypatch.setattr(report_snapshot, "SUITE_SIZE", 3)
    report_snapshot.main(["--counters"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # one line per operation, in the order first run, the error tail's
    # `validate` last
    assert [line["op"] for line in lines] == [*report_snapshot.OPERATIONS, "validate"]
    totals = {line.pop("op"): line for line in lines}
    assert all(type(v) is int for total in totals.values() for v in total.values())
    assert totals["check"] == totals["candidates"] == totals["validate"] == {}
    # the text report's stats are not read
    assert totals["explain --all --format text"] == {}
    assert set(totals["oracle"]) == {"evaluations", "runs"}
    search = {"subsets_checked", "evaluations", "runs", "ruled_out", "set_checks"}
    for op in ("explain", "explain --all"):
        # the string stat `decided_by` as the number of reports per value:
        # one per corpus instance, the error tail's reports have no stats
        decided = {k: v for k, v in totals[op].items() if k.startswith("decided_by.")}
        assert set(totals[op]) - set(decided) == search
        assert set(decided) <= {f"decided_by.{v}" for v in ("precheck", "search", "closure")}
        assert sum(decided.values()) == report_snapshot.SUITE_SIZE
    assert totals["explain --all"]["subsets_checked"] > 0
