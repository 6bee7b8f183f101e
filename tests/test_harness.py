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
    assert len(lines) == 3 * len(report_snapshot.OPERATIONS) == 15
    assert all(set(line) == {"seed", "op", "exit", "stderr", "report"} for line in lines)
    assert not any("stats" in (line["report"] or {}) for line in lines)
