"""Report JSON of the acceptance corpus, for comparing two versions of the code.

For each of the 500 instances of the acceptance corpus
(`genrand.random_violated_instance`, the draws `tests/test_acceptance.py`
uses), the script writes the machine, formula and counterexample to files
and runs ``check`` at prefix bound 2 and period bound 2 (the bounds the
corpus was drawn at), ``candidates``, and ``explain``, ``explain --all`` and
``oracle`` at cause bound 3 and contingency bound 2, all through
`hypercause.cli.main`.  ``explain`` runs with ``--dump-aa``, so the
alternating automaton of the negated body and its accepting run tree are in
its stderr.  It prints
one JSON line per instance and operation: the seed, the operation, the exit
code, stderr, and the report with its ``stats`` removed (they count work,
which a refactor may change).  A refactor that keeps the outputs gives
byte-identical output:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/report_snapshot.py > after.jsonl
    PYTHONHASHSEED=0 PYTHONPATH=<old checkout>/src python tests/report_snapshot.py > before.jsonl
    diff before.jsonl after.jsonl

``PYTHONHASHSEED=0`` fixes set iteration order, which can change the
search's order of work.  The script is not a pytest module; it takes
about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from genrand import random_violated_instance  # noqa: E402
from hypercause import cli  # noqa: E402
from hypercause.machine import traces_to_json  # noqa: E402

SUITE_SIZE = 500
BOUNDS = ["--max-cause-size", "3", "--max-contingency-size", "2"]
OPERATIONS = {
    "check": ["check", "--prefix-bound", "2", "--period-bound", "2"],
    "candidates": ["candidates"],
    "explain": ["explain", "--dump-aa", *BOUNDS],
    "explain --all": ["explain", "--all", *BOUNDS],
    "oracle": ["oracle", *BOUNDS],
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp) / name) for name in ("system", "formula", "counterexample")}
        seed = done = 0
        while done < SUITE_SIZE:
            seed += 1
            instance = random_violated_instance(seed)
            if instance is None:
                continue
            done += 1
            machine, formula, cex = instance
            Path(files["system"]).write_text(json.dumps(machine.to_json()))
            Path(files["formula"]).write_text(str(formula))
            Path(files["counterexample"]).write_text(json.dumps(traces_to_json(cex.traces)))
            paths = [f"--{name}={path}" for name, path in files.items()]
            for op, argv in OPERATIONS.items():
                # check searches for its own counterexample
                used = paths[:2] if op == "check" else paths
                code, out, err = _run([argv[0], *used, *argv[1:]])
                report = json.loads(out) if out else None
                if report is not None:
                    report.pop("stats", None)
                line = {"seed": seed, "op": op, "exit": code, "stderr": err, "report": report}
                print(json.dumps(line, sort_keys=True))


if __name__ == "__main__":
    main()
