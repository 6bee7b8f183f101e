"""Benchmark of the hypercause command line, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Each instance of a workload goes through what a user runs: ``check``,
then ``explain``, ``explain --all`` and ``oracle`` on the violation, all
through ``hypercause.cli.main`` in this process with output captured.  One
client runs one operation at a time (a closed loop, one thread).  Every
answer is checked against the brute-force oracle.  A run visits the
workload's whole pool in an order set by ``--seed``, pass after pass,
until ``--seconds`` have elapsed, so every run measures the same work.

End-to-end metrics (``--trace 0``):

* ``setup_s``: importing the package and building the workload's input
  files, timed several times over the run; the median.
* ``<operation>.gmean_ms``: the geometric mean over the pool's instances
  of each instance's typical time for that operation in the run: the mean
  of its times in the run's passes without the fastest and slowest tenth.
  On a shared machine the speed of a core switches between states within
  seconds; a mean over the whole run follows the share of time in each
  state smoothly, where the fastest time depends on whether the run caught
  a fast spell at all.  The geometric mean weighs every instance alike and
  moves smoothly; a median jumps between neighbouring instances where
  their times are far apart.  Operations slower than ``HEAVY_S`` are timed
  ``HEAVY_SAMPLES`` times per run rather than in every pass, which leaves
  time for more passes over the short ones.
* ``instances_per_s``: instances through all four operations per second
  of operation time, each operation at its typical time in the run; on
  ``corpus`` the time includes ``check`` on draws that yield no instance.
* ``peak_rss_mb``: the process's peak resident set size.

With ``--trace 1`` the run repeats the pool for ``TRACE_UNTRACED_SHARE``
of the time, then runs as many passes again with a span around each
module's entry points (see ``tracing.py``) and prints the per-layer metrics per pass, with the traced
wall time over the untraced one as the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import EVAL_CALLERS, TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent

OPS = ("check", "explain", "explain_all", "oracle")

#: string hashing seed the run uses.  The search order of the checker and
#: the cause search follows the iteration order of sets of proposition
#: names, so with a random hash seed the same instance does different work
#: in different processes; a fixed seed makes every run do the same work.
HASH_SEED = "0"

#: per-operation deadline in seconds.  The default explain has no cause
#: bound and walks every subset of the candidate set, so it gets a short
#: deadline; the others are bounded searches.  Each value sits far above the
#: operation's times on these workloads (at most 0.8 s for explain, 3.5 s
#: for check), so a call that misses it misses on every run.
DEADLINES = {"check": 20.0, "explain": 5.0, "explain_all": 20.0, "oracle": 20.0}

STATUSES = {
    "check": ("found", "no-violation", "bounded-out"),
    "explain": ("found", "no-actual-cause", "bounded-out"),
    "explain_all": ("found", "no-actual-cause", "bounded-out"),
    "oracle": ("found", "no-actual-cause", "bounded-out"),
}

#: cause and contingency bounds given to explain, explain --all and oracle
CAUSE_BOUND = 3
CONTINGENCY_BOUND = 2

#: set-ups timed per run: one before measuring, the rest spread over the
#: run between instances, so that they do not all fall in one slow or fast
#: phase of a shared machine
SETUP_SAMPLES = 15

#: seconds above which an operation is timed HEAVY_SAMPLES times per run,
#: not every pass
HEAVY_S = 0.25
HEAVY_SAMPLES = 6

#: share of a traced run's time spent on untraced passes; the traced passes
#: that follow take longer by the tracing overhead, so the run as a whole
#: takes about its time
TRACE_UNTRACED_SHARE = 0.4

END_TO_END = (
    [("setup_s", "s")]
    + [(f"{op}.gmean_ms", "ms") for op in OPS]
    + [("instances_per_s", "1/s"), ("peak_rss_mb", "MB")]
)

#: counters taken from the reports' stats, as <operation>.<stat>
REPORT_STATS = ("explain.subsets_checked", "explain_all.subsets_checked",
                "explain_all.evaluations")

PER_LAYER = (
    [(f"{target}.{stat}", unit) for target in TARGETS
     for stat, unit in (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))]
    + [("semantics.eval_hyper.distinct_worlds", "count"),
       ("semantics.eval_hyper.distinct_ratio", "ratio")]
    + [(f"semantics.eval_hyper.under_{layer}", "count") for layer in EVAL_CALLERS]
    + [(name, "count") for name in REPORT_STATS]
    + [(f"{op}.{kind}", "count") for op in OPS
       for kind in [f"status.{status}" for status in STATUSES[op]] + ["deadline_misses"]]
    + [("wrong_answers", "count"), ("trace.overhead_ratio", "ratio"),
       ("trace.absent_targets", "count")]
)


class Deadline(BaseException):
    """Raised in the main thread when an operation overruns its deadline."""


@dataclass
class Outcome:
    op: str
    seconds: float
    status: str  # an entry of STATUSES[op], "deadline" or "error"
    doc: dict | None = None
    detail: str = ""


@dataclass
class Record:
    latency: dict = field(default_factory=lambda: {op: {} for op in OPS})  # draw -> [s]
    status: dict = field(default_factory=lambda: {op: Counter() for op in OPS})
    stats: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)  # (draw, op, reason)
    errors: list = field(default_factory=list)  # (draw, op, detail)

    def typical(self, op: str) -> list[float]:
        """Each instance's time for `op` in this run, as a trimmed mean."""
        out = []
        for times in self.latency[op].values():
            cut = len(times) // 10
            out.append(statistics.fmean(sorted(times)[cut:len(times) - cut]))
        return out

    def add(self, draw, outcome: Outcome) -> None:
        self.attempted += 1
        self.latency[outcome.op].setdefault(draw, []).append(outcome.seconds)
        self.status[outcome.op][outcome.status] += 1
        if outcome.status in ("deadline", "error"):
            self.failed += 1
        if outcome.status == "error":
            self.errors.append((draw, outcome.op, outcome.detail))


class Runner:
    """Runs the operations of one workload and checks their answers."""

    def __init__(self, cli, workload, pool, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.pool = pool
        self.workdir = workdir
        self.found: dict = {}  # corpus draw -> trace file check printed, or None
        self.same_passes = False
        self.progress = 0.0  # share of the run's time elapsed
        self.tracer = None
        self._armed = False  # an operation is running under its deadline
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise Deadline()

    def op(self, op: str, argv: list[str]) -> Outcome:
        out = io.StringIO()
        code, status, detail = None, None, ""
        signal.setitimer(signal.ITIMER_REAL, DEADLINES[op])
        started = time.perf_counter()
        try:
            self._armed = True
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
            self._armed = False
        except Deadline:
            status = "deadline"
        except Exception as exc:  # the program crashed: record it, keep measuring
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.end_operation()
        if status is not None:
            return Outcome(op, elapsed, status, detail=detail)
        return _classify(op, code, out.getvalue(), elapsed)

    def run_instance(self, inst, record: Record) -> None:
        files = ["--system", inst.system_file, "--formula", inst.formula_file]
        if self._due(record, inst.draw, "check"):
            prefix, period = self.workload.check_bounds
            check = self.op("check", ["check", *files, "--prefix-bound", str(prefix),
                                      "--period-bound", str(period)])
            record.add(inst.draw, check)
            if check.status == "found" and not _violates(inst, check.doc):
                record.failed += 1
                record.wrong.append((inst.draw, "check", "printed traces do not violate the formula"))
            if inst.traces_file is None:  # corpus: the instance is the violation check found
                self.found[inst.draw] = None
                if check.status == "found" and self.workload.accept(check.doc, inst.machine):
                    path = self.workdir / f"draw-{inst.draw}.traces.json"
                    path.write_text(json.dumps(check.doc))
                    self.found[inst.draw] = str(path)
        traces = inst.traces_file or self.found.get(inst.draw)
        if traces is None:
            return
        bounds = ["--counterexample", traces, "--max-cause-size", str(CAUSE_BOUND),
                  "--max-contingency-size", str(CONTINGENCY_BOUND)]
        argvs = {
            "explain": ["explain", *files, *bounds],
            "explain_all": ["explain", *files, *bounds, "--all"],
            "oracle": ["oracle", *files, *bounds],
        }
        docs = dict.fromkeys(argvs)
        for op, argv in argvs.items():
            if self._due(record, inst.draw, op):
                outcome = self.op(op, argv)
                record.add(inst.draw, outcome)
                docs[op] = outcome.doc
        for name in REPORT_STATS:
            op, stat = name.split(".")
            if docs[op] is not None:
                record.stats[name] += docs[op]["stats"].get(stat, 0)
        for op, reason in _judge(docs):
            record.failed += 1
            record.wrong.append((inst.draw, op, reason))

    def _due(self, record: Record, draw, op: str) -> bool:
        """Whether `op` on `draw` runs in this pass.

        Unless every pass must repeat the same work, an operation never
        faster than HEAVY_S is timed HEAVY_SAMPLES times, spread evenly
        over the run: each sample spans several load phases of the machine
        by itself, and skipping it in the other passes leaves time for more
        passes over the short operations.
        """
        times = record.latency[op].get(draw, ())
        if self.same_passes or not times or min(times) < HEAVY_S:
            return True
        return len(times) < min(HEAVY_SAMPLES, 1 + int(HEAVY_SAMPLES * self.progress))

    def passes(self, min_seconds: float, record: Record, count: int | None = None,
               between=None, partial: bool = False):
        """Whole passes over the pool until `min_seconds` (or `count` passes).

        With `partial`, the run stops at the first instance after
        `min_seconds` once a whole pass is done, so that a long pass does
        not overrun the time.  Returns the whole passes done and the time.
        `between(elapsed)` runs after each instance.
        """
        done = 0
        started = time.perf_counter()
        while True:
            for inst in self.pool:
                elapsed = time.perf_counter() - started
                if partial and done and elapsed >= min_seconds:
                    return done, elapsed
                if count is None:
                    self.progress = elapsed / min_seconds
                self.run_instance(inst, record)
                if between is not None:
                    between(time.perf_counter() - started)
            done += 1
            elapsed = time.perf_counter() - started
            if (count is not None and done >= count) or (count is None and elapsed >= min_seconds):
                return done, elapsed


def _classify(op: str, code: int, text: str, seconds: float) -> Outcome:
    """Status of a finished operation from its exit code and output."""
    try:
        if op == "check":
            by_code = {0: "found", 1: "no-violation", 3: "bounded-out"}
            if code in by_code:
                doc = json.loads(text) if code == 0 else None
                return Outcome(op, seconds, by_code[code], doc)
        elif op == "oracle" and code == 3:  # size guard: no report is printed
            return Outcome(op, seconds, "bounded-out")
        elif code in (0, 3):
            doc = json.loads(text)
            if doc["status"] in STATUSES[op]:
                return Outcome(op, seconds, doc["status"], doc)
    except (json.JSONDecodeError, KeyError) as exc:
        return Outcome(op, seconds, "error", detail=f"unreadable output: {exc}")
    return Outcome(op, seconds, "error", detail=f"exit code {code}: {text[:200]!r}")


def _events(items) -> tuple:
    return tuple(sorted((e["trace"], e["position"], e["prop"], e["polarity"]) for e in items))


def _judge(docs: dict) -> list[tuple[str, str]]:
    """Wrong answers among explain and explain --all, by the oracle's report."""
    explain, every, oracle = docs["explain"], docs["explain_all"], docs["oracle"]
    wrong = {}
    for op, doc in (("explain", explain), ("explain_all", every)):
        if doc is not None and not all(c["verified"] for c in doc["causes"]):
            wrong[op] = "a reported cause is not verified"
    if oracle is None:
        return list(wrong.items())
    pairs = {(_events(c["events"]), _events(c["contingency"])) for c in oracle["causes"]}
    causes = {cause for cause, _ in pairs}
    if every is not None:
        found = {(_events(c["events"]), _events(c["contingency"])) for c in every["causes"]}
        if found != pairs:
            wrong.setdefault("explain_all", "causes differ from the oracle's")
    if explain is not None:
        if explain["status"] == "no-actual-cause" and causes:
            wrong.setdefault("explain", "no-actual-cause where the oracle found a cause")
        for c in explain["causes"]:
            cause = _events(c["events"])
            if len(cause) <= CAUSE_BOUND:
                ok = cause in causes
            else:  # beyond the oracle's bound: only minimality can be checked
                ok = not any(set(known) <= set(cause) for known in causes)
            if not ok:
                wrong.setdefault("explain", "cause is not among the oracle's causes")
    return list(wrong.items())


def _violates(inst, doc) -> bool:
    """Whether a trace file check printed violates the formula on the machine.

    Uses functions the tracer leaves alone, so the check adds no spans.
    """
    from hypercause.events import Counterexample
    from hypercause.machine import load_traces
    from hypercause.semantics import eval_ltl, zip_hyper

    cex = Counterexample(load_traces(doc))
    if not all(inst.machine.validate_trace(t) for t in cex.lassos()):
        return False
    body, zipped = zip_hyper(inst.formula, cex)
    return not eval_ltl(zipped.lasso, body)


def _ours(module: str) -> bool:
    return module in ("hypercause", "workloads") or module.startswith("hypercause.")


def set_up(workload_name: str, workdir: Path):
    """Import the package afresh and build the workload's input files."""
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    import hypercause.cli
    import workloads

    src = (ROOT / "src" / "hypercause").resolve()
    if Path(hypercause.__file__).resolve().parent != src:
        raise SystemExit(f"hypercause was imported from {hypercause.__file__}, not {src}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[workload_name]
    pool = workload.build(ROOT, workdir)
    return hypercause.cli, workload, pool


def time_set_up(workload_name: str, workdir: Path) -> float:
    """Time one more set-up, then restore the modules the run is using."""
    kept = {name: module for name, module in sys.modules.items() if _ours(name)}
    started = time.perf_counter()
    set_up(workload_name, workdir)
    elapsed = time.perf_counter() - started
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    sys.modules.update(kept)
    return elapsed


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _check_spec(trace: bool) -> list[tuple[str, str]]:
    """The metrics this run prints, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    ours = PER_LAYER if trace else END_TO_END
    if listed != ours:
        raise SystemExit(f"BENCHMARK.json lists {listed}, the benchmark measures {ours}")
    return ours


def _ms(values: list[float], stat: str) -> str:
    if stat == "p90":  # only with at least ten samples beyond it
        if len(values) < 100:
            return "n/a"
        return f"{statistics.quantiles(values, n=10)[8] * 1000:.2f}"
    value = {"p50": statistics.median, "gmean": statistics.geometric_mean,
             "mean": statistics.fmean}[stat](values)
    return f"{value * 1000:.2f}"


def _report(title: str, record: Record) -> None:
    print(f"{title}:")
    print(f"  {'operation':12} {'n':>5} {'p50_ms':>9} {'p90_ms':>9} {'inst':>5} "
          f"{'typ_gmean':>10} {'typ_mean':>9}  statuses")
    for op in OPS:
        samples = [t for times in record.latency[op].values() for t in times]
        typical = record.typical(op)
        counts = " ".join(f"{k}={v}" for k, v in sorted(record.status[op].items()))
        print(f"  {op:12} {len(samples):5d} {_ms(samples, 'p50'):>9} {_ms(samples, 'p90'):>9} "
              f"{len(typical):5d} {_ms(typical, 'gmean'):>10} {_ms(typical, 'mean'):>9}  {counts}")
    print(f"  wrong answers: {len(record.wrong)}")
    for draw, op, reason in sorted(set(record.wrong), key=str):
        print(f"    draw {draw} {op}: {reason}")
    for draw, op, detail in sorted(set(record.errors), key=str):
        print(f"    error: draw {draw} {op}: {detail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    metric_spec = _check_spec(bool(args.trace))
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        started = time.perf_counter()
        cli, workload, pool = set_up(args.workload, run_dir / "pool")
        first_setup = time.perf_counter() - started

        random.Random(args.seed).shuffle(pool)
        runner = Runner(cli, workload, pool, run_dir / "pool")
        print(f"workload {workload.name}: {workload.params}")
        print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
              f"commit {_git_commit()}, PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}")
        print("deadlines: " + ", ".join(f"{op} {s:g} s" for op, s in DEADLINES.items())
              + f"; bounds: check {workload.check_bounds[0]}/{workload.check_bounds[1]}, "
              f"cause {CAUSE_BOUND}, contingency {CONTINGENCY_BOUND}")
        print(f"seed {args.seed}: pool of {len(pool)} in order "
              + " ".join(str(i.draw or "bundled") for i in pool[:12])
              + (" ..." if len(pool) > 12 else ""))
        record = Record()
        if args.trace:
            metrics, traced = _traced_run(runner, record, args.seconds)
            records = [record, traced]
        else:
            metrics = _end_to_end(runner, record, args.seconds, first_setup,
                                  lambda: time_set_up(args.workload, run_dir / "setup"))
            records = [record]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, unit in metric_spec:
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": all(not r.errors and not r.wrong for r in records),
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in metric_spec},
    }))
    return 0


def _end_to_end(runner: Runner, record: Record, seconds: float, first_setup: float,
                time_setup) -> dict:
    """Passes for `seconds`, with set-up timed again at even intervals."""
    setup_times = [first_setup]

    def sample_setup(elapsed: float) -> None:
        due = 1 + int((SETUP_SAMPLES - 1) * min(elapsed / seconds, 1))
        while len(setup_times) < due:
            setup_times.append(time_setup())

    passes, wall = runner.passes(seconds, record, between=sample_setup, partial=True)
    sample_setup(seconds)
    _report(f"{passes} whole pass(es), {record.attempted} operations in {wall:.2f} s", record)
    print(f"set-up: {len(setup_times)} samples, " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    metrics = {"setup_s": statistics.median(setup_times)}
    for op in OPS:
        metrics[f"{op}.gmean_ms"] = statistics.geometric_mean(record.typical(op)) * 1000
    busy = sum(sum(record.typical(op)) for op in OPS)
    metrics["instances_per_s"] = len(record.latency["explain"]) / busy
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def _traced_run(runner: Runner, record: Record, seconds: float) -> tuple[dict, Record]:
    """Untraced passes for part of the time, then as many passes traced."""
    runner.same_passes = True  # per-layer figures are per pass
    passes, plain_wall = runner.passes(seconds * TRACE_UNTRACED_SHARE, record)
    _report(f"untraced: {passes} pass(es) in {plain_wall:.2f} s", record)
    tracer = Tracer()
    traced = Record()
    tracer.install()
    runner.tracer = tracer
    try:
        _, traced_wall = runner.passes(0, traced, count=passes)
    finally:
        tracer.uninstall()
        runner.tracer = None
    _report(f"traced: {passes} pass(es) in {traced_wall:.2f} s; per-layer figures are per pass",
            traced)
    if tracer.absent:
        print("absent trace targets: " + ", ".join(tracer.absent))

    metrics = {}
    for target in TARGETS:
        metrics[f"{target}.calls"] = tracer.calls[target] / passes
        metrics[f"{target}.total_ms"] = tracer.total[target] * 1000 / passes
        metrics[f"{target}.self_ms"] = tracer.self_time[target] * 1000 / passes
    evals = tracer.calls["semantics.eval_hyper"]
    metrics["semantics.eval_hyper.distinct_worlds"] = tracer.distinct_worlds / passes
    metrics["semantics.eval_hyper.distinct_ratio"] = tracer.distinct_worlds / evals if evals else 0
    for layer in EVAL_CALLERS:
        metrics[f"semantics.eval_hyper.under_{layer}"] = tracer.under[layer] / passes
    for name in REPORT_STATS:
        metrics[name] = traced.stats[name] / passes
    for op in OPS:
        for status in STATUSES[op]:
            metrics[f"{op}.status.{status}"] = traced.status[op][status] / passes
        metrics[f"{op}.deadline_misses"] = traced.status[op]["deadline"] / passes
    metrics["wrong_answers"] = len(traced.wrong) / passes
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["trace.absent_targets"] = len(tracer.absent)
    return metrics, traced


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:  # replaces this process
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
