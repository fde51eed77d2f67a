#!/usr/bin/env python3
"""Benchmark of adjvar's two exact engines, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --record-reference        # rewrite perfbench/reference.json

One process runs one workload on one thread as a closed loop with one call
outstanding.  Set-up (``import adjvar``, seeded inputs, cache fill) is timed
in fresh child processes, one after each pass and the rest after the last
pass; whole passes over the workload's items are started until ``--seconds``
have passed and at least the workload's minimum number of passes is done.
Every answer goes through the output gate: the workload's independent check,
and at the default seed a digest of the sorted-key JSON compared with
``reference.json``.  Each item runs under a deadline; a missed deadline, an
exception or a wrong answer counts as a failed item.  Items listed as known
failing in ``design.json`` are left out of the passes;
``--with-known-failing`` runs them once, at the start of the measured time,
and counts them as attempted.

Times are reported in reference seconds: wall time divided by the host's
speed factor at the moment it was measured.  A host that shares its CPUs can
change speed by half within a second and stay changed for tens of seconds,
and process CPU time follows the wall time, so the benchmark measures the
host's speed itself: a fixed pure-Python calibration loop
(``calibration_sample``) runs before a pass, after it, and between items
whenever ``interval_s`` has passed since the last sample.  The wall time of
the items run between two samples is divided by the mean of the two samples
over the loop's reference time in ``design.json``.  Each set-up child does
the same around its set-up.  The factors and the wall times are printed as
notes.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
(see ``spans.py``); the spans of the first traced pass are written to
``.perfbench_out/`` at the repository root.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
from array import array
from fractions import Fraction
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

with open(os.path.join(HERE, "design.json")) as _fh:
    DESIGN = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)

#: metric name -> unit, in report order
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
CHILD_TIMEOUT_S = 170
CALIBRATION = DESIGN["calibration"]


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an item; a BaseException so that no
    ``except Exception`` in the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_library():
    """Put this checkout's ``src`` first on the path and check that adjvar
    comes from there; exit with a message (status 1) when it does not."""
    if not os.path.isfile(os.path.join(SRC, "adjvar", "__init__.py")):
        sys.exit(f"error: no adjvar sources under {SRC}")
    sys.path.insert(0, SRC)
    import adjvar

    if os.path.dirname(os.path.abspath(adjvar.__file__)) != os.path.join(SRC, "adjvar"):
        sys.exit(f"error: adjvar was imported from {adjvar.__file__}, not {SRC}")


def calibration_sample():
    """Seconds for a fixed loop of the interpreter work adjvar does most:
    small tuples and ints, dict updates and Fraction arithmetic.  The
    collector is off so that the heap the benchmark holds does not change
    the figure."""
    gc.disable()
    start = perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(CALIBRATION["iterations"]):
        key = (i % 97, i * 7 % 13, i ^ 5)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    sorted(table.items())
    seconds = perf_counter() - start
    gc.enable()
    return seconds


def set_up(workload, seed):
    """The benchmark's set-up; returns (seconds, items)."""
    start = perf_counter()
    import_library()
    import workloads

    items = workloads.build(workload, seed)
    return perf_counter() - start, items


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["digests"]


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def base_id(item_id: str) -> str:
    """Item id without its seed suffix."""
    return item_id.split("@")[0]


def timed_call(item, deadline_s):
    """Run one item under its deadline: (seconds, output, error or None)."""
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = perf_counter()
    try:
        out = item.call()
        elapsed = perf_counter() - start
    except DeadlineExceeded:
        return perf_counter() - start, None, f"missed its {deadline_s} s deadline"
    except Exception as exc:  # an exception is a failed item, not a failed run
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, out, None


class Runner:
    """Runs passes over one workload's items and gates every answer.

    Known-failing items are not in the passes: the time they take until
    their deadline is no work of the program.  ``run_known_failing`` runs
    them once; they then count in failed_share."""

    def __init__(self, workload, items, reference):
        spec = DESIGN["workloads"][workload]
        self.known_failing = set(spec["known_failing"])
        self.items = [i for i in items if base_id(i.id) not in self.known_failing]
        self.once = [i for i in items if base_id(i.id) in self.known_failing]
        self.deadline_s = spec["deadline_s"]
        self.reference = reference
        self.attempted = 0
        self.failures = []  # (item id, reason)
        self.factors = []  # host speed factor of each stretch of items
        self.wall_s = 0.0  # wall seconds of all item calls
        signal.signal(signal.SIGALRM, _on_alarm)

    def gate(self, item, out):
        try:
            doc = item.render(out)
            want = self.reference.get(item.id)
            if want is not None and digest(doc) != want:
                return f"output {json.dumps(doc, sort_keys=True)[:200]} differs from the reference"
            return item.check(doc)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"

    def _flush(self, before, pending, latencies):
        """Take a calibration sample; divide the wall seconds in ``pending``
        by the speed factor of the samples around them and move them to
        ``latencies``.  Returns the new sample."""
        after = calibration_sample()
        factor = (before + after) / 2 / CALIBRATION["reference_s"]
        latencies.extend(s / factor for s in pending)
        self.factors.append(factor)
        pending.clear()
        return after

    def run_pass(self, recorder=None, items=None):
        """One pass; returns the reference seconds of each item."""
        latencies, pending = [], []
        before = calibration_sample()
        last = perf_counter()
        for item in self.items if items is None else items:
            if pending and perf_counter() - last >= CALIBRATION["interval_s"]:
                before = self._flush(before, pending, latencies)
                last = perf_counter()
            if recorder is not None:
                recorder.begin_item(item.id)
            seconds, out, error = timed_call(item, self.deadline_s)
            if recorder is not None:
                recorder.end_item(completed=error is None)
            if error is None:
                error = self.gate(item, out)
            pending.append(seconds)
            self.wall_s += seconds
            self.attempted += 1
            if error is not None:
                self.failures.append((item.id, error))
        self._flush(before, pending, latencies)
        return latencies

    def run_known_failing(self):
        """Run the known-failing items once; returns notes on their time."""
        latencies = self.run_pass(items=self.once)
        return [f"known-failing {item.id} ran {s:.3f} reference s, not counted in the timings"
                for item, s in zip(self.once, latencies)]

    @property
    def correct(self):
        """True when every failure is a known-failing item."""
        return all(base_id(i) in self.known_failing for i, _ in self.failures)


def percentile_rank(p, n):
    """Nearest rank (1-based) of percentile p, given to 0.1, among n samples."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values, p):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = percentile_rank(p, len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def setup_sample(workload, seed):
    """Set-up in one fresh child process: (reference seconds, wall seconds)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up child failed: {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["wall_s"]


def setup_child(workload, seed):
    """Body of a set-up child: time the set-up between two calibration
    samples (after one that warms the loop up) and print the result."""
    calibration_sample()
    before = calibration_sample()
    wall_s, _ = set_up(workload, seed)
    factor = (before + calibration_sample()) / 2 / CALIBRATION["reference_s"]
    print(json.dumps({"setup_s": wall_s / factor, "wall_s": wall_s}))


def enough_passes(done, minimum, start, seconds):
    return done >= minimum and perf_counter() - start >= seconds


def known_failing_notes(runner, with_known_failing):
    if with_known_failing:
        return runner.run_known_failing()
    return [f"known-failing {item.id} not run; --with-known-failing runs it once"
            for item in runner.once]


def factor_note(runner):
    factors = runner.factors
    return (f"times are reference seconds; host speed factor median "
            f"{statistics.median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f} "
            f"over {len(factors)} stretches; {runner.wall_s:.3f} wall s of item calls")


def run_untraced(workload, runner, seed, seconds, with_known_failing):
    spec = DESIGN["workloads"][workload]
    repeats = DESIGN["setup_repeats"]
    setups, passes, per_pass = [], [], []
    start = perf_counter()
    once_notes = known_failing_notes(runner, with_known_failing)
    # One set-up sample after each pass, the rest after the last pass, so that
    # set-up is timed under the same host load as the passes.
    while not enough_passes(len(passes), spec["min_passes"], start, seconds):
        lat = runner.run_pass()
        passes.append(sum(lat))
        per_pass.append(array("d", lat))
        if len(setups) < repeats:
            setups.append(setup_sample(workload, seed))
    while len(setups) < repeats:
        setups.append(setup_sample(workload, seed))
    # read before the statistics below allocate their temporary lists
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [s for lat in per_pass for s in lat]
    per_item = [statistics.median(times) for times in zip(*per_pass)]
    tail_p = spec["tail_percentile"]
    tail, beyond = percentile(latencies, tail_p)
    metrics = {
        "setup_s": statistics.median(ref for ref, _ in setups),
        "pass_s": statistics.median(passes),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"passes {len(passes)}, items per pass {len(runner.items)}",
        factor_note(runner),
        "set-up reference s " + ", ".join(f"{ref:.4f}" for ref, _ in setups),
        "set-up wall s " + ", ".join(f"{wall:.4f}" for _, wall in setups),
        f"item_tail_ms is p{tail_p} of {len(latencies)} samples, {beyond} beyond it",
    ] + once_notes
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, notes


def run_traced(workload, runner, seed, seconds, with_known_failing):
    import spans

    recorder = spans.Recorder()
    untraced, traced, per_pass = [], [], []
    start = perf_counter()
    once_notes = known_failing_notes(runner, with_known_failing)
    while not enough_passes(len(traced), 1, start, seconds):
        untraced.append(sum(runner.run_pass()))
        recorder.keep_spans = not traced
        installed = spans.Installation(recorder)
        try:
            traced.append(sum(runner.run_pass(recorder)))
        finally:
            installed.remove()
        per_pass.append(spans.layer_metrics(*recorder.take_pass(), PER_LAYER))
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_share":
            value = statistics.median(traced) / statistics.median(untraced) - 1
        elif name.endswith("self_s"):
            value = statistics.median(p[name] for p in per_pass)
        else:  # counts repeat exactly from pass to pass; report the first
            value = per_pass[0][name]
        metrics[name] = (value, unit)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    recorder.write_spans(path)
    notes = [
        f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
        "self_s are wall medians over traced passes, counts are per pass",
        factor_note(runner),
        f"{len(recorder.spans)} spans of the first traced pass written to {path}",
    ] + once_notes
    return metrics, notes


def report(workload, seed, runner, metrics, notes):
    failed = len(runner.failures)
    print(f"workload {workload}  seed {seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    share = failed / runner.attempted
    print(f"  {'failed_share':<44} {share:>14.6g} share ({failed} of {runner.attempted})")
    for note in notes:
        print(f"  # {note}")
    seen = set()
    for item_id, reason in runner.failures:
        if item_id not in seen:
            seen.add(item_id)
            known = " [known failing]" if base_id(item_id) in runner.known_failing else ""
            print(f"  FAILED {item_id}{known}: {reason}")
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))


def run_all(args):
    """Every workload in its own process; returns the exit status."""
    results = {}
    status = 0
    for workload in DESIGN["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
            + (["--with-known-failing"] if args.with_known_failing else []),
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, end="\n")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def record_reference():
    """Rewrite reference.json from the default seed's items at this commit."""
    seed = DESIGN["default_seed"]
    digests = {}
    for workload in DESIGN["workloads"]:
        _, items = set_up(workload, seed)
        runner = Runner(workload, items, reference={})
        for item in items:
            _, out, error = timed_call(item, runner.deadline_s)
            error = error or runner.gate(item, out)
            if error is None:
                digests[item.id] = digest(item.render(out))
            else:
                print(f"not recorded: {item.id}: {error}")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"seed": seed, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(DESIGN["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=DESIGN["default_seed"])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--with-known-failing", action="store_true",
                        help="also run the known-failing items once, counted as attempted")
    args = parser.parse_args(argv)

    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_child(args.workload, args.seed)
        return 0
    _, items = set_up(args.workload, args.seed)
    runner = Runner(args.workload, items, load_reference())
    run = run_traced if args.trace else run_untraced
    metrics, notes = run(args.workload, runner, args.seed, args.seconds,
                         args.with_known_failing)
    report(args.workload, args.seed, runner, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
