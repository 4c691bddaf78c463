"""genuskit benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads (see ``workloads.py``): modpull-ladder, heis-ladder, cli-mix.
Each is one closed-loop client in one thread: the next operation starts
when the previous one has returned.  ``all`` runs every workload in its own
fresh process, one after another.

A run's inputs are a fixed list of operations built from the seed.  The
timed phase runs passes over the whole list, at least two and then more
while another fits in ``--seconds`` of operation time.

This benchmark shares its host, whose speed drifts by up to half again
in spells of seconds to minutes.  So a fixed reference loop is timed
just before and just after every operation and, every ``SAMPLE_S`` of
CPU time, during it (``SpeedSampler``); the operation's time is scaled to
the host speed at which that loop takes ``REF_LOOP_S``, by the median of
those timings, and an operation's latency is the best of its scaled
times over the passes.  On the same inputs this holds run-to-run spreads
to a few per cent where the raw times spread by a third.  Every figure
is also printed and recorded unscaled.

``op_geomean_ms`` is the geometric mean of the distinct operations'
latencies, and ``ops_per_s`` the number of operations completed over the
sum of them.  The workloads are ladders: their latencies spread over
decades, so the median is one or two instances at the edge between rungs
and swings with the seed, and a run holds 36 to 78 distinct operations,
too few for a 90th percentile with ten samples beyond it.  The 90th
percentile is printed and recorded with its sample count, but it is not
one of the metrics.

Set-up imports genuskit and builds the run's inputs; it is timed in
``SETUP_REPEATS`` fresh processes spread over the timed phase, and
``setup_s`` is the median of their scaled times.

Every execution is checked after its timer stops, and a later pass must
give the first pass's output.  An operation past the cap is stopped,
counted as failed, enters the metrics at the cap and is not run again.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
passes untraced for half the time (one at least), then one pass traced,
and prints the per-layer metrics, unscaled; ``trace.overhead`` is the
traced pass's time over the median untraced pass.

Human-readable lines go to stdout, with the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record (per-rung
breakdown, failed inputs, output digest) and, when traced, the spans are
written under ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_PASSES = 2
OP_CAP_S = 30.0
# Past this wall time the timed phase stops after the current operation,
# so a pathological commit still ends well inside three minutes.
HARD_STOP_S = 110.0
OUT_DIR = ".bench_out"
# Host speed at which times are reported: the reference loop's best time.
REF_LOOP_S = 1e-3
# Process CPU time between two timings of the reference loop inside an
# operation.
SAMPLE_S = 0.05


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _reference_loop() -> Fraction:
    f = Fraction(1, 3)
    for i in range(300):
        f = f * Fraction(i % 7 + 1, i % 5 + 1)
        f = Fraction(f.numerator % 1000003, f.denominator % 1000003 or 1)
    return f


def host_scale(repeats: int = 2) -> float:
    """``REF_LOOP_S`` over the reference loop's best time right now.

    The host's speed drifts by up to half again in spells of seconds to
    minutes, and every timing follows it.  The loop is pure Python
    rational arithmetic, like the program, and a time multiplied by this
    factor reads as if the loop took ``REF_LOOP_S``: it holds the
    program's own cost when the host slows.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return REF_LOOP_S / best


class SpeedSampler:
    """Times the reference loop every ``SAMPLE_S`` of CPU time during an operation.

    A slow spell can start or end inside an operation of a few seconds, so
    the loop timed just before and after it says little about the speed it
    ran at.  A profiling timer interrupts the operation between bytecodes
    and times one loop; the loop's time is taken out of the operation's.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False
        signal.signal(signal.SIGPROF, self._on_tick)

    def _on_tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            _reference_loop()
        finally:
            elapsed = time.perf_counter() - start
            self.spent += elapsed
            self._busy = False
        self.samples.append(elapsed)

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


# Runs in a fresh interpreter: argv = bench dir, src dir, workload, seed.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[2], sys.argv[1]]
from run import host_scale
from workloads import WORKLOADS
before = host_scale(3)
start = time.perf_counter()
import genuskit, genuskit.cli
WORKLOADS[sys.argv[3]](int(sys.argv[4])).inputs()
seconds = time.perf_counter() - start
print(seconds, (before * host_scale(3)) ** 0.5)
"""


class SetupProbes:
    """Set-up time in fresh processes, one at a time, spread over the run.

    Each probe imports genuskit and builds the workload's inputs; the
    interpreter's own start is not counted, and the time is scaled by
    ``host_scale`` measured in the probe just before and just after.  The
    first probe runs before the timed phase and the rest at even steps of
    its operation time.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv = [sys.executable, "-c", _SETUP_PROBE, HERE, SRC, name, str(seed)]
        self.step = seconds / SETUP_REPEATS
        self.times = []  # scaled to the reference speed
        self.raw = []

    def probe(self) -> None:
        out = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        seconds, scale = map(float, out.stdout.split())
        self.raw.append(seconds)
        self.times.append(seconds * scale)

    def between(self, op_seconds: float) -> None:
        if len(self.times) < SETUP_REPEATS and op_seconds >= self.step * len(self.times):
            self.probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


class Phase:
    """Passes over a fixed list of operations, each timed, capped and checked.

    Every pass runs the whole list in order.  Each execution's time is
    scaled by the median of the reference loop's times just before, during
    (with a ``sampler``) and just after it, and an operation's latency is
    the best of its scaled times over the passes.  An operation that times
    out is not run again, and its latency is the cap.
    """

    def __init__(self, workload, ops, started: float, sampler=None):
        self.workload = workload
        self.ops = ops
        self.started = started
        self.sampler = sampler
        self.times = [[] for _ in ops]  # (seconds, scale) per good execution
        self.lines = [None] * len(ops)
        self.sizes = [0] * len(ops)
        self.pass_times = []
        self.attempted = 0
        self.timeouts = []
        self.wrong = []
        self.dead = set()
        self.timed_out = set()

    def run_op(self, i: int, tracer=None) -> float:
        op = self.ops[i]
        sampler = self.sampler
        gc.collect()
        loops = [REF_LOOP_S / host_scale()]
        depth = tracer.begin(i) if tracer else 0
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        if sampler:
            sampler.start()
        start = time.perf_counter()
        try:
            out = self.workload.run(op)
            elapsed = time.perf_counter() - start
        except OpTimeout:
            elapsed, out = OP_CAP_S, None
        finally:
            if sampler:
                sampler.stop()
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.end(depth)
        if sampler and out is not None:
            elapsed -= sampler.spent
            loops += sampler.samples
        loops.append(REF_LOOP_S / host_scale())
        scale = REF_LOOP_S / statistics.median(loops)
        self.attempted += 1
        if out is None:
            self.dead.add(i)
            self.timed_out.add(i)
            self.timeouts.append({"rung": op.rung, "pass": len(self.pass_times), "input": op.text})
            return elapsed
        ok, reason, line, size = self.workload.check(op, out)
        if tracer:
            tracer.settle(_center_word)
        if ok and self.lines[i] is not None and line != self.lines[i]:
            ok, reason = False, "output differs from the first pass"
        if not ok:
            self.dead.add(i)
            self.wrong.append({"rung": op.rung, "pass": len(self.pass_times), "reason": reason,
                               "input": op.text})
            return elapsed
        self.lines[i] = line
        self.sizes[i] = size
        self.times[i].append((elapsed, scale))
        return elapsed

    def run_pass(self, tracer=None, between=None) -> bool:
        """One pass; False if the hard stop cut it short.

        ``between(op_seconds)`` is called after each operation with the
        operation time of the phase so far.
        """
        done = sum(self.pass_times)
        self.pass_times.append(0.0)
        for i in range(len(self.ops)):
            if i in self.dead:
                continue
            self.pass_times[-1] += self.run_op(i, tracer)
            if between:
                between(done + self.pass_times[-1])
            if time.perf_counter() - self.started > HARD_STOP_S:
                return False
        return True

    def run_for(self, seconds: float, min_passes: int = MIN_PASSES, between=None) -> None:
        """At least ``min_passes`` passes, then more while the next fits."""
        while self.run_pass(between=between):
            done = sum(self.pass_times)
            if len(self.pass_times) >= min_passes and done + self.pass_times[-1] > seconds:
                break

    @property
    def failed(self) -> int:
        return len(self.timeouts) + len(self.wrong)

    def latency(self, i: int, raw: bool = False):
        """Seconds, scaled unless ``raw``; the cap after a timeout."""
        if i in self.timed_out:
            return OP_CAP_S
        if not self.times[i]:
            return None
        return min(t if raw else t * scale for t, scale in self.times[i])

    def latencies(self, raw: bool = False) -> list:
        found = (self.latency(i, raw) for i in range(len(self.ops)))
        return [t for t in found if t is not None]

    def rung_table(self):
        table = {}
        for rung in dict.fromkeys(op.rung for op in self.ops):
            idx = [i for i, op in enumerate(self.ops) if op.rung == rung]
            lat = [t for t in map(self.latency, idx) if t is not None]
            table[rung] = {
                "ops": len(idx),
                "median_ms": 1e3 * statistics.median(lat) if lat else None,
                "timeouts": sum(1 for t in self.timeouts if t["rung"] == rung),
                "max_size": max(self.sizes[i] for i in idx),
            }
        return table

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in self.lines:
            h.update((line or "").encode() + b"\n")
        return h.hexdigest()


def _center_word(subgroup):
    """The center generator's word, read through a membership query."""
    heis = sys.modules["genuskit.heis"]
    zero = Fraction(0)
    element = heis.HeisElement(subgroup.primes, zero, zero, subgroup.center_generator)
    return subgroup.membership(element).word or ()


def end_to_end(phase: Phase, setup: list, raw: bool = False) -> dict:
    latencies = phase.latencies(raw)
    completed = sum(1 for i, t in enumerate(phase.times) if t and i not in phase.dead)
    return {
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_geomean_ms": (1e3 * statistics.geometric_mean(latencies), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_one(args) -> int:
    from spans import Tracer
    from workloads import WORKLOADS

    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    probes.probe()
    import genuskit.cli

    modules = {name: sys.modules[f"genuskit.{name}"] for name in ("cli", "dsl", "heis")}
    workload = WORKLOADS[args.workload](args.seed)
    workload.bind(modules)
    loaded = os.path.realpath(genuskit.cli.__file__)
    if not loaded.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: genuskit was imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    ops = workload.inputs()
    # The harness's own objects stay out of the program's collections.
    gc.collect()
    gc.freeze()

    phase = Phase(workload, ops, started, SpeedSampler())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op_cap_s": OP_CAP_S}
    if not args.trace:
        phase.run_for(args.seconds, between=probes.between)
        metrics = end_to_end(phase, probes.finish())
        unscaled = end_to_end(phase, probes.raw, raw=True)
        record["unscaled"] = {k: unscaled[k][0] for k in ("ops_per_s", "op_geomean_ms", "setup_s")}
        phases = [phase]
    else:
        phase.run_for(args.seconds / 2, min_passes=1)
        tracer = Tracer()
        tracer.install()
        # Traced frames roughly double the stack depth of recursive calls.
        sys.setrecursionlimit(3 * sys.getrecursionlimit())
        traced = Phase(workload, ops, started)
        traced.run_pass(tracer)
        tracer.uninstall()
        overhead = sum(traced.pass_times) / statistics.median(phase.pass_times)
        metrics = tracer.metrics(sum(traced.pass_times), overhead)
        phases = [phase, traced]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans")
        tracer.write(spans_path)
        record["spans"] = spans_path + ".bin"

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(not p.wrong for p in phases)
    if args.trace and traced.digest() != phase.digest():
        correct = False
    record.update(
        {
            "attempted": attempted,
            "failed": failed,
            "correct": correct,
            "distinct_ops": len(ops),
            "passes": len(phase.pass_times),
            "pass_times_s": phase.pass_times,
            "digest": phase.digest(),
            "rungs": phase.rung_table(),
            "op_p90_ms": 1e3 * statistics.quantiles(phase.latencies(), n=10, method="inclusive")[8],
            "ops": [{"rung": op.rung, "size": size, "seconds_and_scale": times}
                    for op, times, size in zip(ops, phase.times, phase.sizes)],
            "timeouts": [t for p in phases for t in p.timeouts],
            "wrong": [w for p in phases for w in p.wrong],
            "setup_times_s": probes.times,
            "setup_times_unscaled_s": probes.raw,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} distinct ops, {record['passes']} passes "
          f"({', '.join(f'{t:.1f}' for t in phase.pass_times)} s), op cap {OP_CAP_S:g} s")
    for rung, row in record["rungs"].items():
        median = "-" if row["median_ms"] is None else f"{row['median_ms']:10.2f}"
        print(f"  rung {rung:>16}: {row['ops']:4d} ops  median {median} ms  "
              f"timeouts {row['timeouts']}  max size {row['max_size']}")
    for t in record["timeouts"]:
        print(f"  TIMEOUT rung {t['rung']} pass {t['pass']}: {t['input']}")
    for w in record["wrong"]:
        print(f"  WRONG rung {w['rung']} pass {w['pass']}: {w['reason']}: {w['input']}")
    print(f"  digest of outputs: {record['digest']}")
    print(f"  p90 of operation latencies: {record['op_p90_ms']:.6g} ms over {len(ops)} operations")
    for name, (value, unit) in metrics.items():
        unscaled = record.get("unscaled", {}).get(name)
        note = "" if unscaled is None else f"   (unscaled {unscaled:.6g})"
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "genuskit", "__init__.py")):
        print(f"error: no genuskit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
