#!/usr/bin/env python3
"""Layer-by-layer benchmark for jcore (standard library only).

    python3 bench/run.py --workload interp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30      # all four workloads

Run from anywhere inside a jcore checkout; the package is imported from the
checkout's `src/`. With `--workload`, one workload runs in this process:
operations in a seeded order, pass after pass, for about `--seconds` (no pass
is started that would end past it).
Every verdict is checked against its expected answer. It prints one row per
operation, then as its last line a JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
(setup_s, wall_s, op_geomean_ms, peak_rss_mb). With `--trace 1` they are the
per-layer ones from the traced run (see tracing.py), after untraced passes
that give the tracing overhead; spans go to `bench/out/` as JSON lines.
Without `--workload`, each workload runs in its own fresh process, one after
the other, and a table of every metric follows.

`failed` counts operations whose verdict was wrong or that raised. `correct`
is false when any operation returned a wrong verdict or raised, except that a
stack probe raising RecursionError is the known defect it probes: it counts
in `failed` but leaves `correct` true.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, the first statement run

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("frontend", "interp", "monitor", "harness")
SETUP_SAMPLES = 7  # set-up probes per run, each a fresh process; the median is reported
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_geomean_ms", "ms"), ("peak_rss_mb", "MB"))


def import_jcore():
    """Import jcore from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "jcore", "__init__.py")):
        sys.exit(f"error: no jcore package under {SRC}; run the benchmark inside a jcore checkout")
    sys.path.insert(0, SRC)
    import jcore

    if not os.path.abspath(jcore.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported jcore from {jcore.__file__}, not from {SRC}")


def percentile_note(samples):
    """The highest of p99/p90/p75/p50 with at least ten samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}={ordered[math.ceil(n * p / 100) - 1]:.4f}s (n={n})"
    return f"n={n}, too few samples for a percentile beyond the median"


# ---------------------------------------------------------------------------
# One pass and the timed loop


class Results:
    def __init__(self, ops):
        self.ops = ops
        self.times = {op.name: [] for op in ops}
        self.status = {op.name: "ok" for op in ops}
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures other than a stack probe's RecursionError

    def run_pass(self):
        gc.collect()
        start = time.perf_counter()
        for op in self.ops:
            t = time.perf_counter()
            try:
                verdict = op.fn()
                error = None
            except Exception as exc:  # a crash is a failed operation; keep going
                verdict, error = None, exc
            self.times[op.name].append(time.perf_counter() - t)
            self.attempted += 1
            if error is None and verdict == op.expected:
                continue
            self.failed += 1
            if error is not None:
                self.status[op.name] = f"raised {type(error).__name__}"
                if op.probe and isinstance(error, RecursionError):
                    continue
            else:
                self.status[op.name] = f"WRONG: got {verdict!r}, expected {op.expected!r}"
            self.wrong += 1
        self.walls.append(time.perf_counter() - start)

    def run_for(self, seconds, between=None):
        """Passes until the next one would end after `seconds`; at least one.
        `between` runs after each pass, outside the timed region."""
        start = time.perf_counter()
        while True:
            self.run_pass()
            if between:
                between()
            if time.perf_counter() - start + self.walls[-1] > seconds:
                return

    def print_rows(self):
        print(f"{'operation':56s} {'median ms':>10s} {'max ms':>10s} {'n':>3s}  verdict")
        for op in sorted(self.ops, key=lambda o: o.name):
            ts = self.times[op.name]
            tag = " (stack probe)" if op.probe else ""
            print(f"{op.name:56s} {statistics.median(ts) * 1e3:10.3f} {max(ts) * 1e3:10.3f} "
                  f"{len(ts):3d}  {self.status[op.name]}{tag}")


def load(workload, seed):
    import workloads

    return workloads.WORKLOADS[workload](seed)


def setup_probe(workload, seed):
    """Time this fresh process from its first statement to the point where
    the first operation could start, minus input generation."""
    import_jcore()
    _ops, gen_seconds = load(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - _T0 - gen_seconds}))


class SetupSampler:
    """Times set-up in fresh processes, one between each pass and the next,
    so the samples spread over the run instead of one burst of machine load."""

    def __init__(self, workload, seed):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.samples = []

    def __call__(self):
        if len(self.samples) < SETUP_SAMPLES:
            out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
            self.samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self()
        return self.samples


def end_to_end(args):
    import_jcore()  # also leaves the bytecode cache warm for the set-up probes
    ops, _ = load(args.workload, args.seed)
    gc.collect()
    gc.freeze()  # set-up objects are not what a pass allocates; keep them out of its collections
    sampler = SetupSampler(args.workload, args.seed)
    res = Results(ops)
    res.run_for(args.seconds, between=sampler)
    samples = sampler.finish()
    timed = [statistics.median(res.times[op.name]) for op in ops if not op.probe]
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(res.walls),
        "op_geomean_ms": math.exp(statistics.fmean(math.log(t * 1e3) for t in timed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    res.print_rows()
    print(f"workload {args.workload}, seed {args.seed}: {len(res.walls)} passes of {len(ops)} operations")
    print(f"  wall_s median {metrics['wall_s']:.4f}s, {percentile_note(res.walls)}")
    print(f"  setup_s samples {' '.join(f'{s:.4f}' for s in samples)}")
    print(f"  failed_ratio {res.failed}/{res.attempted} = {res.failed / res.attempted:.4f}")
    return res, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, True


def traced(args):
    import tracing

    import_jcore()
    ops, _ = load(args.workload, args.seed)
    gc.collect()
    gc.freeze()
    res = Results(ops)
    res.run_for(args.seconds / 2)
    plain_wall = statistics.median(res.walls)
    tracer = tracing.Tracer()
    tracer.install()
    runs = []
    try:
        for _ in range(2):  # the second pass must repeat every count of the first
            tracer.reset()
            res.run_pass()
            runs.append(tracer.metrics())
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    spans_path = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}.jsonl")
    tracer.write_spans(spans_path)
    values = runs[-1]
    values["trace.overhead_s"] = statistics.median(res.walls[-2:]) - plain_wall
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    counts = [n for n, u in units.items() if u in ("count", "ratio")]
    unstable = [n for n in counts if runs[0][n] != runs[1][n]]
    for op in ops:
        if res.status[op.name] != "ok":
            print(f"{op.name}: {res.status[op.name]}{' (stack probe)' if op.probe else ''}")
    print(f"{'per-layer metric':40s} {'value':>14s}  should move")
    for name, unit, moves in tracing.LAYER_METRICS:
        print(f"{name:40s} {values[name]:14.6g} {unit:5s}  {moves}")
    print(f"wall_s: untraced median {plain_wall:.4f}s over {len(res.walls) - 2} passes, "
          f"traced {res.walls[-2]:.4f}s and {res.walls[-1]:.4f}s")
    print(f"spans of the last traced pass: {spans_path} ({len(tracer.spans)} spans)")
    for n in unstable:
        print(f"NOT DETERMINISTIC: {n} was {runs[0][n]} then {runs[1][n]}")
    return res, {k: {"value": values[k], "unit": units[k]} for k in units}, not unstable


def run_all(args):
    """Each workload in its own fresh process, one at a time, then a table."""
    cmd = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    results = {}
    for w in WORKLOADS:
        out = subprocess.run(cmd + ["--workload", w], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.exit(f"error: workload {w} exited with {out.returncode}")
        *rows, last = out.stdout.strip().splitlines()
        print(f"== {w}", *rows, sep="\n")
        results[w] = json.loads(last)
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':40s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        print(f"{n:40s} {unit:6s}" + "".join(f"{results[w]['metrics'][n]['value']:14.6g}" for w in WORKLOADS))
    if not args.trace:
        print(f"{'failed_ratio':40s} {'ratio':6s}"
              + "".join(f"{results[w]['failed'] / results[w]['attempted']:14.4g}" for w in WORKLOADS))
    print(f"{'correct':40s} {'':6s}" + "".join(f"{str(results[w]['correct']):>14s}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="run one workload; default: all, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    res, metrics, deterministic = (traced if args.trace else end_to_end)(args)
    print(json.dumps({"correct": res.wrong == 0 and deterministic, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
