"""Benchmark of the transrisk package: four workloads, one command.

    python3 bench/run.py --workload {screen,verify,predict,portfolio} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each run draws its inputs from ``--seed``, builds
the operations, runs one untimed warm-up operation, then runs whole
rounds of the same operations one at a time (a closed loop with one
client) until ``--seconds`` have passed, timing a speed probe between
operations so that latencies can be rescaled to the machine's reference
speed.  Outputs are checked against the benchmark's own computations
after the timed section.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layer functions and reports per-layer metrics per round.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
start with ``#`` and give run details.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned to one before numpy loads: a second
# OpenBLAS thread bought no wall time on the largest arrays (verify's
# samples) but spun on the other core, doubling CPU time, and a shared
# core makes every such call wait for the slower thread.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")     # relative to ROOT, so report paths do not depend on it
OUT = Path(".bench_out")
SETUP_PROBES = 3
# The speed probe (see speed_probe): its size, how often it runs, and its
# median time on the machine described in README.md, "Machine".
PROBE_MATRIX_ROWS = ((4.0, 1.0, 0.5, 0.2), (1.0, 3.0, 0.3, 0.1),
                     (0.5, 0.3, 2.0, 0.4), (0.2, 0.1, 0.4, 1.5))
PROBE_LINALG_REPS = 150
PROBE_PYTHON_REPS = 15000
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.5
PROBE_REF_S = 0.0045
SETUP_SPEED_PROBES = 3   # before and after each set-up measurement
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["screen", "verify", "predict", "portfolio"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=int, default=None, metavar="OP",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe(args) -> None:
    """In this fresh process: time importing transrisk.cli plus one
    warm-up operation (operation ``args.setup_probe`` of the round), and
    print it rescaled to the reference speed by the speed probes run
    just before and just after it."""
    from workloads import WORKLOADS

    workdir = fresh_dir(WORK / f"{args.workload}-{args.seed}-setup")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probes = [speed_probe() for _ in range(SETUP_SPEED_PROBES)]
        start = time.perf_counter()
        import transrisk.cli  # noqa: F401
        ops = workload.bind()
        ops[args.setup_probe % len(ops)]("setup")
        elapsed = time.perf_counter() - start
        probes += [speed_probe() for _ in range(SETUP_SPEED_PROBES)]
        print(repr(elapsed * PROBE_REF_S / statistics.median(probes)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> float:
    times = []
    for probe in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(probe)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def speed_probe() -> float:
    """Wall time of a fixed piece of the benchmark's own work, in the mix
    the workloads run: small numpy linear algebra and plain-Python
    arithmetic.  It calls nothing in ``transrisk``, so only the machine's
    speed moves it."""
    import numpy as np

    matrix = np.array(PROBE_MATRIX_ROWS)
    clock = time.perf_counter
    start = clock()
    total = 0.0
    for _ in range(PROBE_LINALG_REPS):
        low = np.linalg.cholesky(matrix)
        v = np.linalg.solve(low, matrix[0])
        total += float(v @ v)
    for i in range(PROBE_PYTHON_REPS):
        total += (i * i) % 7
    return clock() - start


def run_rounds(ops, seconds: float):
    """Whole rounds, as many as brings the timed wall time nearest to
    ``seconds`` (at least one).  Returns per-round outcomes, per-round
    lists of (start, latency) of the operations, the run's speed probes
    as (start, duration), and the timed wall time.  A probe runs before
    an operation whenever ``PROBE_EVERY_S`` has passed since the last
    one, so one always ran shortly before each operation; probe time is
    in no latency."""
    from workloads import Outcome

    rounds, timings, probes = [], [], []
    clock = time.perf_counter
    start = clock()
    last_probe = -math.inf
    while not rounds or (clock() - start) * (1 + 0.5 / len(rounds)) < seconds:
        outcomes, round_timings = [], []
        for op in ops:
            if clock() - last_probe >= PROBE_EVERY_S:
                last_probe = clock()
                probes.append((last_probe - start, speed_probe()))
            t0 = clock()
            try:
                outcome = op(len(rounds))
            except Exception as exc:  # an operation that raises counts as failed
                outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
            round_timings.append((t0 - start, clock() - t0))
            outcomes.append(outcome)
        rounds.append(outcomes)
        timings.append(round_timings)
    return rounds, timings, probes, clock() - start


def typical_rates(latencies) -> tuple[float, float]:
    """(operations per second, median latency in seconds), each a median
    over the run's rounds, so that a stretch of a run in which the shared
    machine ran faster or slower than usual moves neither unless it
    covers most rounds.  The rate is a round's operations over the median
    of the rounds' summed latencies; the latency is the median over
    operations of each operation's median over rounds."""
    per_op = [statistics.median(lats) for lats in zip(*latencies)]
    busy = [sum(lats) for lats in latencies]
    return len(per_op) / statistics.median(busy), statistics.median(per_op)


def at_reference_speed(timings, probes):
    """Per-round latencies, each rescaled by PROBE_REF_S over the median
    time of the speed probes that started within PROBE_WINDOW_S of the
    operation's start: the latency it would have had with the machine
    at its reference speed."""
    def scale(t):
        near = [d for s, d in probes if abs(s - t) <= PROBE_WINDOW_S]
        return PROBE_REF_S / statistics.median(near)
    return [[lat * scale(t) for t, lat in round_timings] for round_timings in timings]


def evaluate(workload, rounds) -> tuple[bool, int, list[str]]:
    """(correct, failed, problems).  The first round is checked against
    the benchmark's computations; later rounds must repeat it exactly.
    An operation fails when it produces no output (it raised, or the CLI
    exited with an error or wrote no report) or a wrong one; ``correct``
    is false when any output is wrong or a run-level check fires."""
    first = rounds[0]
    per_op, problems = workload.check(first)
    correct = not problems
    bad = []
    for i, outcome in enumerate(first):
        if per_op[i]:
            correct = correct and not workload.produced(outcome)
            problems.extend(f"op {i}: {p}" for p in per_op[i][:3])
        bad.append(bool(per_op[i]))
    failed = sum(bad)
    for r, outcomes in enumerate(rounds[1:], start=1):
        for i, outcome in enumerate(outcomes):
            if bad[i] or not workload.same(outcome, first[i]):
                failed += 1
                if not bad[i]:
                    correct = False
                    problems.append(f"round {r} op {i}: output differs from round 0")
    return correct, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "transrisk" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'transrisk'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    from workloads import WORKLOADS

    workdir = fresh_dir(WORK / f"{args.workload}-{args.seed}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        import transrisk.cli  # noqa: F401
        ops = workload.bind()
        ops[0]("warmup")
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        rounds, timings, probes, wall = run_rounds(ops, args.seconds)
        latencies = [[lat for _, lat in round_timings] for round_timings in timings]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(map(len, latencies))
        correct, failed, problems = evaluate(workload, rounds)
        for line in problems[:20]:
            print(f"bench: {line}", file=sys.stderr)

        ops_per_s, op_p50_s = typical_rates(at_reference_speed(timings, probes))
        raw_ops_per_s, raw_op_p50_s = typical_rates(latencies)
        probe_ms = 1e3 * statistics.median(d for _, d in probes)
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in tracer.layer_metrics(len(rounds)).items()}
            metrics["traced.ops_per_s"] = {"value": ops_per_s, "unit": "ops/s"}
        else:
            metrics = {
                "setup_s": {"value": measure_setup(args), "unit": "s"},
                "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
                "op_p50_ms": {"value": 1e3 * op_p50_s, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        flat = [lat for lats in latencies for lat in lats]
        p90 = statistics.quantiles(flat, n=10)[-1] if attempted >= 2 else flat[0]
        print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
              f"threads={THREADS} rounds={len(rounds)} ops_per_round={len(ops)} "
              f"wall_s={wall:.4f} op_p90_ms={1e3 * p90:.4f} probe_ms={probe_ms:.4f} "
              f"raw_ops_per_s={raw_ops_per_s:.4f} raw_op_p50_ms={1e3 * raw_op_p50_s:.4f}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
