"""heavyfed benchmark: seeded simulation workloads, timed end to end and traced by layer.

Run from the root of a heavyfed checkout:

    python3 bench/run.py --workload robust-ref --seed 1 --seconds 40 --trace 0

The benchmark is a closed loop: this process makes one ``run_experiment``
call at a time on the config it generated from ``--workload`` and ``--seed``,
for ``--seconds`` seconds, and checks every call's output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a separate traced call, plus the aggregation microbenchmark.  The last
line of standard output is one JSON object; the lines before it repeat the
metrics for people, together with the environment they were measured in.
Spans and full results are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import aggbench
import tracing
from workloads import WORKLOADS, write_ini

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Every run_experiment call is repeated at least this often, so each run
# compares rounds.csv bytes of two calls with the same seed.
MIN_CALLS = 2

# Fresh-interpreter set-up samples per run, spread evenly over the timed
# loop so that they see the same machine phases as the calls.  One more,
# taken before the loop as a warm-up (page cache, bytecode), is not reported.
SETUP_SAMPLES = 5

# Untimed warm-up call before the loop (first-use costs in numpy/scipy):
# the workload's config cut to one repetition of this many rounds.
WARMUP_ROUNDS = 5

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = ("reps_per_s", "setup_s", "peak_rss_mb", "bytes_up_per_rep")

CSV_HEADER = ["rep", "round", "test_loss", "param_err", "bytes_up"]

SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import heavyfed
from heavyfed.config import parse_config
from heavyfed.engine import build_data
build_data(parse_config(sys.argv[2]), rep=0)
print(repr(time.perf_counter() - t0))
"""


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name == "reps_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("bytes_up_per_rep", "nominal_bytes.sum", "csv_bytes")):
        return "B"
    if name.endswith("ns_per_elem"):
        return "ns"
    if name.endswith(("us_per_call", "_us")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".elems")):
        return "count"
    if name.endswith("final_test_loss"):
        return "loss"
    return "ratio"


def per_layer_names() -> list:
    """Every per-layer metric name, in report order."""
    traced = list(tracing.layer_metrics(tracing.Tracer()))
    micro = [f"aggregation.{rule}.m{m}_us" for rule in aggbench.RULES for m in aggbench.SIZES]
    return [
        "config.parse_s",
        *traced,
        "runner.csv_bytes",
        "runner.cpu_per_wall",
        "trace.overhead_frac",
        "quality.final_test_loss",
        *micro,
    ]


@dataclass
class Call:
    """One run_experiment call and what it left behind."""

    wall: float
    cpu: float
    csv: bytes
    summary: object  # RunSummary, or None if the call raised
    error: str = ""


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def call_experiment(hf, config, out_dir: Path, tracer=None) -> Call:
    """Time one run_experiment call into ``out_dir``."""
    out_dir.mkdir()
    span = tracer.span(tracing.ROOT) if tracer is not None else contextlib.nullcontext()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with span:
            summary = hf.runner.run_experiment(config, out_dir=out_dir)
    except hf.errors.HeavyFedError as exc:
        return Call(time.perf_counter() - t0, _cpu_seconds() - cpu0, b"", None, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    return Call(wall, cpu, (out_dir / hf.runner.ROUNDS_CSV).read_bytes(), summary)


def _completed(call: Call) -> int:
    return len(call.summary.completed) if call.summary is not None else 0


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_call(config, call: Call):
    """Output check of one call: (set of bad repetitions, problems)."""
    reps = range(config.repetitions)
    if call.summary is None:
        return set(reps), [f"run_experiment raised {call.error}"]
    rows = list(csv.reader(io.StringIO(call.csv.decode("utf-8"))))
    if not rows or rows[0] != CSV_HEADER:
        return set(reps), [f"rounds.csv header is {rows[:1]}"]
    by_rep = {}
    for row in rows[1:]:
        by_rep.setdefault(row[0], []).append(row)

    bad, problems = set(), []
    dense_bytes = 8 * config.dimension * config.devices
    finals, total_bytes = [], 0
    for rep in reps:
        if rep not in call.summary.completed:
            bad.add(rep)
            problems.append(f"rep {rep} diverged")
            continue
        rep_rows = by_rep.get(str(rep), [])
        if [r[1] for r in rep_rows] != [str(t) for t in range(config.rounds + 1)]:
            bad.add(rep)
            problems.append(f"rep {rep}: rounds are not 0..{config.rounds} in order")
            continue
        if not all(len(r) == 5 and _finite(r[2]) and _finite(r[3]) and r[4].isdigit() for r in rep_rows):
            bad.add(rep)
            problems.append(f"rep {rep}: a loss, error or byte count is missing or not finite")
            continue
        sent = [int(r[4]) for r in rep_rows]
        if sent[0] != 0 or (config.algorithm != "robust_compressed" and set(sent[1:]) != {dense_bytes}):
            bad.add(rep)
            problems.append(f"rep {rep}: bytes_up {sorted(set(sent))} do not match the message format")
        # iterates are projected into the ball of radius space_radius around
        # the origin and w* is a unit vector, so ||w - w*|| <= space_radius + 1
        if not all(float(r[2]) >= 0.0 and 0.0 <= float(r[3]) <= config.space_radius + 1.0 for r in rep_rows):
            bad.add(rep)
            problems.append(f"rep {rep}: a negative test loss, or a parameter error outside the projection ball")
        finals.append(float(rep_rows[-1][2]))
        total_bytes += sum(sent)
    if bad:
        return bad, problems
    # the summary must agree with rounds.csv
    if len(by_rep) != len(call.summary.completed):
        problems.append(f"rounds.csv holds reps {sorted(by_rep)}, summary completed {call.summary.completed}")
    if total_bytes != call.summary.total_bytes:
        problems.append(f"rounds.csv bytes sum {total_bytes} != summary total_bytes {call.summary.total_bytes}")
    if not math.isclose(statistics.fmean(finals), call.summary.final_loss_mean, rel_tol=1e-12):
        problems.append(f"summary final_loss_mean {call.summary.final_loss_mean!r} != rounds.csv mean")
    return (set(reps) if problems else bad), problems


def check_calls(config, calls, reference: bytes):
    """Check every call, and that each rounds.csv equals ``reference`` byte for byte."""
    failed, problems = 0, []
    for i, call in enumerate(calls):
        bad, found = check_call(config, call)
        if call.summary is not None and call.csv != reference:
            bad = set(range(config.repetitions))
            found.append(f"call {i}: rounds.csv differs from the first call with the same seed")
        failed += len(bad)
        problems += found
    return failed, list(dict.fromkeys(problems))  # identical calls repeat their findings


def warm_up(hf, ini: Path, name: str, seed: int, tmp: Path) -> None:
    """One short untimed call and one untimed set-up sample."""
    short = tmp / "warmup.ini"
    write_ini(short, name, seed, {"experiment.rounds": WARMUP_ROUNDS, "experiment.repetitions": 1})
    call_experiment(hf, hf.config.parse_config(short), tmp / "warmup")
    setup_sample(ini)


def run_calls(call, seconds: float, ini=None):
    """Make ``call(i)`` for i = 0, 1, ... back to back for ``seconds``; return (results, set-up samples).

    A call is not started when the mean call so far would end it past ``seconds``,
    so a run lasts ``seconds`` whatever the call length; at least MIN_CALLS
    calls are made.  With ``ini``, SETUP_SAMPLES set-up samples are taken
    between calls at evenly spaced times; their time is not a call's.
    """
    calls, setup, spent = [], [], 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if ini is not None and len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_sample(ini))
            continue
        if len(calls) >= MIN_CALLS and elapsed + spent / len(calls) > seconds:
            break
        t0 = time.perf_counter()
        calls.append(call(len(calls)))
        spent += time.perf_counter() - t0
    return calls, setup


def setup_sample(ini: Path) -> float:
    """Seconds a fresh interpreter takes to import heavyfed, parse the config and build rep 0's data."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(ini)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "heavyfed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(hf) -> dict:
    """What the numbers depend on besides the code: versions, cores, BLAS threads."""
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "heavyfed": hf.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def load_heavyfed():
    """Import heavyfed from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import heavyfed
    import heavyfed.aggregation
    import heavyfed.config
    import heavyfed.errors
    import heavyfed.runner

    if Path(heavyfed.__file__).resolve().parent != (SRC / "heavyfed").resolve():
        raise ImportError(f"heavyfed imported from {heavyfed.__file__}, not from {SRC}")
    return heavyfed


def timed_run(hf, ini: Path, tmp: Path, seconds: float, name: str, seed: int):
    """Untraced run: end-to-end metrics plus the output check."""
    config = hf.config.parse_config(ini)
    warm_up(hf, ini, name, seed, tmp)
    calls, setup = run_calls(lambda i: call_experiment(hf, config, tmp / f"call{i}"), seconds, ini=ini)
    failed, problems = check_calls(config, calls, calls[0].csv)
    first = calls[0].summary
    completed = _completed(calls[0])
    rates = [_completed(c) / c.wall for c in calls]
    metrics = {
        # Over the whole loop: a shared machine slows identical calls by up
        # to 60% in phases of seconds to minutes, and the loop averages over
        # more of them than any one call does.
        "reps_per_s": sum(_completed(c) for c in calls) / sum(c.wall for c in calls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "bytes_up_per_rep": first.total_bytes / completed if completed else math.nan,
    }
    attempted = config.repetitions * len(calls)
    notes = {
        "calls": len(calls),
        "call_wall_s": [c.wall for c in calls],
        "call_cpu_s": [c.cpu for c in calls],
        "setup_samples_s": setup,
        "median_reps_per_s": statistics.median(rates),
        "failed_frac": failed / attempted,
        "final_test_loss": first.final_loss_mean if first is not None else None,
    }
    return metrics, attempted, failed, problems, notes, None


def traced_run(hf, ini: Path, tmp: Path, seconds: float, name: str, seed: int):
    """Untraced and traced calls in alternation, then the aggregation microbenchmark.

    Alternating keeps drift in machine speed out of the tracing overhead.  The
    layer metrics and the written spans come from the first traced call.
    """
    tracer = tracing.Tracer()
    with tracer.span("config.parse"):
        config = hf.config.parse_config(ini)
    warm_up(hf, ini, name, seed, tmp)

    def pair(i):
        plain = call_experiment(hf, config, tmp / f"plain{i}")
        recorder = tracing.Tracer() if i else tracer
        with recorder.installed():
            return plain, call_experiment(hf, config, tmp / f"traced{i}", tracer=recorder)

    pairs, _ = run_calls(pair, seconds)
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    calls = [*plain, *traced]
    failed, problems = check_calls(config, calls, plain[0].csv)
    first = traced[0].summary
    if config.algorithm == "robust_compressed" and first is not None:
        nominal = tracer.counters["compression.nominal_bytes.sum"]
        if nominal != first.total_bytes:
            failed = min(failed + config.repetitions, config.repetitions * len(calls))
            problems.append(f"compression.nominal_bytes sum {nominal} != summary total_bytes {first.total_bytes}")

    micro, micro_absent, micro_problems = aggbench.run(hf.aggregation, seed)
    problems += micro_problems
    metrics = {
        "config.parse_s": tracing.self_times(tracer.spans)["config.parse"][1],
        **tracing.layer_metrics(tracer),
        "runner.csv_bytes": len(traced[0].csv),
        "runner.cpu_per_wall": statistics.median(c.cpu / c.wall for c in plain),
        "trace.overhead_frac": statistics.median(c.wall for c in traced) / statistics.median(c.wall for c in plain) - 1.0,
        "quality.final_test_loss": first.final_loss_mean if _completed(traced[0]) else math.nan,
        **micro,
    }
    notes = {
        "calls": len(calls),
        "plain_wall_s": [c.wall for c in plain],
        "traced_wall_s": [c.wall for c in traced],
        "absent": sorted(set(tracer.absent + micro_absent)),
    }
    return metrics, config.repetitions * len(calls), failed, problems, notes, tracer


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonnegative_int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heavyfed" / "__init__.py").is_file():
        print(f"bench: no heavyfed sources at {SRC}; run from the root of a heavyfed checkout", file=sys.stderr)
        return 2
    hf = load_heavyfed()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=OUT) as tmp:
        tmp = Path(tmp)
        ini = tmp / "workload.ini"
        write_ini(ini, args.workload, args.seed)
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, problems, notes, tracer = run(hf, ini, tmp, args.seconds, args.workload, args.seed)
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.jsonl")

    env = environment(hf)
    correct = not problems and all(math.isfinite(v) for v in metrics.values())
    # JSON has no NaN; a metric that could not be measured reads 0 and the run is not correct
    report = {name: {"value": v if math.isfinite(v) else 0.0, "unit": unit_of(name)} for name, v in metrics.items()}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, "problems": problems, "metrics": report}, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{notes['calls']} calls, {attempted} repetitions attempted, {failed} failed")
    for name, entry in report.items():
        print(f"  {name:45s} {entry['value']!r} {entry['unit']}")
    if not args.trace:
        print(f"  {'reps_per_s, median over calls':45s} {notes['median_reps_per_s']!r} 1/s")
        print(f"  {'failed_frac':45s} {notes['failed_frac']!r} ratio")
        print(f"  {'final_test_loss':45s} {notes['final_test_loss']!r} loss")
    for name in notes.get("absent", []):
        print(f"  absent: {name}")
    for problem in problems:
        print(f"  check failed: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
