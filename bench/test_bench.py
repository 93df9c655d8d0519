"""Tests of the benchmark itself: tracing transparency, self times, names, BENCHMARK.json."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import aggbench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_ini  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# layer counters each workload must drive above zero (and the others not)
USES = {
    "robust-ref": {"estimator.robust_gradient.calls"},
    "baseline-bulyan-m40": {"aggregation.bulyan.us_per_call"},
    "compressed-logistic": {"estimator.robust_gradient.calls", "compression.calls"},
}


@pytest.fixture(scope="module")
def hf():
    return run.load_heavyfed()


def _tiny(hf, tmp_path, workload, rounds=3):
    ini = tmp_path / f"{workload}.ini"
    write_ini(ini, workload, seed=7, extra={"experiment.rounds": rounds})
    return hf.config.parse_config(ini)


def test_wrapper_passes_arguments_and_results_through():
    tracer = tracing.Tracer()
    seen = []

    def target(*args, **kwargs):
        seen.append((args, kwargs))
        return args[0]

    payload, flag = object(), object()
    wrapped = tracer.wrap(target, "t.target")
    assert wrapped(payload, 2, key=flag) is payload
    assert seen[0][0][0] is payload and seen[0][1]["key"] is flag
    assert wrapped.__name__ == "target"

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "t.boom")()
    assert [s[0] for s in tracer.spans] == ["t.target", "t.boom"]
    assert all(end >= start for _, start, end, _, _ in tracer.spans)
    assert tracer._stack == []


def test_absent_targets_are_reported_not_fatal(hf):
    import heavyfed.engine

    original = heavyfed.engine.project
    tracer = tracing.Tracer()
    targets = (
        ("engine", "no_such_function", "engine.gone"),
        ("no_such_module", "f", "gone.f"),
        ("engine", "project", "engine.project"),
    )
    with tracer.installed(targets):
        assert heavyfed.engine.project is not original
    assert heavyfed.engine.project is original
    assert tracer.absent == ["engine.no_such_function", "no_such_module.f"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_call_is_transparent_and_self_times_fit_in_wall(hf, tmp_path, workload):
    config = _tiny(hf, tmp_path, workload)
    plain = run.call_experiment(hf, config, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.call_experiment(hf, config, tmp_path / "traced", tracer=tracer)
    assert tracer.absent == []
    assert traced.csv == plain.csv
    assert run.check_calls(config, [plain, traced], plain.csv) == (0, [])

    stats = tracing.self_times(tracer.spans)
    wall = stats[tracing.ROOT][1]
    self_total = sum(entry[2] for entry in stats.values())
    assert all(entry[2] >= -1e-9 for entry in stats.values())
    assert self_total <= wall + 1e-9
    metrics = tracing.layer_metrics(tracer)
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) <= 1.0 + 1e-9
    assert metrics["engine.run.calls"] == config.repetitions
    if config.algorithm == "robust_compressed":
        assert metrics["compression.nominal_bytes.sum"] == traced.summary.total_bytes
    for name in ("estimator.robust_gradient.calls", "aggregation.bulyan.us_per_call", "compression.calls"):
        assert (metrics[name] > 0) == (name in USES[workload]), name


def test_output_check_flags_tampered_output(hf, tmp_path):
    config = _tiny(hf, tmp_path, "robust-ref")
    good = run.call_experiment(hf, config, tmp_path / "good")
    assert run.check_call(config, good) == (set(), [])

    lines = good.csv.decode().splitlines()

    def tampered(column, value):
        fields = lines[2].split(",")  # rep 0, round 1
        fields[column] = value
        text = "\r\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\r\n"
        return dataclasses.replace(good, csv=text.encode())

    for column, value in ((2, "nan"), (2, "-1.0"), (3, "1e6"), (4, "7")):
        bad, problems = run.check_call(config, tampered(column, value))
        assert bad == {0} and problems, (column, value)

    # a rounds.csv that differs from the first call's fails every repetition
    failed, problems = run.check_calls(config, [good, tampered(2, "nan")], good.csv)
    assert failed == config.repetitions and problems


def test_run_calls_stops_within_its_time_budget():
    start = time.perf_counter()
    calls, setup = run.run_calls(lambda i: time.sleep(0.04) or i, seconds=0.3)
    elapsed = time.perf_counter() - start
    assert calls == list(range(len(calls))) and setup == []
    assert len(calls) >= run.MIN_CALLS
    assert elapsed <= 0.3 + 0.04  # a call is started only if it should end in time


def test_aggregation_microbenchmark_covers_every_rule_and_size(hf):
    metrics, absent, problems = aggbench.run(hf.aggregation, seed=3)
    assert absent == [] and problems == []
    assert sorted(metrics) == sorted(f"aggregation.{r}.m{m}_us" for r in aggbench.RULES for m in aggbench.SIZES)
    assert all(v > 0 for v in metrics.values())


def test_metric_names_are_well_formed():
    names = [*run.END_TO_END, *run.per_layer_names()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", run.unit_of(name)), name


def test_benchmark_json_lists_exactly_the_workloads_and_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, run.unit_of(n)) for n in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run.unit_of(n)) for n in run.per_layer_names()]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
