"""Repetition runner: seeded runs, summary statistics, file outputs.

``run_experiment`` executes the configured repetitions (rep r runs with
per-repetition base seed ``seed XOR r``), writes one per-round CSV and one
JSON-lines summary record, and returns the summary.  ``sweep`` repeats that
for each value of one axis into a combined CSV.  CSV bytes are reproducible:
floats are written with ``repr`` (shortest round-trip form).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, apply_axis, config_digest
from .engine import run
from .errors import NonFiniteState

ROUNDS_CSV = "rounds.csv"
SUMMARY_FILE = "summary.json-lines"
COLUMNS = ("rep", "round", "test_loss", "param_err", "bytes_up")


@dataclass
class RunSummary:
    """Aggregate statistics of one experiment (one config, many repetitions)."""

    digest: str
    algorithm: str
    repetitions: int
    rounds: int
    completed: list
    failed: list  # (rep, divergence round) pairs
    final_loss_mean: float | None
    final_loss_std: float | None
    per_round_mean: list
    per_round_std: list
    total_bytes: int
    wall_time_s: float
    axis: str | None = None
    axis_value: object = None

    def record(self) -> dict:
        return {**asdict(self), "failed": [{"rep": r, "round": t} for r, t in self.failed]}


def _std(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def run_repetitions(config: ExperimentConfig):
    """Execute all repetitions; a diverged repetition is recorded, not fatal."""
    start = time.perf_counter()
    runs, failed = [], []
    for rep in range(config.repetitions):
        try:
            runs.append(run(config, rep=rep))
        except NonFiniteState as exc:
            runs.append(None)
            failed.append((rep, exc.round_index))
    completed = [i for i, r in enumerate(runs) if r is not None]
    streams = [runs[i] for i in completed]
    if streams:
        losses = np.array([[rm.test_loss for rm in stream] for stream in streams])
        finals = losses[:, -1]
        per_round_mean = [float(x) for x in losses.mean(axis=0)]
        per_round_std = [_std(losses[:, j]) for j in range(losses.shape[1])]
        final_mean, final_std = float(finals.mean()), _std(finals)
        total_bytes = int(sum(rm.bytes_up for stream in streams for rm in stream))
    else:
        per_round_mean, per_round_std = [], []
        final_mean = final_std = None
        total_bytes = 0
    summary = RunSummary(
        digest=config_digest(config),
        algorithm=config.algorithm,
        repetitions=config.repetitions,
        rounds=config.rounds,
        completed=completed,
        failed=failed,
        final_loss_mean=final_mean,
        final_loss_std=final_std,
        per_round_mean=per_round_mean,
        per_round_std=per_round_std,
        total_bytes=total_bytes,
        wall_time_s=time.perf_counter() - start,
    )
    return runs, summary


def _format(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_rounds_csv(path, runs):
    """RFC-4180-style CSV, one row of ``COLUMNS`` per round of each completed run."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        _append_rows(writer, runs)


def _append_rows(writer, runs, head=()):
    for rep, stream in enumerate(runs):
        if stream is None:
            continue
        for rm in stream:
            writer.writerow([*head, rep, rm.round_index, _format(rm.test_loss), _format(rm.param_err), rm.bytes_up])


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunSummary:
    """Run all repetitions and emit rounds.csv plus summary.json-lines."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs, summary = run_repetitions(config)
    write_rounds_csv(out / ROUNDS_CSV, runs)
    with open(out / SUMMARY_FILE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary.record(), sort_keys=True) + "\n")
    return summary


def sweep(config: ExperimentConfig, axis: str, values, out_dir=None) -> list[RunSummary]:
    """One summary per axis value, all other fields fixed; combined CSV output."""
    configs = [apply_axis(config, axis, value) for value in values]  # a bad value writes nothing
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    with open(out / ROUNDS_CSV, "w", newline="", encoding="utf-8") as csv_fh:
        writer = csv.writer(csv_fh)
        writer.writerow([axis, *COLUMNS])
        with open(out / SUMMARY_FILE, "w", encoding="utf-8") as sum_fh:
            for value, cfg in zip(values, configs):
                runs, summary = run_repetitions(cfg)
                summary.axis = axis
                summary.axis_value = value
                _append_rows(writer, runs, head=(str(value),))
                sum_fh.write(json.dumps(summary.record(), sort_keys=True) + "\n")
                summaries.append(summary)
    return summaries
