"""Repetition runner: seeded runs, summary statistics, file outputs.

Rep r of a config runs with base seed ``seed XOR r``.  One writer serves
``run_experiment``, one config, and ``sweep``, one config per value of one
axis: it runs each config, then appends its rows to ``rounds.csv`` and its
record to ``summary.json-lines``.  It makes the directory and both files
only once the first config has run, so a data error there leaves nothing
behind.  Floats are written with ``repr``, so CSV bytes are reproducible.
"""

from __future__ import annotations

import contextlib
import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, apply_axis, axis_value, config_digest
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


def _std(rows) -> list[float]:
    # sample standard deviation of each row (0.0 below two values); on contiguous
    # rows np.std sums each row as it sums that row alone, not in turn
    rows = np.ascontiguousarray(rows)
    if rows.shape[1] < 2:
        return [0.0] * len(rows)
    return [float(x) for x in np.std(rows, axis=1, ddof=1)]


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
        per_round_mean = [float(x) for x in losses.mean(axis=0)]
        per_round_std = _std(losses.T)
        final_mean, final_std = float(losses[:, -1].mean()), per_round_std[-1]
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


def _write(config, out_dir, points, axis=None) -> list[RunSummary]:
    """Run each ``(axis value, config)`` point, appending to the files in
    ``out_dir`` (default ``config.out_dir``); ``axis`` leads the CSV columns."""
    summaries = []
    with contextlib.ExitStack() as files:
        for value, point in points:
            runs, summary = run_repetitions(point)
            if not summaries:  # the first point ran, so its data loaded
                out = Path(config.out_dir if out_dir is None else out_dir)
                out.mkdir(parents=True, exist_ok=True)
                rows = csv.writer(files.enter_context(open(out / ROUNDS_CSV, "w", newline="", encoding="utf-8")))
                records = files.enter_context(open(out / SUMMARY_FILE, "w", encoding="utf-8"))
                rows.writerow(COLUMNS if axis is None else (axis, *COLUMNS))
            head = () if axis is None else (str(value),)
            for rep, stream in enumerate(runs):
                for rm in stream or ():
                    rows.writerow([*head, rep, rm.round_index, _format(rm.test_loss), _format(rm.param_err), rm.bytes_up])
            summary.axis, summary.axis_value = axis, value
            records.write(json.dumps(summary.record(), sort_keys=True) + "\n")
            summaries.append(summary)
    return summaries


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunSummary:
    """Run all repetitions and emit rounds.csv plus summary.json-lines."""
    return _write(config, out_dir, [(None, config)])[0]


def sweep(config: ExperimentConfig, axis: str, values, out_dir=None) -> list[RunSummary]:
    """One summary per axis value, as the axis reads it; all other keys fixed; combined CSV output."""
    points = [(axis_value(axis, v), apply_axis(config, axis, v)) for v in values]  # a bad value writes nothing
    return _write(config, out_dir, points, axis)
