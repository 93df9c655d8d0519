"""Command-line experiment runner.

Exit codes: 0 success, 1 config or data error, 2 every repetition diverged.
"""

from __future__ import annotations

import argparse
import sys

from .config import echo_config, parse_config
from .errors import ConfigError, HeavyFedError
from .runner import run_experiment, sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavyfed",
        description="Byzantine-resilient gradient descent on heavy-tailed data, simulated at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides the config's out_dir)")

    p_sweep = sub.add_parser("sweep", help="repeat the experiment across one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, help="a section.key, or alpha, sigma_x, N, m or compressor")
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out")

    p_validate = sub.add_parser("validate", help="check a config file and echo resolved values")
    p_validate.add_argument("config")

    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.command == "validate":
            print(echo_config(config))
            return 0
        if args.command == "run":
            summaries = [run_experiment(config, args.out)]
        else:
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            if not values:
                raise ConfigError("values", "no axis values given")
            summaries = sweep(config, args.axis, values, args.out)
    except HeavyFedError as exc:  # a ConfigError, or a data error raised loading or splitting the data
        print(f"{'config error' if isinstance(exc, ConfigError) else 'error'}: {exc}", file=sys.stderr)
        return 1
    if all(not s.completed for s in summaries):
        print("all repetitions diverged", file=sys.stderr)
        return 2
    for s in summaries:
        tag = f"{s.axis}={s.axis_value} " if s.axis else ""
        loss = "n/a" if s.final_loss_mean is None else f"{s.final_loss_mean:.6g}"
        print(f"{tag}final_loss_mean={loss} failed={len(s.failed)}/{s.repetitions} bytes={s.total_bytes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
