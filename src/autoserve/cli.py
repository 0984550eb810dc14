"""autoserve-sim command line.

    autoserve-sim run   --config cfg.json [--seed N] [--uavs N] [--lps N]
                        [--duration S] [--trace out.jsonl] [--report out.json]
    autoserve-sim sweep --config cfg.json --seeds N [--seed BASE] [...]
    autoserve-sim dump  FD0100...

`run` exits 0 when the simulation passes, 2 when it fails, 1 on any
error. Flags override values from the config file; with no config file
the documented defaults apply.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .sim import InvalidConfig, SimConfig, run_sim, sweep
from .wire import FrameDecodeError, dump_frame

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which would collide
    # with the simulation-failed exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autoserve-sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file mirroring SimConfig fields")
        p.add_argument("--seed", type=int, help="random seed (base seed for sweep)")
        p.add_argument("--uavs", type=int, help="number of aerial platforms")
        p.add_argument("--lps", type=int, help="number of landing platforms")
        p.add_argument("--duration", type=int, help="simulated seconds")

    run_p = sub.add_parser("run", help="run one simulation")
    add_common(run_p)
    run_p.add_argument("--trace", help="write a JSON-lines trace to this path")
    run_p.add_argument("--report", help="write the report JSON to this path")

    sweep_p = sub.add_parser("sweep", help="run consecutive seeds, report pass rate")
    add_common(sweep_p)
    sweep_p.add_argument("--seeds", type=int, required=True, help="number of seeds")
    sweep_p.add_argument("--report", help="write the sweep summary JSON to this path")

    dump_p = sub.add_parser("dump", help="decode a hex frame, one field per line")
    dump_p.add_argument("hex_frame", help="frame bytes as a hex string")
    return parser


def _load_config(args) -> SimConfig:
    cfg = SimConfig.from_file(args.config) if args.config else SimConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.uavs is not None:
        overrides["n_uavs"] = args.uavs
    if args.lps is not None:
        overrides["n_lps"] = args.lps
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as trace:
            report = run_sim(cfg, trace=trace)
    else:
        report = run_sim(cfg)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    fleet_min = min(report.min_battery_pct.values())
    print(f"outcome={report.outcome}")
    print(f"fleet_min_battery_pct={fleet_min:.2f}")
    print(f"services_completed={sum(report.services_completed.values())}")
    print(
        "queue_wait_s="
        f"mean {report.queue_wait_mean_s:.1f} / max {report.queue_wait_max_s:.1f}"
        f" over {report.queue_wait_count}"
    )
    for failure in report.failures:
        # repr, since rounding can print a battery just below the threshold as at it.
        print(
            f"failure uav={failure['uav']} t={failure['t']:.0f}"
            f" battery={failure['battery_pct']!r}"
        )
    for reason, count in report.drops.items():
        print(f"drop reason={reason} count={count}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_sweep(args) -> int:
    import statistics  # for the quartiles alone; run need not load it

    cfg = _load_config(args)
    runs = [
        {
            "seed": seed,
            "outcome": report.outcome,
            "fleet_min_battery_pct": min(report.min_battery_pct.values()),
        }
        for seed, report in enumerate(sweep(cfg, args.seeds), start=cfg.seed)
    ]
    pass_count = sum(run["outcome"] == "PASS" for run in runs)
    pass_rate = pass_count / len(runs)
    values = sorted(run["fleet_min_battery_pct"] for run in runs)
    print(
        f"seeds={len(runs)} base_seed={cfg.seed} "
        f"pass={pass_count}/{len(runs)} ({pass_rate:.1%})"
    )
    if len(values) >= 3:  # quartiles of fewer values extrapolate past them
        quartiles = statistics.quantiles(values, n=4)
        print(
            "fleet_min_battery_pct: "
            f"min={values[0]:.2f} p25={quartiles[0]:.2f} median={quartiles[1]:.2f} "
            f"p75={quartiles[2]:.2f} max={values[-1]:.2f}"
        )
    else:
        print(f"fleet_min_battery_pct: min={values[0]:.2f} max={values[-1]:.2f}")
    for run in runs:
        print(
            f"seed={run['seed']} outcome={run['outcome']} "
            f"min_battery={run['fleet_min_battery_pct']:.2f}"
        )
    if args.report:
        summary = {
            "pass_count": pass_count, "total": len(runs), "pass_rate": pass_rate, "runs": runs
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_PASS


def _cmd_dump(args) -> int:
    try:
        data = bytes.fromhex(args.hex_frame.replace(" ", ""))
    except ValueError:
        print("dump: argument is not valid hex", file=sys.stderr)
        return EXIT_ERROR
    print(dump_frame(data))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_dump(args)
    except SystemExit as exc:
        # Raised by _Parser.error with a message payload.
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_ERROR
        raise
    except (InvalidConfig, FrameDecodeError, OSError) as exc:
        print(f"autoserve-sim: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
