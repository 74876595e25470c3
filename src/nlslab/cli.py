"""Command-line entry point.

Subcommands map to experiment scenarios:

    nlslab ground-state  [--config cfg.json] [--out DIR] [--check]
    nlslab spectrum      [--config cfg.json] [--out DIR] [--check]
    nlslab build-series  [--config cfg.json] [--out DIR] [--check]
    nlslab wpm           [--config cfg.json] [--sign {+1,-1}] [--out DIR] [--check]
    nlslab classify       --config cfg.json  [--out DIR] [--check]
    nlslab sweep          --config cfg.json  [--out DIR] [--workers N] [--check]

Exit status: 0 on success, 1 when --check assertions fail, 2 on config errors
and a --workers below 1.
"""

import argparse
import json
import sys

from . import discretization as dz
from . import experiments as ex

_SCENARIO_OF = {
    "ground-state": "ground-state",
    "spectrum": "spectrum",
    "build-series": "build-series",
    "wpm": "evolve-near-solution",
    "classify": "classify-custom",
    "sweep": "sweep",
}


def _load_config(path):
    with open(path) as f:
        return json.load(f)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="Numerical laboratory for the threshold solutions of the "
                    "radial focusing energy-critical NLS")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCENARIO_OF:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON scenario config")
        p.add_argument("--out", default="runs", help="output root directory")
        p.add_argument("--check", action="store_true",
                       help="fail (exit 1) when embedded acceptance checks fail")
        if name == "wpm":
            p.add_argument("--sign", type=int, choices=(1, -1), default=None,
                           help="which threshold solution to run")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="number of processes for the sweep cells: at least 1, "
                                "capped at the allowed CPUs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    scenario = _SCENARIO_OF[args.command]
    if args.config is not None:
        try:
            cfg = _load_config(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            print("error reading config %s: %s" % (args.config, exc), file=sys.stderr)
            return 2
    else:
        if args.command in ("classify", "sweep"):
            print("%s requires --config" % args.command, file=sys.stderr)
            return 2
        cfg = {}
    if isinstance(cfg, dict):  # else ex.run reports it as a config error
        cfg.setdefault("scenario", scenario)
        if cfg["scenario"] != scenario:
            print("config scenario %r does not match subcommand %r"
                  % (cfg["scenario"], args.command), file=sys.stderr)
            return 2
        if args.command == "wpm" and args.sign is not None:
            cfg["sign"] = args.sign

    try:
        manifest = ex.run(cfg, out_dir=args.out, workers=getattr(args, "workers", 1),
                          check=args.check)
    except ex.ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(dz.dumps({"run_dir": manifest["run_dir"], "ok": manifest["ok"],
                    "checks": manifest["checks"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
