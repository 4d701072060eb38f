"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 divergence in a required
strategy, in the excitation rollout or in MLP training, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import (REPORT_VERSION, SWEEP_ALPHAS, BenchConfig, alpha_sweep,
                    default_benchmark_config, make_inverse, output_dir,
                    run_comparison, run_strategy, write_json)
from .inverse import TrainingDiverged
from .stability import assemble_budget, stability_report
from .systems import SimulationDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _load_config(args) -> BenchConfig:
    if args.config is None:
        cfg = default_benchmark_config()
    else:
        cfg = BenchConfig.from_yaml(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _emit(payload: dict, args, rows=None):
    """Print a report as JSON, or as CSV rows when --format csv."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for row in rows if rows is not None else _flatten(payload):
            print(",".join(str(v) for v in row))


def _flatten(payload, prefix=""):
    rows = []
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.extend(_flatten(val, prefix=f"{name}."))
        else:
            rows.append((name, val))
    return rows


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    res = run_strategy(cfg, cfg.strategy)
    if args.out_dir is not None and res.log is not None:
        res.log.to_csv(output_dir(args.out_dir) / f"{cfg.strategy}_steps.csv")
    _emit({"version": REPORT_VERSION, "strategy": res.summary()}, args)
    return EXIT_DIVERGED if res.aborted else EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    report = run_comparison(cfg, out_dir=args.out_dir)
    rows = [("strategy", "rms_tracking", "rms_prediction", "aborted")]
    rows += [(s["name"], s["rms_tracking"], s["rms_prediction"], s["aborted"])
             for s in report.strategies.values()]
    _emit(report.payload(), args, rows=rows)
    if report.inverse_error is not None:
        raise report.inverse_error  # main names it on stderr and exits 3
    if any(s["aborted"] for s in report.strategies.values()):
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    cfg = _load_config(args)
    payload = alpha_sweep(cfg, cfg.sweep_alphas or SWEEP_ALPHAS,
                          out_dir=args.out_dir)
    rows = [("alpha", "bounded", "rms_tracking")]
    rows += [(r["alpha"], r["bounded"], r["rms_tracking"]) for r in payload["sweep"]]
    _emit(payload, args, rows=rows)
    return EXIT_OK


def cmd_similarity(args) -> int:
    cfg = _load_config(args)
    source = cfg.source.build()
    target = cfg.target.build()
    budget = assemble_budget(source, target)
    payload = stability_report(source, target, budget)
    if args.out_dir is not None:
        write_json(args.out_dir, "similarity.json", payload)
    _emit(payload, args)
    return EXIT_OK


def cmd_train_inverse(args) -> int:
    cfg = replace(_load_config(args), inverse_mode="mlp")
    model = make_inverse(cfg, cfg.source.build())
    out = output_dir("." if args.out_dir is None else args.out_dir)
    path = out / "inverse_model.npz"
    model.save(path)
    _emit({"version": REPORT_VERSION, "model_path": str(path),
           "validation_rmse": model.validation_rmse,
           "epochs_run": model.epochs_run}, args)
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    traj = replace(cfg.trajectory, kind="csv", csv_path=args.path).build()
    payload = {"version": REPORT_VERSION, "samples": int(traj.samples.size),
               "dt": traj.dt, "duration_s": traj.duration,
               "max_abs": float(np.max(np.abs(traj.samples)))}
    if args.out_dir is not None:
        dest = output_dir(args.out_dir) / "trajectory_resampled.csv"
        with open(dest, "w") as fh:
            fh.write("t,yd\n")
            for i, v in enumerate(traj.samples):
                fh.write(f"{i * traj.dt!r},{float(v)!r}\n")
        payload["resampled_path"] = str(dest)
    _emit(payload, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xfertrack",
        description="Inverse-module transfer with online error prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="YAML config (defaults to the bundled benchmark)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("simulate", help="run the configured strategy once")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="run baseline/offline/online side by side")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep-alpha", help="fixed-gain sweep with boundedness verdicts")
    common(p)
    p.set_defaults(fn=cmd_sweep_alpha)

    p = sub.add_parser("similarity", help="similarity and stability report for the pair "
                       "(stability budget with betas = (0, 0, 0))")
    common(p)
    p.set_defaults(fn=cmd_similarity)

    p = sub.add_parser("train-inverse", help="train and save the MLP inverse")
    common(p)
    p.set_defaults(fn=cmd_train_inverse)

    p = sub.add_parser("ingest", help="resample a t,yd CSV onto the config grid")
    p.add_argument("path", type=str)
    common(p)
    p.set_defaults(fn=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except SimulationDiverged as err:
        print(f"simulation diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:  # ConfigError included
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
