"""Command-line entry point.

    planegbp run --config cfg.json [--solver gbp|gbp-routed|lm] [--seed N]
                 [--out DIR] [--no-planes] [--no-compression]
    planegbp compare DIR [DIR ...] [--out FILE]
    planegbp export --graph graph.json [--out FILE]

`--seed N` sets the run's, the GBP engine's and the scene's seed. A config
whose `gbp.seed` or `scene.seed` is not its `seed` is a configuration error.

Exit codes: 0 success, 2 configuration error, 3 runtime contract violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CapacityError, ContractViolation, FormatError
from . import harness, io_formats

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planegbp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--solver", choices=harness.SOLVERS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--no-planes", action="store_true")
    p_run.add_argument("--no-compression", action="store_true")

    p_cmp = sub.add_parser("compare", help="tabulate results across run dirs")
    p_cmp.add_argument("dirs", nargs="+")
    p_cmp.add_argument("--out")

    p_exp = sub.add_parser("export", help="reconstruction from a graph file")
    p_exp.add_argument("--graph", required=True)
    p_exp.add_argument("--out")
    return parser


def _cmd_run(args) -> int:
    try:
        doc = io_formats.read_json(args.config, "experiment-config")
        config = harness.ExperimentConfig.from_dict(doc)
        if args.solver:
            config.solver = args.solver
        if args.seed is not None:
            config.seed = config.gbp.seed = args.seed
            if config.scene is not None:
                config.scene.seed = args.seed
        if args.out:
            config.out_dir = args.out
        if args.no_planes:
            config.planes = False
        if args.no_compression:
            config.compression = False
        if config.out_dir is None:
            raise FormatError("no output directory (config out_dir or --out)")
    except (ContractViolation, TypeError) as exc:
        raise FormatError(f"invalid configuration: {exc}") from exc
    result = harness.run(config)
    s = result.summary
    print(
        f"{config.solver}: {s['n_iterations']} iterations, "
        f"ate={s['ate_cm']:.4g} cm, "
        f"confirmed={s['n_confirmed']} rejected={s['n_rejected']} "
        f"merged={s['n_merged']} -> {config.out_dir}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    comparison = harness.compare_runs(args.dirs)
    for row in comparison["runs"]:
        print(
            f"{row['dir']}: solver={row['solver']} ate={row['ate_cm']:.4g} cm "
            f"factors={row['final_factors']}"
        )
    if args.out:
        io_formats.write_json(args.out, "comparison", comparison)
    return EXIT_OK


def _cmd_export(args) -> int:
    graph = io_formats.read_graph(args.graph)
    recon = harness.export_reconstruction(graph)
    out = args.out or (str(Path(args.graph).with_name("reconstruction.json")))
    io_formats.write_json(out, "reconstruction", recon)
    print(f"{len(recon['planes'])} planes, {len(recon['raw_points'])} raw points -> {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "export":
            return _cmd_export(args)
        return EXIT_CONFIG
    except (FormatError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractViolation, CapacityError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
