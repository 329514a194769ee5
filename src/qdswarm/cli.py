"""Command line entry point.

Subcommands: evolve, reevaluate, faults, analyze, export. Later stages read
the resolved configuration that `evolve` wrote into the run directory, so a
typical pipeline is:

    qdswarm evolve --config my.cfg --out runs/demo
    qdswarm reevaluate --out runs/demo
    qdswarm faults --out runs/demo
    qdswarm analyze --out runs/demo runs/demo/rep00/records.csv

Exit code 0 on success; errors print a single machine-parsable line
`error: <message>` on stderr and exit nonzero.
"""

import argparse
import sys
from pathlib import Path

from .experiment import (
    PRESETS,
    ConfigError,
    provenance,
    resolve_config,
    stage_analyze,
    stage_evolve,
    stage_export,
    stage_faults,
    stage_reevaluate,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="configuration file (key = value lines)")
    parser.add_argument("--out", help="run directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")
    parser.add_argument("--preset", choices=PRESETS, default="desk", help="configuration preset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdswarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    evolve_p = sub.add_parser("evolve", help="evolve archives")
    reeval_p = sub.add_parser("reevaluate", help="re-score elites in the normal environment")
    faults_p = sub.add_parser("faults", help="sample combined faults and measure recovery")
    analyze_p = sub.add_parser("analyze", help="signatures and pairwise statistics from records")
    export_p = sub.add_parser("export", help="export trial logs, descriptors, or a projection")
    for p in (evolve_p, reeval_p, faults_p, analyze_p, export_p):
        _add_common(p)
    for p in (evolve_p, reeval_p, faults_p):
        p.add_argument("--threads", type=int, default=1, help="parallel evaluation workers")
    analyze_p.add_argument("records", nargs="*", help="records.csv files (default: out/rep*/records.csv)")
    export_p.add_argument(
        "--what", choices=("triallog", "descriptors", "projection"), default="triallog"
    )
    export_p.add_argument("--cell", type=int, help="archive cell key (default: best elite)")
    return parser


def _load_config(args) -> dict:
    """Resolve `--config`, else the config that the evolve stage stored in
    the run directory, else the preset defaults."""
    text = ""
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
    elif args.out and (Path(args.out) / "config.txt").exists():
        text = (Path(args.out) / "config.txt").read_text(encoding="utf-8")
    return resolve_config(args.preset, text, {"out": args.out, "seed": args.seed})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads must be >= 1")
        config = _load_config(args)
        if args.command == "analyze":
            records = list(args.records)
            if not records:
                records = sorted(str(p) for p in Path(config["out"]).glob("rep*/records.csv"))
            if not records:
                raise FileNotFoundError("no records.csv files found; run the faults stage first")
            stage_analyze(records, Path(config["out"]) / "analysis", header=provenance(config))
        elif args.command == "evolve":
            stage_evolve(config, n_jobs=args.threads)
        elif args.command == "reevaluate":
            stage_reevaluate(config, n_jobs=args.threads)
        elif args.command == "faults":
            stage_faults(config, n_jobs=args.threads)
        elif args.command == "export":
            stage_export(config, what=args.what, cell=args.cell)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected: still one parsable line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
