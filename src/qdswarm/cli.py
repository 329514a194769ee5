"""Command line entry point.

Subcommands: evolve, reevaluate, faults, analyze, export. A run directory
(`--out`, default `runs/experiment`) holds one configuration, which only
`evolve` takes: `--config`, else the stored `config.txt` (a resume), with
`--seed` and `--preset` overriding its keys. Every later stage reads that
`config.txt`, preset included, and exits 2 without it (`analyze` of named
records.csv files needs no run); `evolve` and `export --what projection`
also exit 2 on a stored `config.txt` without a `preset` line. Still on
later stages: `--seed` (reevaluate, faults, analyze), through which
`benchmarks/run.py` re-seeds a copied run.

    qdswarm evolve --config my.cfg --out runs/demo [--seed S] [--preset P] [--threads N]
    qdswarm reevaluate --out runs/demo [--threads N]
    qdswarm faults --out runs/demo [--threads N]
    qdswarm analyze --out runs/demo [records.csv ...]
    qdswarm export --out runs/demo [--what triallog|descriptors|projection] [--cell K]

Exit code 0 on success; errors print a single machine-parsable line
`error: <message>` on stderr and exit 2 for an input error, 1 otherwise.
"""

import argparse
import sys
from pathlib import Path

from .experiment import (
    CONFIG_KEYS,
    PRESETS,
    ConfigError,
    parse_config_text,
    provenance,
    resolve_config,
    stage_analyze,
    stage_evolve,
    stage_export,
    stage_faults,
    stage_reevaluate,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdswarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    evolve_p = sub.add_parser("evolve", help="evolve archives")
    reeval_p = sub.add_parser("reevaluate", help="re-score elites in the normal environment")
    faults_p = sub.add_parser("faults", help="sample combined faults and measure recovery")
    analyze_p = sub.add_parser("analyze", help="signatures and pairwise statistics from records")
    export_p = sub.add_parser("export", help="export trial logs, descriptors, or a projection")
    evolve_p.add_argument("--config", help="configuration file (default: the run's config.txt)")
    for p in (evolve_p, reeval_p, faults_p, analyze_p, export_p):
        p.add_argument("--out", help="run directory")
    # benchmarks/run.py re-seeds a copied run through the later stages' --seed,
    # and its stored digests depend on that
    for p in (evolve_p, reeval_p, faults_p, analyze_p):
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")
    evolve_p.add_argument("--preset", choices=PRESETS, help="preset (overrides the config's)")
    for p in (evolve_p, reeval_p, faults_p):
        p.add_argument("--threads", type=int, default=1, help="parallel evaluation workers")
    analyze_p.add_argument("records", nargs="*", help="records.csv files (default: out/rep*/records.csv)")
    export_p.add_argument(
        "--what", choices=("triallog", "descriptors", "projection"), default="triallog"
    )
    export_p.add_argument("--cell", type=int, help="archive cell key (default: best elite)")
    return parser


def _load_config(args) -> dict:
    """`evolve` resolves `--config`, else the run's stored config.txt (a
    resume), else the preset defaults. Every later stage reads the run's
    config.txt and nothing else; only `analyze` of named records.csv files
    needs no run. The stages that read the preset, `evolve` and `export
    --what projection`, refuse a stored config.txt without a `preset` line:
    one written before the preset was stored would read as `desk`, whatever
    its run used."""
    run = Path(args.out or CONFIG_KEYS["out"][1])
    stored = run / "config.txt"
    text = stored.read_text(encoding="utf-8") if stored.exists() else None
    if (args.command == "evolve" or getattr(args, "what", None) == "projection") and (
        text is not None and "preset" not in parse_config_text(text)
    ):
        raise ConfigError(
            f"{stored} has no preset line; add the one its run used, "
            "'preset = desk' or 'preset = paper'"
        )
    overrides = {key: getattr(args, key, None) for key in ("seed", "preset")}
    overrides["out"] = str(run)
    if args.command == "evolve" and args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        overrides["out"] = args.out  # None keeps the file's `out`
    elif text is None:
        if args.command not in ("evolve", "analyze"):
            raise FileNotFoundError(f"{stored} does not exist; run the evolve stage first")
        text = ""
    return resolve_config(text, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads must be >= 1")
        config = _load_config(args)
        if args.command == "analyze":
            records = args.records or sorted(Path(config["out"]).glob("rep*/records.csv"))
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
    except (ConfigError, FileExistsError, FileNotFoundError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected: still one parsable line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
