"""Command line entry point: run one scenario, emit CSV reports.

Exit codes: 0 on success, 1 on a configuration or usage error, 2 when
live invariant checking (``--check-invariants``) catches a violation.
The ``TSSIM_LOG`` environment variable selects stderr log verbosity
(debug, info, warning, error; default warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from tssim.config import OVERLAYS, ScenarioConfig, parse_config, parse_field, validate_config
from tssim.engine import InvariantViolation
from tssim.metrics import emit_report, run_scenario

log = logging.getLogger("tssim")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    invariant violations, so usage problems become exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _field_value(key: str):
    """The argparse type of a flag that overrides config field `key`:
    the scenario file's rule for that field. argparse reports only an
    ArgumentTypeError's own message, so the rule's ValueError becomes one."""

    def value(text: str):
        try:
            return parse_field(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tssim",
        description="Simulate a time-shifted streaming overlay and write "
                    "summary.csv, replicas.csv, hops.csv, and load.csv.",
    )
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="scenario file (key = value lines)")
    parser.add_argument("--overlay", choices=OVERLAYS,
                        help="override the config's overlay")
    parser.add_argument("--seed", type=_field_value("seed"), metavar="U64",
                        help="override the config's seed")
    parser.add_argument("--horizon", type=_field_value("horizon_s"), metavar="SECONDS",
                        help="override the config's horizon")
    parser.add_argument("--out", default="tssim-out", metavar="DIR",
                        help="report directory (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=1, metavar="N",
                        help="consecutive seeds to run (default: 1)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="verify overlay invariants while running; "
                             "a violation exits with status 2")
    return parser


def _init_logging() -> None:
    level_name = os.environ.get("TSSIM_LOG", "warning").strip().lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str) -> tuple[ScenarioConfig | None, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return None, [f"cannot read config {path!r}: {exc.strerror or exc}"]
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    _init_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.runs < 1:
        print("tssim: error: --runs must be at least 1", file=sys.stderr)
        return 1

    config, errors = load_config(args.config)
    if errors:
        for err in errors:
            print(f"tssim: config: {err}", file=sys.stderr)
        return 1
    assert config is not None

    overlay = args.overlay or config.overlay
    base_seed = config.seed if args.seed is None else args.seed
    # the batch's last seed must be a valid seed too, checked before any
    # run; config passed every rule, so only that seed can fail one
    problems = validate_config(replace(config, seed=base_seed + args.runs - 1))
    if problems:
        print(f"tssim: error: --runs {args.runs} from seed {base_seed}: {problems[0]}",
              file=sys.stderr)
        return 1
    log.info("overlay=%s base_seed=%d runs=%d", overlay, base_seed, args.runs)

    for offset in range(args.runs):
        seed = base_seed + offset
        out_dir = (args.out if args.runs == 1
                   else os.path.join(args.out, f"run-{seed}"))
        try:
            report = run_scenario(config, overlay=overlay, seed=seed,
                                  horizon=args.horizon,
                                  check_invariants=args.check_invariants)
        except InvariantViolation as exc:
            print(f"tssim: invariant violation: {exc}", file=sys.stderr)
            return 2
        try:
            paths = emit_report(report, out_dir)
        except OSError as exc:
            print(f"tssim: cannot write reports to {out_dir!r}: {exc}",
                  file=sys.stderr)
            return 1
        availability = report.scalars.get("availability_ratio", 0.0)
        log.info("seed=%d availability=%.4f wrote %d files to %s",
                 seed, availability, len(paths), out_dir)
        print(f"seed {seed}: availability {availability:.4f}, "
              f"reports in {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
