"""Command-line interface.

Subcommands:
  run <config>                          execute one experiment config
  sweep <config> --axis A --values ...  one run per axis value
  verify <scope> [<scope> ...]          certification suites
  flops <shape spec>                    cost-model evaluation, e.g.
                                        "m=4096,n=4096,ell=256,q=5,h=1"

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import config as config_mod, runner, suites
from .errors import ConfigError, NumericalAbortError, PolarmuonError, PreconditionError
from .verify import FlopModel, flop_counts

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3


def _mean_min_grad_norm(report, with_std: bool = False) -> str:
    """The aggregate as printed, or "n/a" when no seed recorded a step."""
    mean = report.mean_min_grad_norm
    if mean is None:
        return "n/a"
    return f"{mean:.6g} (+/- {report.std_min_grad_norm:.3g})" if with_std else f"{mean:.6g}"


def _cmd_run(args) -> int:
    cfg = config_mod.load(args.config)
    report = runner.run_experiment(cfg)
    print(
        f"run: {len(cfg.seeds)} seed(s), K={cfg.optimizer.K}, "
        f"mean min grad norm = {_mean_min_grad_norm(report, with_std=True)}, "
        f"cumulative FLOPs over all seeds = {report.cum_flops}"
    )
    if report.aborted:
        print("run aborted on a non-finite or zero step; partial CSV retained", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
    return EXIT_OK


def _join_sweep_values(argv: list[str]) -> list[str]:
    """``sweep ... --values -1,3 5`` as ``--values=-1,3,5``.

    argparse reads a token such as ``-1,3`` as an option, so the tokens after
    ``--values``, up to the next ``--`` option, are passed as one value list.
    """
    if not argv or argv[0] != "sweep" or "--values" not in argv:
        return argv
    i = argv.index("--values")
    j = i + 1
    while j < len(argv) and not argv[j].startswith("--"):
        j += 1
    if j == i + 1:
        return argv  # no values: argparse reports it
    return argv[:i] + ["--values=" + ",".join(argv[i + 1 : j])] + argv[j:]


def _parse_values(raw: list[str]):
    vals = []
    for chunk in raw:
        for v in chunk.split(","):
            v = v.strip()
            if v:
                try:
                    vals.append(float(v) if "." in v else int(v))
                except ValueError as e:
                    raise ConfigError(f"sweep: bad axis value {v!r}") from e
    if not vals:
        raise ConfigError("sweep: no axis values given")
    return vals


def _cmd_sweep(args) -> int:
    cfg = config_mod.load(args.config)
    cells = runner.sweep(cfg, args.axis, _parse_values(args.values))
    failed = False
    for cell in cells:
        if cell.report is None:
            print(f"{args.axis}={cell.value}: FAILED ({cell.error})")
            failed = True
        else:
            flag = " [aborted]" if cell.report.aborted else ""
            if cell.report.aborted:
                failed = True
            print(
                f"{args.axis}={cell.value}: mean min grad norm = "
                f"{_mean_min_grad_norm(cell.report)}{flag}"
            )
    return EXIT_NUMERICAL_ABORT if failed else EXIT_OK


def _cmd_verify(args) -> int:
    status, results = suites.verify_suite(args.scopes, args.output_dir)
    for r in results:
        print(r)
    return EXIT_OK if status == 0 else EXIT_CHECK_FAILURE


def _parse_shape_spec(spec: str) -> FlopModel:
    """Parse "m=..,n=..,ell=..,q=..[,h=..]"; any bad spec is a ConfigError."""
    fields = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"flops: expected key=value, got {chunk!r}")
        key, val = (s.strip() for s in chunk.split("=", 1))
        if key not in ("m", "n", "ell", "q", "h"):
            raise ConfigError(f"flops: unknown field {key!r} (choose from m, n, ell, q, h)")
        if key in fields:
            raise ConfigError(f"flops: field {key!r} given twice")
        try:
            fields[key] = int(val)
        except ValueError as e:
            raise ConfigError(f"flops: {key}: {e}") from e
    try:
        return FlopModel(**fields)
    except (TypeError, PreconditionError) as e:  # TypeError: a field is missing
        raise ConfigError(f"flops: {e}") from e


def _cmd_flops(args) -> int:
    model = _parse_shape_spec(args.shape)
    full, rand, ratio = flop_counts(model)
    print(f"full-space polar FLOPs:  {full}")
    print(f"randomized polar FLOPs:  {rand}")
    print(f"reduction ratio:         {ratio:.2f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept for the process: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="polarmuon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=runner.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, nargs="+")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run certification suites")
    p_verify.add_argument("scopes", nargs="+", choices=sorted(suites.SCOPES))
    p_verify.add_argument("--output-dir", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_flops = sub.add_parser("flops", help="evaluate the FLOP cost model")
    p_flops.add_argument("shape", help='e.g. "m=4096,n=4096,ell=256,q=5,h=1"')
    p_flops.set_defaults(func=_cmd_flops)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_sweep_values(argv))
    except SystemExit as e:  # argparse printed its usage error (2) or the help (0)
        return EXIT_OK if not e.code else EXIT_CONFIG_ERROR
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalAbortError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
    except PolarmuonError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
