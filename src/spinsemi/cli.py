"""Command-line front end.

Verbs:
    run <config>       run the experiment(s) described by a JSON config
    validate <config>  parse and validate only
    models             list the built-in Hamiltonian models
    selftest           run the structural invariant suite

Exit codes: 0 success, 2 validation problem, 3 numeric breakdown,
4 I/O failure.
"""

import argparse
import sys

from .config import available_models, build_model, parse_config
from .errors import ConfigError, SpinsemiError
from .runner import run_experiment
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsemi",
        description="Exact vs semiclassical entanglement dynamics of two coupled spins",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to the JSON configuration")
    run_p.add_argument("--output-dir", default=None, help="directory for output files")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress messages")

    val_p = sub.add_parser("validate", help="validate a config file without running")
    val_p.add_argument("config")

    sub.add_parser("models", help="list built-in Hamiltonian models")

    self_p = sub.add_parser("selftest", help="run the invariant suite")
    self_p.add_argument("--quiet", action="store_true")

    return parser


def _read(path):
    with open(path, "r") as fh:
        return fh.read()


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "models":
            for name, desc in available_models().items():
                print(f"{name}: {desc}")
            return EXIT_OK
        if args.verb == "selftest":
            return EXIT_OK if run_selftest(quiet=args.quiet) else EXIT_NUMERIC
        if args.verb == "validate":
            cfg = parse_config(_read(args.config))
            build_model(cfg)  # catches term lists that cannot assemble
            print(f"{args.config}: OK")
            return EXIT_OK
        if args.verb == "run":
            cfg = parse_config(_read(args.config))
            run_experiment(cfg, output_dir=args.output_dir, quiet=args.quiet)
            return EXIT_OK
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpinsemiError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
