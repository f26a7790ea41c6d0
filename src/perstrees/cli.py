"""Command-line entry points.

Subcommands: gen-data, train, predict, evaluate, submatch, export-mip,
experiment. Every command is a thin shell over the library; outputs
are deterministic for a fixed seed, so reruns are byte-identical.

Exit codes: 0 success, 1 usage/configuration error, 2 data or
feasibility error. `perstrees -v <command>` prints the package's DEBUG
log records to stderr; stdout and every written file stay the same.
"""

import argparse
import functools
import json
import logging
import math
import sys

from .data import _json_file, generate_synthetic, load_csv, save_csv
from .errors import ConfigError, ParseError, PerstreesError
from .experiment import (
    ALGORITHMS,
    Protocol,
    _matched_set,
    experiment_config_from_doc,
    fit_algorithm,
    run_experiment,
    synthetic_spec_from_doc,
)
from .model_io import load_model, save_model
from .opt import OptConfig, TreeSkeleton, build_cut_menu, build_mip, export_mps, names_path
from .risk import oracle_metrics, prescriptions
from .submatch import matched_metrics, save_matched_csv


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_data_args(p):
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--treatment-col", default="treatment")
    p.add_argument("--outcome-col", default="outcome")
    p.add_argument("--cf-cols", default=None, help="comma-separated counterfactual columns")
    p.add_argument("--q-col", default=None, help="propensity column")


def _load_data(args):
    cf = args.cf_cols.split(",") if args.cf_cols else None
    return load_csv(
        args.data,
        treatment_col=args.treatment_col,
        outcome_col=args.outcome_col,
        cf_cols=cf,
        q_col=args.q_col,
    )


def _metric_value(v):
    return None if math.isnan(v) else v


def cmd_gen_data(args):
    spec = synthetic_spec_from_doc(_json_file(args.spec))
    ds = generate_synthetic(spec)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows ({ds.d} features, {ds.m} treatments) to {args.out}")
    return 0


def cmd_train(args):
    ds = _load_data(args)
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"--params: invalid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    policy = fit_algorithm(args.algo, ds, params, args.seed)
    save_model(policy, args.out)
    print(f"trained {args.algo} on {ds.n} subjects; model at {args.out}")
    return 0


def cmd_predict(args):
    policy = load_model(args.model)
    ds = _load_data(args)
    pres = prescriptions(policy, ds.X)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("prescription\n")
        fh.writelines(f"{int(t)}\n" for t in pres)
    print(f"wrote {len(pres)} prescriptions to {args.out}")
    return 0


def cmd_evaluate(args):
    policy = load_model(args.model)
    ds = _load_data(args)
    if args.oracle:
        score = oracle_metrics(ds, policy)
        doc = {"protocol": "oracle", "n_test": ds.n}
    else:
        protocol = (Protocol("greedy-submatch", n_test=args.greedy) if args.greedy is not None
                    else Protocol("optimal-submatch", n_pair=args.optimal))
        mts = _matched_set(ds, protocol, args.seed)
        doc = {"protocol": protocol.kind, "n_test": mts.n_test}
        score = matched_metrics(mts, policy)
    doc["risk"] = score.risk
    doc["p1"] = _metric_value(score.p1)
    doc["p2"] = _metric_value(score.p2)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_submatch(args):
    ds = _load_data(args)
    protocol = Protocol(f"{args.method}-submatch", args.n_test, args.n_pair)
    mts = _matched_set(ds, protocol, args.seed)
    save_matched_csv(mts, args.out)
    print(f"matched {mts.n_test} test subjects ({len(mts.removed)} removed) to {args.out}")
    return 0


def cmd_export_mip(args):
    ds = _load_data(args)
    flags = ("delta", "n_min_leaf", "n_features", "n_cuts", "seed")
    cfg = OptConfig(**{k: getattr(args, k) for k in flags if getattr(args, k) is not None})
    skeleton = TreeSkeleton(cfg.delta)
    menu = build_cut_menu(ds, skeleton, cfg)
    model = build_mip(ds, skeleton, menu, cfg)
    export_mps(model, args.out)
    n_rows, n_cols = model.A.shape
    print(
        f"wrote {n_cols} variables ({model.n_binary} binary), "
        f"{n_rows} constraints to {args.out}; names at {names_path(args.out)}"
    )
    return 0


def cmd_experiment(args):
    config = experiment_config_from_doc(_json_file(args.config))
    rows = run_experiment(config)
    print(f"wrote {len(rows)} rows to {config.output}")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    as it was."""
    parser = _Parser(prog="perstrees", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log DEBUG records of the perstrees logger to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="fit a policy and save it as JSON")
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    _add_data_args(p)
    p.add_argument("--params", default=None, help="JSON object of algorithm parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="prescribe treatments for a dataset")
    p.add_argument("--model", required=True)
    _add_data_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score a saved policy on a dataset")
    p.add_argument("--model", required=True)
    _add_data_args(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--oracle", action="store_true", help="use counterfactual columns")
    mode.add_argument("--greedy", type=int, metavar="N_TEST", help="greedy submatched test set")
    mode.add_argument("--optimal", type=int, metavar="N_PAIR", help="optimal submatched pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the metrics JSON here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("submatch", help="build a matched test set CSV")
    _add_data_args(p)
    p.add_argument("--method", required=True, choices=["greedy", "optimal"])
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--n-pair", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_submatch)

    p = sub.add_parser("export-mip", help="write the optimal-tree MIP as MPS")
    _add_data_args(p)
    p.add_argument("--delta", type=int)
    p.add_argument("--n-min-leaf", type=int)
    p.add_argument("--n-features", type=int)
    p.add_argument("--n-cuts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_mip)

    p = sub.add_parser("experiment", help="run a learning-curve experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("perstrees")
    level = logger.level
    handler = logging.StreamHandler(sys.stderr)
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"perstrees: error: {exc}", file=sys.stderr)
        return 1
    except (PerstreesError, OSError) as exc:
        print(f"perstrees: error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
