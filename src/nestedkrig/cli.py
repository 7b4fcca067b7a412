"""Command-line front end.

Subcommands: ``simulate`` (prior GP samples), ``fit`` (build a model
bundle), ``predict`` (score a query file with any method), ``benchmark``
(the simulated comparison study), ``consistency`` (the clustered-design
error-trend demo) and ``loo-estimate`` (leave-one-out parameter fit).

Every command is deterministic given its flags; all randomness is seeded.
Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, baselines, metrics
from .bundle import load_bundle, save_bundle
from .config import RunConfig, load_config
from .data import (format_number, load_csv, load_points_csv,
                   partition_consecutive, partition_kmeans, partition_random,
                   write_json, write_table)
from .estimation import estimate
from .exceptions import (BundleError, CapExceeded, ConfigError, DimensionMismatch,
                         EmptyFile, InvalidGroupCount, InvalidHeight, InvalidTree,
                         NestedKrigError, OutputExists, ParseError)
from .gpcore import FullModel, SubModelBank, check_queries, sample_paths
from .tree import AggregationTree, map_chunks, nested_predict_batch, plan_tree
# read as cli.PREDICT_CHUNK by perfbench/run.py's cost model; unused here
from .tree import PREDICT_CHUNK  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

PREDICT_METHODS = ("nested", "full") + baselines.METHODS


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low):
    """argparse type: an integer of at least ``low``."""
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return integer


def _design_sizes(text):
    """argparse type of ``--sizes``: a comma-separated list of sizes >= 2."""
    sizes = [_at_least(2)(s) for s in text.split(",") if s.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("must list at least one design size")
    return sizes


def _build_layout(cfg: RunConfig, dataset):
    """Partition and tree implied by the configuration."""
    n = dataset.n
    if cfg.tree.mode == "flat":
        p = cfg.partition.p or max(1, int(round(np.sqrt(n))))
        tree = AggregationTree.flat(n, p)
    else:
        plan = plan_tree(n, cfg.tree.mode, cfg.tree.height)
        p, tree = plan.p, plan.tree
    if cfg.partition.mode == "kmeans":
        part = partition_kmeans(dataset.X, p, cfg.partition.seed)
    elif cfg.partition.mode == "random":
        part = partition_random(n, p, cfg.partition.seed)
    else:
        part = partition_consecutive(dataset.X, p)
    return part, tree


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    dataset = load_csv(args.train, cfg.data)
    kernel = cfg.kernel.for_dim(dataset.d)
    part, tree = _build_layout(cfg, dataset)

    if cfg.estimation.enabled:
        kernel = estimate(dataset, part, tree, kernel, cfg.estimation,
                          log_fn=print)

    save_bundle(args.out, kernel=kernel, X=dataset.X, y=dataset.y,
                partition=part, tree=tree, y_offset=dataset.y_offset,
                config_echo=cfg.echo(), force=args.force)
    print(f"wrote {args.out} (n={dataset.n}, d={dataset.d}, p={part.p}, "
          f"height={tree.height}, sigma2={kernel.variance:.6g})")
    return EXIT_OK


def _predict_arrays(bundle, method, Xq, threads, full_cap):
    """Means and variances of ``method`` at the rows of ``Xq``, from the one
    query loop ``tree.map_chunks`` on ``threads`` threads; ``nested`` makes
    one ``nested_predict_batch`` call per chunk."""
    kernel = bundle["kernel"]
    X, y = bundle["X"], bundle["y"]
    Xq = check_queries(kernel, Xq)  # before any model is built
    if method == "full":
        if X.shape[0] > full_cap:
            raise CapExceeded(
                f"full-model prediction refused: n={X.shape[0]} exceeds the "
                f"cap {full_cap}; exact conditioning costs O(n^3) time and "
                f"O(n^2) memory. Raise run.full_cap to override.")
        model = FullModel(kernel, X, y)
        evaluate = model.predict
    else:
        bank = SubModelBank(kernel, X, y, bundle["partition"])
        if method == "nested":
            tree = bundle["tree"]

            def evaluate(chunk):
                return nested_predict_batch(bank, tree, chunk)
        else:
            def evaluate(chunk):
                M, k, _ = bank.layer1(chunk, with_weights=False)
                return baselines.evaluate(
                    method, M, baselines.expert_variances(kernel.variance, k),
                    kernel.variance)

    means, variances = map_chunks(evaluate, Xq, threads)
    return means + bundle["y_offset"], variances


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    bundle = load_bundle(args.bundle)
    Xq = load_points_csv(args.query)
    means, variances = _predict_arrays(bundle, args.method, Xq,
                                       cfg.run.threads, cfg.run.full_cap)
    columns = ["mean", "variance"] if args.with_variance else ["mean"]
    write_table(args.out, [*bundle["config"], f"method={args.method}"], columns,
                zip(means, variances) if args.with_variance else zip(means))
    print(f"wrote {args.out} ({Xq.shape[0]} predictions, method={args.method})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    kernel = cfg.kernel
    if kernel.dim != 1:
        raise UsageError("simulate draws on a 1-d grid; configure a 1-d kernel")
    grid = np.linspace(0.0, 1.0, args.points).reshape(-1, 1)
    draws = sample_paths(kernel, grid, args.count, args.seed)
    write_table(args.out, cfg.echo() + [f"seed={args.seed}"],
                ["x"] + [f"sample_{i}" for i in range(args.count)],
                zip(grid[:, 0], *draws))
    print(f"wrote {args.out} ({args.points} points, {args.count} samples)")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    reports = []
    for rep, seed in enumerate(range(args.seed, args.seed + args.replications)):
        instance = metrics.benchmark_instance(seed)
        reports += metrics.replication_reports(rep, instance)
        if rep == 0:
            grid, _, results = instance
    header = [f"replications={args.replications}", f"seed={args.seed}"]
    reports_path = os.path.join(args.out_dir, "reports.csv")
    summary_path = os.path.join(args.out_dir, "summary.json")
    plot_path = os.path.join(args.out_dir, "plotdata.csv")
    metrics.write_reports_csv(reports, reports_path, header_lines=header)
    metrics.write_summary_json(reports, summary_path,
                               extra={"replications": args.replications,
                                      "seed": args.seed})
    metrics.write_plot_data(plot_path, grid, results, header_lines=header)
    for method, row in metrics.summarize_medians(reports).items():
        print(f"{method}: median mse={row['mse']:.6g} mve={row['mve']:.6g} "
              f"mnlp={row['mnlp']:.6g}")
    print(f"wrote {reports_path}, {summary_path}, {plot_path}")
    return EXIT_OK


def cmd_consistency(args) -> int:
    trend = metrics.run_consistency_demo(args.sizes, args.method,
                                         replicates=args.replicates,
                                         seed=args.seed)
    write_table(args.out, [f"method={args.method} replicates={args.replicates} "
                           f"seed={args.seed}"],
                ["n", "mse_at_x0"], ((str(n), mse) for n, mse in trend))
    first, last = trend[0][1], trend[-1][1]
    print(f"{args.method}: mse {first:.6g} (n={trend[0][0]}) -> "
          f"{last:.6g} (n={trend[-1][0]}), ratio {last / first:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_loo_estimate(args) -> int:
    cfg = load_config(args.config)
    dataset = load_csv(args.train, cfg.data)
    kernel = cfg.kernel.for_dim(dataset.d)
    part, tree = _build_layout(cfg, dataset)
    kernel = estimate(dataset, part, tree, kernel, cfg.estimation, log_fn=print)
    theta_txt = ",".join(format_number(t) for t in kernel.lengthscales)
    print(f"theta={theta_txt} sigma2={format_number(kernel.variance)}")
    if args.out:
        write_json(args.out, {"theta": list(kernel.lengthscales),
                              "sigma2": kernel.variance,
                              "family": kernel.family})
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nestedkrig",
                     description="Nested Kriging aggregation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model bundle from a training CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("predict", help="predict a query CSV from a bundle")
    p.add_argument("--config", default=None)
    p.add_argument("--bundle", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="nested", choices=PREDICT_METHODS)
    p.add_argument("--with-variance", action="store_true")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("simulate", help="sample prior GP paths on a grid")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=_at_least(1), default=101)
    p.add_argument("--count", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("benchmark", help="replicated method comparison study")
    p.add_argument("--replications", type=_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("consistency", help="error trend on the clustered design")
    p.add_argument("--method", default="nested", choices=PREDICT_METHODS)
    p.add_argument("--sizes", type=_design_sizes, default="50,100,200,400")
    p.add_argument("--replicates", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_consistency)

    p = sub.add_parser("loo-estimate", help="leave-one-out parameter estimation")
    p.add_argument("--config", default=None)
    p.add_argument("--train", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_loo_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, DimensionMismatch, InvalidGroupCount, InvalidHeight,
            InvalidTree, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BundleError, ConfigError, EmptyFile, OutputExists, ParseError,
            OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (np.linalg.LinAlgError, NestedKrigError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
