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
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np

from . import __version__, baselines, metrics
from .bundle import load_bundle, save_bundle
from .config import RunConfig, load_config
from .data import (CsvSchema, load_csv, load_points_csv, partition_consecutive,
                   partition_kmeans, partition_random)
from .estimation import (SgdConfig, SgdSettings, estimate_sigma2,
                         grid_profile_loglik, loo_predict, sgd_fit,
                         sgd_fit_two_phase)
from .exceptions import (CapExceeded, ConfigError, DimensionMismatch, EmptyFile,
                         InvalidGroupCount, InvalidHeight, InvalidTree,
                         NestedKrigError, NonPositiveVariance, NotFactorizable,
                         OutputExists, ParseError)
from .gpcore import FullModel, SubModelBank, sample_paths
from .kernels import KernelSpec
from .metrics import _fmt
from .tree import PREDICT_CHUNK, AggregationTree, nested_predict_batch, plan_tree

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


def _thread_count(flag_value, cfg: RunConfig) -> int:
    if flag_value and flag_value > 0:
        return flag_value
    if cfg.run.threads > 0:
        return cfg.run.threads
    env = os.environ.get("NESTEDKRIG_THREADS", "")
    try:
        value = int(env)
    except ValueError:
        value = 0
    return value if value > 0 else 1


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


def _schema(cfg: RunConfig) -> CsvSchema:
    return CsvSchema(response=cfg.data.response or None,
                     center_response=cfg.data.center_response)


def _sgd_config(cfg: RunConfig, dataset, partition) -> SgdConfig:
    est = cfg.estimation
    theta0 = cfg.kernel.lengthscales
    if len(theta0) == 1 and dataset.d > 1:
        theta0 = theta0 * dataset.d
    if est.grid_start:
        # coarse summed-log-likelihood search seeds the gradient descent
        base = np.asarray(theta0, dtype=float)
        candidates = [tuple(base * s) for s in (0.125, 0.25, 0.5, 1.0, 2.0,
                                                4.0, 8.0)]
        start = grid_profile_loglik(dataset, partition, cfg.kernel.family,
                                    candidates)
        theta0 = start.lengthscales
    settings = {f.name: getattr(est, f.name) for f in fields(SgdSettings)}
    return SgdConfig(theta0=theta0, **settings)


def _estimate(cfg: RunConfig, dataset, part, tree, kernel: KernelSpec):
    """Two-step estimation: length-scales by gradient descent, then the
    process variance from leave-one-out predictions under ``kernel`` with
    those length-scales.  Returns (that kernel, sigma2)."""
    sgd_cfg = _sgd_config(cfg, dataset, part)
    fit_fn = sgd_fit_two_phase if cfg.estimation.two_phase else sgd_fit
    result = fit_fn(dataset, part, tree, sgd_cfg, family=kernel.family,
                    log_fn=print)
    kernel = kernel.with_lengthscales(result.theta)
    records = loo_predict(dataset, part, tree, kernel)
    return kernel, estimate_sigma2(records, dataset.y)


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    dataset = load_csv(args.train, _schema(cfg))
    part, tree = _build_layout(cfg, dataset)
    kernel = cfg.kernel.spec()
    if kernel.dim == 1 and dataset.d > 1:
        kernel = kernel.with_lengthscales(kernel.lengthscales * dataset.d)
    if kernel.dim != dataset.d:
        raise DimensionMismatch("kernel dimension does not match the data")

    if cfg.estimation.enabled:
        kernel, sigma2 = _estimate(cfg, dataset, part, tree, kernel)
        kernel = kernel.with_variance(sigma2)

    save_bundle(args.out, kernel=kernel, X=dataset.X, y=dataset.y,
                partition=part, tree=tree, y_offset=dataset.y_offset,
                config_echo=cfg.echo(), force=args.force)
    print(f"wrote {args.out} (n={dataset.n}, d={dataset.d}, p={part.p}, "
          f"height={tree.height}, sigma2={kernel.variance:.6g})")
    return EXIT_OK


def _predict_arrays(bundle, method, Xq, threads, full_cap):
    kernel = bundle["kernel"]
    X, y = bundle["X"], bundle["y"]
    if Xq.shape[1] != kernel.dim:
        raise DimensionMismatch(
            f"query dimension {Xq.shape[1]} does not match the model "
            f"dimension {kernel.dim}")
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
                M, k = bank.moments(*bank.group_weights(chunk))
                expert_vars = np.maximum(kernel.variance - k,
                                         metrics.EXPERT_VARIANCE_FLOOR)
                return baselines.evaluate(method, M, expert_vars,
                                          kernel.variance)

    q = Xq.shape[0]
    means = np.empty(q)
    variances = np.empty(q)
    starts = list(range(0, q, PREDICT_CHUNK))

    def run(start):
        stop = min(start + PREDICT_CHUNK, q)
        m, v = evaluate(Xq[start:stop])
        means[start:stop] = m
        variances[start:stop] = v

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)
    return means + bundle["y_offset"], variances


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    bundle = load_bundle(args.bundle)
    Xq = load_points_csv(args.query)
    threads = _thread_count(args.threads, cfg)
    full_cap = args.full_cap if args.full_cap else cfg.run.full_cap
    means, variances = _predict_arrays(bundle, args.method, Xq, threads,
                                       full_cap)
    with open(args.out, "w") as fh:
        for line in bundle["config"]:
            fh.write(f"# {line}\n")
        fh.write(f"# method={args.method}\n")
        if args.with_variance:
            fh.write("mean,variance\n")
            for m, v in zip(means, variances):
                fh.write(f"{_fmt(m)},{_fmt(v)}\n")
        else:
            fh.write("mean\n")
            for m in means:
                fh.write(f"{_fmt(m)}\n")
    print(f"wrote {args.out} ({Xq.shape[0]} predictions, method={args.method})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    kernel = cfg.kernel.spec()
    if kernel.dim != 1:
        raise UsageError("simulate draws on a 1-d grid; configure a 1-d kernel")
    grid = np.linspace(0.0, 1.0, args.points).reshape(-1, 1)
    draws = sample_paths(kernel, grid, args.count, args.seed)
    with open(args.out, "w") as fh:
        for line in cfg.echo():
            fh.write(f"# {line}\n")
        fh.write(f"# seed={args.seed}\n")
        fh.write(",".join(["x"] + [f"sample_{i}" for i in range(args.count)]) + "\n")
        for t in range(grid.shape[0]):
            row = [_fmt(grid[t, 0])] + [_fmt(draws[i, t]) for i in range(args.count)]
            fh.write(",".join(row) + "\n")
    print(f"wrote {args.out} ({args.points} points, {args.count} samples)")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    if args.replications < 1:
        raise UsageError("--replications must be at least 1")
    os.makedirs(args.out_dir, exist_ok=True)
    reports = []
    for rep, seed in enumerate(range(args.seed, args.seed + args.replications)):
        instance = metrics.benchmark_instance(seed)
        reports += metrics.replication_reports(rep, seed, instance)
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
    medians = metrics.summarize_medians(reports)
    for method in sorted(medians):
        row = medians[method]
        print(f"{method}: median mse={row['mse']:.6g} mve={row['mve']:.6g} "
              f"mnlp={row['mnlp']:.6g}")
    print(f"wrote {reports_path}, {summary_path}, {plot_path}")
    return EXIT_OK


def cmd_consistency(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise UsageError("--sizes must list at least one design size")
    trend = metrics.run_consistency_demo(sizes, args.method,
                                         replicates=args.replicates,
                                         seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(f"# method={args.method} replicates={args.replicates} "
                 f"seed={args.seed}\n")
        fh.write("n,mse_at_x0\n")
        for n, mse in trend:
            fh.write(f"{n},{_fmt(mse)}\n")
    first, last = trend[0][1], trend[-1][1]
    print(f"{args.method}: mse {first:.6g} (n={trend[0][0]}) -> "
          f"{last:.6g} (n={trend[-1][0]}), ratio {last / first:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_loo_estimate(args) -> int:
    cfg = load_config(args.config)
    dataset = load_csv(args.train, _schema(cfg))
    part, tree = _build_layout(cfg, dataset)
    kernel, sigma2 = _estimate(cfg, dataset, part, tree,
                               KernelSpec(cfg.kernel.family, 1.0))
    theta_txt = ",".join(_fmt(t) for t in kernel.lengthscales)
    print(f"theta={theta_txt} sigma2={_fmt(sigma2)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"theta": list(kernel.lengthscales),
                       "sigma2": float(sigma2),
                       "family": cfg.kernel.family}, fh, sort_keys=True)
            fh.write("\n")
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
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--full-cap", type=int, default=0)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("simulate", help="sample prior GP paths on a grid")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("benchmark", help="replicated method comparison study")
    p.add_argument("--replications", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("consistency", help="error trend on the clustered design")
    p.add_argument("--method", default="nested", choices=PREDICT_METHODS)
    p.add_argument("--sizes", default="50,100,200,400")
    p.add_argument("--replicates", type=int, default=200)
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
    except (ConfigError, EmptyFile, OutputExists, ParseError,
            FileNotFoundError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NotFactorizable, NonPositiveVariance, np.linalg.LinAlgError,
            NestedKrigError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
