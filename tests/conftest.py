"""Shared builders for randomized test instances.

Instances keep a minimum separation between design points and stick to the
rougher kernel families in one dimension, so correlation matrices stay
well-conditioned and oracle comparisons are meaningful at tight tolerances.
Also prints one PASS/FAIL line per acceptance criterion at the end of the
run.
"""

import numpy as np

import nestedkrig as nk

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1].split("[")[0]
        if report.when == "call" or (report.when == "setup"
                                     and report.outcome != "passed"):
            _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_ACCEPTANCE):
        verdict = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {name}: {verdict}")


def separated_points(rng, n, d, min_sep):
    """Uniform points on [0,1]^d with pairwise distance >= min_sep."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(0.0, 1.0, d)
        if all(np.linalg.norm(cand - q) >= min_sep for q in pts):
            pts.append(cand)
    return np.asarray(pts)


def random_kernel(rng, d):
    if d == 1:
        family = ("matern32", "exponential")[int(rng.integers(2))]
        theta = (float(rng.uniform(0.1, 0.3)),)
    else:
        family = ("matern32", "matern52")[int(rng.integers(2))]
        theta = tuple(rng.uniform(0.3, 0.8, size=d))
    return nk.KernelSpec(family, float(rng.uniform(0.5, 2.0)), theta)


def random_instance(rng, d=None, n=None, p=None):
    """A kernel, separated design, GP-path responses and a balanced partition."""
    d = d if d is not None else int(rng.integers(1, 3))
    n = n if n is not None else int(rng.integers(10, 26))
    p = p if p is not None else int(rng.integers(2, min(7, n // 2 + 1)))
    kern = random_kernel(rng, d)
    X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
    f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
    part = nk.partition_random(n, p, int(rng.integers(2 ** 31)))
    return kern, X, f, part
