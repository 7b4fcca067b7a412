"""Self-contained model bundles: versioned JSON, portable across machines.

A bundle stores everything prediction needs: kernel parameters (the
fitted process variance among them), the design and responses, group
labels, the aggregation tree and a fingerprint of the training data.  The
fingerprint is recomputed at load time so corrupted or hand-edited bundles
are flagged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings

import numpy as np

from .data import Partition, write_json
from .exceptions import BundleError, NestedKrigError, OutputExists
from .kernels import KernelSpec
from .tree import AggregationTree

BUNDLE_VERSION = 1


def data_fingerprint(X, y) -> str:
    """SHA-256 over the canonical little-endian bytes of the training data."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(y, dtype="<f8").tobytes())
    return h.hexdigest()


def save_bundle(path, *, kernel: KernelSpec, X, y, partition: Partition,
                tree: AggregationTree, y_offset: float = 0.0,
                config_echo=(), force: bool = False):
    """Write a model bundle; refuses to overwrite unless ``force``."""
    if os.path.exists(path) and not force:
        raise OutputExists(f"{path} already exists; pass force to overwrite")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    payload = {
        "format": "nestedkrig-bundle",
        "version": BUNDLE_VERSION,
        "kernel": dataclasses.asdict(kernel),
        "y_offset": float(y_offset),
        "labels": partition.labels.tolist(),
        "p": partition.p,
        "tree": dataclasses.asdict(tree),
        "X": X.tolist(),
        "y": y.tolist(),
        "fingerprint": data_fingerprint(X, y),
        "config": list(config_echo),
    }
    write_json(path, payload)


def load_bundle(path) -> dict:
    """Read a bundle back; returns a dict of reconstructed objects, or raises
    :class:`BundleError` naming ``path`` unless the file is a bundle of this
    version whose parts agree in size.

    The kernel and tree entries hold exactly the fields of
    :class:`KernelSpec` and :class:`AggregationTree`, rebuilt by their own
    constructors.  Warns when the stored fingerprint does not match the
    embedded data.
    A ``sigma2`` field, which older bundles repeat from the kernel
    variance, is ignored.
    """
    try:
        return _load(path)
    except KeyError as exc:
        raise BundleError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, NestedKrigError) as exc:
        raise BundleError(f"{path}: {exc}") from None


def _load(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "nestedkrig-bundle":
        raise ValueError("not a model bundle")
    if payload.get("version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {payload.get('version')}")
    kernel = KernelSpec(**payload["kernel"])
    X = np.asarray(payload["X"], dtype=float)
    y = np.asarray(payload["y"], dtype=float)
    if data_fingerprint(X, y) != payload["fingerprint"]:
        warnings.warn(f"{path}: data fingerprint mismatch; the bundle was "
                      "modified after fitting")
    tree = AggregationTree(**payload["tree"])
    partition = Partition(labels=np.asarray(payload["labels"], dtype=int),
                          p=payload["p"])
    n = y.size
    if not (y.ndim == 1 and X.shape == (n, kernel.dim) and partition.n == n
            and (tree.n_leaves, tree.n_layer1) == (n, partition.p)):
        raise ValueError(
            f"sizes disagree: X {X.shape}, y {y.shape}, {partition.n} labels "
            f"in {partition.p} groups, a tree of {tree.n_leaves} leaves and "
            f"{tree.n_layer1} sub-models, kernel dimension {kernel.dim}")
    return {
        "kernel": kernel,
        "X": X,
        "y": y,
        "partition": partition,
        "tree": tree,
        "y_offset": float(payload["y_offset"]),
        "config": payload.get("config", []),
    }
