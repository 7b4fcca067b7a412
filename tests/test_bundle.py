import io
import json

import numpy as np
import pytest

import nestedkrig as nk
from nestedkrig.bundle import data_fingerprint, load_bundle, save_bundle
from nestedkrig.exceptions import BundleError, NestedKrigError, OutputExists


def make_bundle(path, force=False):
    X = np.array([[0.1], [0.4], [0.8]])
    y = np.array([1.0, -0.5, 0.25])
    part = nk.Partition(labels=np.array([0, 0, 1]), p=2)
    tree = nk.AggregationTree.flat(3, 2)
    kernel = nk.KernelSpec("matern32", 1.5, (0.2,))
    save_bundle(path, kernel=kernel, X=X, y=y, partition=part, tree=tree,
                y_offset=0.25, config_echo=["kernel.family=matern32"],
                force=force)
    return X, y


class TestBundle:
    def test_bytes_equal_streamed_encoder(self, tmp_path):
        # the text json.dump streams out, for values that stress float repr
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        X[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        y = rng.standard_normal(50)
        part = nk.Partition(labels=rng.permutation(np.arange(50) % 7), p=7)
        path = tmp_path / "m.json"
        save_bundle(path, kernel=nk.KernelSpec("matern52", 0.1, (0.3, 2.0, 1e-5)),
                    X=X, y=y, partition=part, tree=nk.AggregationTree.flat(50, 7),
                    y_offset=-1.5, config_echo=["tree.mode=flat"])
        written = path.read_bytes()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, sort_keys=True)
        assert written == (streamed.getvalue() + "\n").encode()

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        X, y = make_bundle(path)
        loaded = load_bundle(path)
        np.testing.assert_array_equal(loaded["X"], X)
        np.testing.assert_array_equal(loaded["y"], y)
        assert loaded["kernel"] == nk.KernelSpec("matern32", 1.5, (0.2,))
        assert loaded["y_offset"] == 0.25
        assert loaded["tree"].layer_sizes == [2, 1]
        assert loaded["partition"].p == 2
        assert loaded["config"] == ["kernel.family=matern32"]

    def test_reads_bundle_with_sigma2_field(self, tmp_path):
        import warnings

        path = tmp_path / "m.json"
        make_bundle(path)
        payload = json.loads(path.read_text())
        assert "sigma2" not in payload
        # bundles of the same version written before the field was dropped
        payload["sigma2"] = 1.5
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_bundle(path)
        assert loaded["kernel"].variance == 1.5
        assert "sigma2" not in loaded

    def test_refuses_overwrite(self, tmp_path):
        path = tmp_path / "m.json"
        make_bundle(path)
        with pytest.raises(OutputExists):
            make_bundle(path)
        make_bundle(path, force=True)

    def test_tamper_warns(self, tmp_path):
        path = tmp_path / "m.json"
        make_bundle(path)
        # swap in a different response vector without refreshing the hash
        payload = json.loads(path.read_text())
        payload["y"] = [9.0, -0.5, 0.25]
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="fingerprint"):
            load_bundle(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(NestedKrigError):
            load_bundle(path)

    @pytest.mark.parametrize("spoil", [
        lambda p: p["kernel"].update(nugget=0.0),
        lambda p: p["kernel"].pop("lengthscales"),
        lambda p: p["kernel"].update(variance=float("inf")),
        lambda p: p["tree"].pop("levels"),
        lambda p: p["tree"].update(height=2),
    ], ids=["kernel-unknown-key", "kernel-without-lengthscales",
            "kernel-infinite-variance", "tree-without-levels",
            "tree-unknown-key"])
    def test_entries_hold_exactly_the_fields(self, tmp_path, spoil):
        path = tmp_path / "m.json"
        make_bundle(path)
        payload = json.loads(path.read_text())
        spoil(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(BundleError, match=str(path)):
            load_bundle(path)

    def test_fingerprint_sensitive_to_data(self):
        X = np.array([[0.1], [0.2]])
        y = np.array([1.0, 2.0])
        base = data_fingerprint(X, y)
        assert data_fingerprint(X, y) == base
        assert data_fingerprint(X, y + 1e-12) != base
        assert data_fingerprint(X + 1e-12, y) != base
