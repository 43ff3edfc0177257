"""Structural checkpoint codec: every field of every model kind round-trips
bit for bit, tying survives, and malformed files or objects are refused."""

import dataclasses
import json

import numpy as np
import pytest

from jmml.edcc import (
    EdccCaeModel,
    MinMaxScaler,
    ModalityNets,
    build_edcc,
    infer_single,
    load_edcc,
    save_edcc,
    train_edcc,
)
from jmml.jecl import build_jecl, load_jecl, save_jecl, train_jecl
from jmml.mbpls import fit, load_mbpls, save_mbpls
from jmml.net import DenseLayer, DenseNet, Param
from jmml.serialize import load_checkpoint, save_checkpoint


def _assert_same(a, b, seen):
    """``b`` equals ``a`` field by field, bit for bit, with the same types;
    ``seen`` maps ids of ``a``'s arrays to ``b``'s so aliasing must match."""
    assert type(a) is type(b)
    if isinstance(a, (Param, np.ndarray)):
        assert seen.setdefault(id(a), b) is b
        va, vb = (a.value, b.value) if isinstance(a, Param) else (a, b)
        assert va.shape == vb.shape and va.tobytes() == vb.tobytes()
        if isinstance(a, Param):
            assert a.name == b.name
        assert vb.flags.owndata and vb.flags.writeable
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y, seen)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.init:
                _assert_same(getattr(a, f.name), getattr(b, f.name), seen)
    else:
        assert a == b


def _paired(n=30, d1=5, d2=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, d1)), rng.uniform(size=(n, d2))


def _trained_edcc(tmp_path):
    model = build_edcc((5, 4), hidden=6, projection_dim=2, seed=3)
    x1, x2 = _paired(seed=3)
    model.scalers = [MinMaxScaler.fit(x1 * 2.0), None]
    train_edcc(model, x1, x2, epochs=2, seed=3)
    path = tmp_path / "edcc.json"
    save_edcc(model, path)
    return model, path, x1, x2


def test_jecl_roundtrip_every_field(tmp_path):
    model = build_jecl(input_dim=4, num_classes=3, setup="setup2", kld_weight=0.5, seed=1)
    rng = np.random.default_rng(1)
    train_jecl(model, {c: rng.standard_normal((12, 4)) + c for c in (1, 2, 3)}, epochs=2, seed=1)
    model.blocks[2].centroid = None
    path = tmp_path / "jecl.json"
    save_jecl(model, path)
    loaded = load_jecl(path)
    _assert_same(model, loaded, {})
    assert loaded.blocks[0].centroid is not None and loaded.blocks[2].centroid is None
    latent = [b.sim_branch.layers[1] for b in loaded.blocks]
    assert latent[0].w is latent[1].w is latent[2].w
    assert latent[0].b is latent[2].b


def test_edcc_roundtrip_every_field(tmp_path):
    model, path, _, _ = _trained_edcc(tmp_path)
    model.scalers[1] = MinMaxScaler.fit(_paired(seed=4)[1])
    save_edcc(model, path)
    loaded = load_edcc(path)
    _assert_same(model, loaded, {})
    assert loaded.input_dims == (5, 4) and isinstance(loaded.input_dims, tuple)
    assert loaded.trained
    model.scalers[1] = None
    save_edcc(model, path)
    loaded = load_edcc(path)
    _assert_same(model, loaded, {})
    assert loaded.scalers[1] is None


def test_mbpls_roundtrip_every_field(tmp_path):
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((20, 3)), rng.standard_normal((20, 2))]
    model = fit(blocks, np.hstack(blocks) @ rng.standard_normal((5, 2)), 3)
    path = tmp_path / "mbpls.json"
    save_mbpls(model, path)
    loaded = load_mbpls(path)
    _assert_same(model, loaded, {})
    assert loaded.block_dims == [3, 2]
    assert isinstance(loaded.x_means, list) and len(loaded.x_means) == 2


def test_loaded_edcc_takes_nan_overwrite_and_trains(tmp_path):
    model, path, x1, x2 = _trained_edcc(tmp_path)
    loaded = load_edcc(path)
    train_edcc(loaded, x1, x2, epochs=1, seed=4)
    before = infer_single(loaded, 0, x1)
    for p in loaded.modalities[1].params():
        p.value[...] = np.nan
    after = infer_single(loaded, 0, x1)
    np.testing.assert_array_equal(before.s_rec, after.s_rec)


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_version_1_file_rejected(tmp_path):
    _, path, _, _ = _trained_edcc(tmp_path)
    _rewrite(path, lambda doc: doc.update(version=1))
    with pytest.raises(ValueError, match="version"):
        load_edcc(path)


def test_version_2_file_rejected(tmp_path):
    # version 2 wrote layers and nets under their own tags
    model = build_jecl(input_dim=3, num_classes=2, seed=2)
    path = tmp_path / "jecl.json"
    save_jecl(model, path)
    _rewrite(path, lambda doc: doc.update(version=2))
    with pytest.raises(ValueError, match="version"):
        load_jecl(path)


def test_layers_and_nets_are_plain_dataclasses(tmp_path):
    # no caller-named types needed: layers and nets are always decodable
    rng = np.random.default_rng(6)
    layer = DenseLayer.create(3, 3, "relu", rng)
    net = DenseNet([layer, DenseLayer.create(3, 2, "linear", rng)])
    path = tmp_path / "net.json"
    save_checkpoint(path, "x", [net, layer])
    doc = json.loads(path.read_text())
    assert doc["version"] == 3
    net_node, layer_node = doc["model"][1]
    assert net_node[1][0] == "DenseNet"
    assert layer_node == ["dataclass", ["DenseLayer", {"w": ["ref", 0], "b": ["ref", 1], "activation": "relu"}]]
    loaded = load_checkpoint(path, "x", ())
    _assert_same([net, layer], loaded, {})
    assert loaded[0].layers[0].w is loaded[1].w


def test_wrong_kind_rejected(tmp_path):
    _, path, _, _ = _trained_edcc(tmp_path)
    with pytest.raises(ValueError, match="kind"):
        load_jecl(path)


def test_unknown_type_name_rejected(tmp_path):
    _, path, _, _ = _trained_edcc(tmp_path)
    with pytest.raises(ValueError, match="ModalityNets"):
        load_checkpoint(path, "edcc-cae", (EdccCaeModel, MinMaxScaler))
    load_checkpoint(path, "edcc-cae", (EdccCaeModel, ModalityNets, MinMaxScaler))


def test_unknown_tag_rejected(tmp_path):
    path = tmp_path / "x.json"
    save_checkpoint(path, "x", [1, 2])
    _rewrite(path, lambda doc: doc.update(model=["set", [1, 2]]))
    with pytest.raises(ValueError, match="tag"):
        load_checkpoint(path, "x", ())


def test_short_byte_string_rejected(tmp_path):
    path = tmp_path / "x.json"
    save_checkpoint(path, "x", np.arange(4.0))
    _rewrite(path, lambda doc: doc["arrays"][0].update(data="AAAAAAAAAAA="))  # 8 bytes
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(path, "x", ())


def test_encoder_refuses_what_it_cannot_write_exactly(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(TypeError):
        save_checkpoint(path, "x", np.arange(3))
    with pytest.raises(TypeError):
        save_checkpoint(path, "x", [{"a": 1.0}])
    with pytest.raises(TypeError):
        save_checkpoint(path, "x", np.int64(3))
