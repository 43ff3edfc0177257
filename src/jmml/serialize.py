"""Versioned JSON checkpoints for dense-net and MBPLS models.

Parameters are stored once in a flat registry (row-major float64 lists);
layers reference registry indices, so weight tying survives a round trip
exactly.  Python's float repr is shortest-round-trip, which makes the JSON
round trip bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .net import DenseLayer, DenseNet, Param

FORMAT = "jmml-checkpoint"
VERSION = 1


class ParamCodec:
    """Registry assigning one index per distinct Param object."""

    def __init__(self):
        self.params = []
        self._index = {}

    def ref(self, param):
        key = id(param)
        if key not in self._index:
            self._index[key] = len(self.params)
            self.params.append(param)
        return self._index[key]

    def encode_registry(self):
        return [
            {
                "name": p.name,
                "shape": list(p.value.shape),
                "data": p.value.ravel().tolist(),
            }
            for p in self.params
        ]

    @staticmethod
    def decode_registry(entries):
        return [
            Param(np.array(e["data"], dtype=np.float64).reshape(e["shape"]), name=e["name"])
            for e in entries
        ]


def encode_layer(layer, codec):
    return {"w": codec.ref(layer.w), "b": codec.ref(layer.b), "activation": layer.activation}


def decode_layer(entry, params):
    return DenseLayer(params[entry["w"]], params[entry["b"]], entry["activation"])


def encode_net(net, codec):
    return {"layers": [encode_layer(l, codec) for l in net.layers]}


def decode_net(entry, params):
    return DenseNet([decode_layer(l, params) for l in entry["layers"]])


def save_checkpoint(path, kind, body, codec):
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "params": codec.encode_registry(),
        "body": body,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path, expected_kind=None):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    if expected_kind is not None and doc.get("kind") != expected_kind:
        raise ValueError(f"expected checkpoint kind {expected_kind!r}, got {doc.get('kind')!r}")
    params = ParamCodec.decode_registry(doc["params"])
    return doc["kind"], doc["body"], params
