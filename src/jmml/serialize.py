"""Versioned JSON checkpoints: one structural codec for every model.

A model is written as its own structure.  A dataclass is its type name
plus its init fields, a ``DenseNet`` its layers, a ``DenseLayer`` its
activation plus references to its ``w`` and ``b``; lists and tuples are
tagged so each comes back as what it was; JSON scalars and ``None`` pass
through.  Every ``Param`` and ndarray is stored once in an array registry
keyed by object identity, so weight tying survives a round trip.  An entry
holds the raw little-endian float64 bytes in base64, the shape and the
Param name (``None`` for a plain array), so values round-trip bit for bit.

The decoder builds only the dataclasses its caller names and raises
``ValueError`` on an unknown type or tag, or on an entry whose byte count
does not match its shape; the encoder raises ``TypeError`` on anything it
cannot write exactly.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np

from .net import DenseLayer, DenseNet, Param

FORMAT = "jmml-checkpoint"
VERSION = 2


def save_checkpoint(path, kind, model):
    """Write ``model`` as a checkpoint of the given ``kind``."""
    entries, index = [], {}

    def ref(obj):
        if id(obj) not in index:
            value = obj.value if isinstance(obj, Param) else obj
            if value.dtype != np.float64:
                raise TypeError(f"cannot checkpoint a {value.dtype} array; only float64")
            index[id(obj)] = len(entries)
            entries.append({
                "name": obj.name if isinstance(obj, Param) else None,
                "shape": list(value.shape),
                "data": base64.b64encode(value.astype("<f8", copy=False).tobytes()).decode("ascii"),
            })
        return index[id(obj)]

    def encode(obj):
        if obj is None or isinstance(obj, (int, float, str)):
            return obj
        if isinstance(obj, (Param, np.ndarray)):
            return ["ref", ref(obj)]
        if type(obj) in (list, tuple):
            return [type(obj).__name__, [encode(x) for x in obj]]
        if isinstance(obj, DenseLayer):
            return ["layer", [obj.activation, ref(obj.w), ref(obj.b)]]
        if isinstance(obj, DenseNet):
            return ["net", [encode(layer) for layer in obj.layers]]
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            fields = {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init}
            return ["dataclass", [type(obj).__name__, fields]]
        raise TypeError(f"cannot checkpoint an object of type {type(obj).__name__}")

    root = encode(model)
    doc = {"format": FORMAT, "version": VERSION, "kind": kind, "arrays": entries, "model": root}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_checkpoint(path, kind, types):
    """Read a checkpoint of ``kind``; ``types`` are the dataclasses it may hold."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    if doc.get("kind") != kind:
        raise ValueError(f"expected checkpoint kind {kind!r}, got {doc.get('kind')!r}")
    by_name = {cls.__name__: cls for cls in types}
    objects = [_decode_entry(e) for e in doc["arrays"]]

    def decode(node):
        if not isinstance(node, list):
            return node
        tag, payload = node
        if tag == "ref":
            return objects[payload]
        if tag == "list":
            return [decode(x) for x in payload]
        if tag == "tuple":
            return tuple(decode(x) for x in payload)
        if tag == "layer":
            activation, w, b = payload
            return DenseLayer(objects[w], objects[b], activation)
        if tag == "net":
            return DenseNet([decode(x) for x in payload])
        if tag == "dataclass":
            name, fields = payload
            if name not in by_name:
                raise ValueError(f"checkpoint type {name!r} is not one of {sorted(by_name)}")
            return by_name[name](**{k: decode(v) for k, v in fields.items()})
        raise ValueError(f"unknown checkpoint tag {tag!r}")

    return decode(doc["model"])


def _decode_entry(entry):
    raw = base64.b64decode(entry["data"], validate=True)
    shape = tuple(entry["shape"])
    nbytes = 8 * int(np.prod(shape))
    if len(raw) != nbytes:
        raise ValueError(f"array entry holds {len(raw)} bytes, shape {shape} needs {nbytes}")
    # astype copies, so the array owns its data and is writable
    value = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    return value if entry["name"] is None else Param(value, name=entry["name"])
