"""Model checkpoint container.

A checkpoint is a single binary file: a magic line, an 8-byte little-endian
header length, a JSON header (model config, node labels, config echo, and a
slot table with shapes and payload offsets), then the raw little-endian
float64 row-major payloads, one slot after the other in the slot table's
order.  Writing the same model twice produces identical bytes, and a
save/load round trip is bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .errors import CheckpointError, NumericError
from .model import Model, ModelConfig, parameter_layout
from .numeric import Layout, ParameterStore
from .version import TOOL_VERSION

MAGIC = b"TOPOLSTM-CKPT-1\n"


def _slot_table(packed: Layout) -> list[dict]:
    """The header's slot table: each slot's bytes, one slot after the other."""
    return [{"name": name, "shape": list(shape), "offset": 8 * offset,
             "nbytes": 8 * math.prod(shape)} for name, shape, offset, _ in packed.slots]


def save_model(path, model: Model, labels: tuple[str, ...],
               extra: dict | None = None) -> None:
    """Write model parameters, node labels, and a config echo to ``path``,
    through a sibling ``path``.tmp that then replaces it: a save that fails
    or is interrupted midway leaves an earlier file at ``path`` whole."""
    if len(labels) != model.config.node_count:
        raise CheckpointError(
            f"{len(labels)} labels for a model over {model.config.node_count} nodes")
    header = {
        "format": 1,
        "tool_version": TOOL_VERSION,
        "config": asdict(model.config),
        "labels": list(labels),
        "extra": extra or {},
        "slots": _slot_table(Layout.packed(model.params.layout.shapes())),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, arr in model.params.items():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:   # KeyboardInterrupt too
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_model(path) -> tuple[Model, tuple[str, ...], dict]:
    """Read a checkpoint; returns (model, labels, header).

    A truncated or corrupt file, or one holding non-finite parameters,
    raises CheckpointError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a model checkpoint")
    try:
        return _parse(data)
    except (CheckpointError, NumericError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except (struct.error, UnicodeDecodeError, ValueError, KeyError, TypeError,
            AttributeError, OverflowError, RecursionError) as exc:
        raise CheckpointError(
            f"{path}: corrupt header ({type(exc).__name__}: {exc})") from None


def _parse(data: bytes) -> tuple[Model, tuple[str, ...], dict]:
    start = len(MAGIC) + 8
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    cfg = header["config"]
    sizes = {name: cfg[name] for name in ("hidden_dim", "node_count")}
    if any(type(v) is not int for v in sizes.values()):    # a bool is no size either
        raise CheckpointError(f"config sizes must be JSON integers, got {sizes}")
    config = ModelConfig(**sizes, score_mode=str(cfg["score_mode"]))
    # The table fixes every slot's shape and place, so a payload of its
    # size holds each slot exactly once, back to back.
    layout = parameter_layout(config)
    packed = Layout.packed(layout.shapes())
    if header["slots"] != _slot_table(packed):
        raise CheckpointError("slot table does not match the model config")
    payload = memoryview(data)[start + header_len:]
    if len(payload) != 8 * packed.size:
        raise CheckpointError(
            f"payload holds {len(payload)} bytes, the slot table {8 * packed.size}")
    labels = header.get("labels")
    if not (type(labels) is list and len(labels) == config.node_count
            and all(type(v) is str for v in labels) and len(set(labels)) == len(labels)):
        raise CheckpointError(f"label table must be a list of {config.node_count} distinct strings")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    params = ParameterStore(packed.views(values, packed.slots), layout)
    params.check_finite()
    return Model(config, params), tuple(labels), header
