"""Binary checkpoint format for weights and optimizer state.

Layout (all integers little-endian):

    bytes 0..3    magic "CNNW"
    u32           format version (currently 1)
    w1            u32 rows, u32 cols, rows*cols little-endian float64
    w2            same layout
    u64           optimizer step counter
    u32           number of named arrays
    per array     u32 name length, ascii name, u32 rows, u32 cols, float64 data

The named section carries mW1, vW1, mW2, vW2 so training can resume
exactly. Round-trips are bit-exact.
"""

import os
import struct

import numpy as np

from .adam import AdamHyper, AdamState
from .neuralcore import ModelState, Weights

MAGIC = b"CNNW"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint that cannot be used, with the byte offset of the field
    that failed."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = path
        self.offset = offset


def _write_array(f, a):
    f.write(struct.pack("<II", a.shape[0], a.shape[1]))
    f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_bytes(f, n, path, what):
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if n > left:  # checked first: a corrupt size must not allocate n bytes
        raise CheckpointError(path, offset, f"truncated {what}: "
                                            f"{n} bytes needed, {left} left")
    return f.read(n)


def _read_struct(f, fmt, path, what):
    return struct.unpack(fmt, _read_bytes(f, struct.calcsize(fmt), path, what))


def _read_array(f, path, name, expected_shape=None):
    offset = f.tell()
    rows, cols = _read_struct(f, "<II", path, f"{name} header")
    if expected_shape is not None and (rows, cols) != expected_shape:
        raise CheckpointError(path, offset, f"{name} is {rows}x{cols}, expected "
                                            f"{expected_shape[0]}x{expected_shape[1]}")
    data = _read_bytes(f, rows * cols * 8, path, f"{name} data ({rows}x{cols})")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(rows, cols)


def save_checkpoint(path, state: ModelState):
    named = [("mW1", state.adam.m_w1), ("vW1", state.adam.v_w1),
             ("mW2", state.adam.m_w2), ("vW2", state.adam.v_w2)]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_array(f, state.weights.w1)
        _write_array(f, state.weights.w2)
        f.write(struct.pack("<Q", state.adam.step))
        f.write(struct.pack("<I", len(named)))
        for name, arr in named:
            raw = name.encode("ascii")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            _write_array(f, arr)


def load_checkpoint(path, hyper=None, dims=None) -> ModelState:
    """Read a checkpoint back; hyperparameters are supplied by the caller
    (they are configuration, not state).

    With `dims`, w1 and w2 must have the shapes those dims give; each
    optimizer array must always have its layer's weight shape. Every
    failure raises CheckpointError with the path and byte offset."""
    w1_shape = w2_shape = None
    if dims is not None:
        w1_shape = (dims.pool_map, dims.hidden)
        w2_shape = (dims.hidden, dims.classes)
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise CheckpointError(path, 0, f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = _read_struct(f, "<I", path, "version")
        if version != VERSION:
            raise CheckpointError(path, 4, f"unsupported version {version}")
        w1 = _read_array(f, path, "w1", w1_shape)
        w2 = _read_array(f, path, "w2", w2_shape)
        (step,) = _read_struct(f, "<Q", path, "step counter")
        (n_named,) = _read_struct(f, "<I", path, "array count")
        layer_shape = {"mW1": w1.shape, "vW1": w1.shape,
                       "mW2": w2.shape, "vW2": w2.shape}
        named = {}
        for _ in range(n_named):
            (name_len,) = _read_struct(f, "<I", path, "name length")
            offset = f.tell()
            raw = _read_bytes(f, name_len, path, "array name")
            try:
                name = raw.decode("ascii")
            except UnicodeDecodeError:
                raise CheckpointError(path, offset,
                                      f"array name {raw!r} is not ASCII") from None
            named[name] = _read_array(f, path, name, layer_shape.get(name))
        missing = layer_shape.keys() - named.keys()
        if missing:
            raise CheckpointError(path, f.tell(),
                                  f"missing optimizer arrays {sorted(missing)}")
    adam = AdamState(m_w1=named["mW1"], v_w1=named["vW1"],
                     m_w2=named["mW2"], v_w2=named["vW2"], step=step)
    return ModelState(weights=Weights(w1, w2), adam=adam,
                      hyper=hyper if hyper is not None else AdamHyper())
