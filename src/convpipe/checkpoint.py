"""Binary checkpoint format for weights and optimizer state.

Layout (all integers little-endian):

    bytes 0..3    magic "CNNW"
    u32           format version (currently 1)
    w1            u32 rows, u32 cols, rows*cols little-endian float64
    w2            same layout
    u64           optimizer step counter
    u32           number of named arrays
    per array     u32 name length, ascii name, u32 rows, u32 cols, float64 data

The named section carries mW1, vW1, mW2 and vW2, in this order, and its
last array ends the file. Round-trips are bit-exact, so a library caller
can resume training: load_checkpoint and more run_epoch calls end in the
bytes of an uninterrupted run. No convpipe command starts training from a
checkpoint; `convpipe test` only scores one. A malformed checkpoint raises
dataio.FormatError, as a malformed IDX file does.
"""

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .adam import AdamHyper, AdamState
from .dataio import FormatError, _read_exact, _read_to_end
from .neuralcore import ModelState, Weights

MAGIC = b"CNNW"
VERSION = 1
# the named section in file order: name, AdamState field, layer whose shape
# the array has
_MOMENTS = (("mW1", "m_w1", "w1"), ("vW1", "v_w1", "w1"),
            ("mW2", "m_w2", "w2"), ("vW2", "v_w2", "w2"))


def _write_array(f, a):
    f.write(struct.pack("<II", a.shape[0], a.shape[1]))
    f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_struct(f, fmt, path, what):
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), path, what))


def _read_array(f, path, name, expected_shape=None):
    offset = f.tell()
    rows, cols = _read_struct(f, "<II", path, f"{name} header")
    if expected_shape is not None and (rows, cols) != expected_shape:
        raise FormatError(path, offset, f"{name} is {rows}x{cols}, expected "
                                        f"{expected_shape[0]}x{expected_shape[1]}")
    data = _read_exact(f, rows * cols * 8, path, f"{name} data ({rows}x{cols})")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(rows, cols)


def save_checkpoint(path, state: ModelState):
    """Write state to path, through a temporary file in path's directory
    and os.replace, so that a save cut short leaves path as it was."""
    with tempfile.TemporaryDirectory(dir=Path(path).parent) as tmp:
        part = Path(tmp) / "checkpoint"
        with open(part, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            _write_array(f, state.weights.w1)
            _write_array(f, state.weights.w2)
            f.write(struct.pack("<Q", state.adam.step))
            f.write(struct.pack("<I", len(_MOMENTS)))
            for name, field, _ in _MOMENTS:
                f.write(struct.pack("<I", len(name)))
                f.write(name.encode("ascii"))
                _write_array(f, getattr(state.adam, field))
        os.replace(part, path)


def load_checkpoint(path, hyper=None, dims=None) -> ModelState:
    """Read a checkpoint back; hyperparameters are supplied by the caller
    (they are configuration, not state).

    With `dims`, w1 and w2 must have the shapes those dims give; each
    optimizer array must always have its layer's weight shape. Every
    failure raises FormatError with the path and byte offset."""
    w1_shape = w2_shape = None
    if dims is not None:
        w1_shape = (dims.pool_map, dims.hidden)
        w2_shape = (dims.hidden, dims.classes)
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatError(path, 0, f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = _read_struct(f, "<I", path, "version")
        if version != VERSION:
            raise FormatError(path, 4, f"unsupported version {version}")
        w1 = _read_array(f, path, "w1", w1_shape)
        w2 = _read_array(f, path, "w2", w2_shape)
        (step,) = _read_struct(f, "<Q", path, "step counter")
        count_at = f.tell()
        (count,) = _read_struct(f, "<I", path, "array count")
        if count != len(_MOMENTS):
            raise FormatError(path, count_at, f"array count {count}, "
                                              f"expected {len(_MOMENTS)}")
        weights, moments = Weights(w1, w2), {}
        for name, field, layer in _MOMENTS:
            (name_len,) = _read_struct(f, "<I", path, "name length")
            offset = f.tell()
            raw = _read_exact(f, name_len, path, "array name")
            if raw != name.encode("ascii"):
                raise FormatError(path, offset, f"array name {bytes(raw)!r}, "
                                                f"expected {name!r}")
            moments[field] = _read_array(f, path, name,
                                         getattr(weights, layer).shape)
        _read_to_end(f, path, "last array")
    return ModelState(weights=weights, adam=AdamState(step=step, **moments),
                      hyper=hyper if hyper is not None else AdamHyper())
