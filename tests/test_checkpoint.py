import numpy as np
import pytest

from convpipe import checkpoint
from convpipe.accelmodel import ResourceBudget
from convpipe.adam import AdamHyper
from convpipe.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from convpipe.dataio import FormatError, make_batches, synthetic_dataset
from convpipe.dims import ModelDims
from convpipe.hoststage import ConvBatch
from convpipe.neuralcore import ModelState, accel_kernel
from convpipe.pipeline import PIPELINED, SEQUENTIAL, run_epoch

DIMS = ModelDims(batch=4, image_x=8, image_y=8, hidden=5, classes=10)


def _trained_state(seed, steps=3):
    rng = np.random.default_rng(seed)
    state = ModelState.initial(seed, DIMS)
    for i in range(steps):
        v = rng.normal(size=(DIMS.batch, DIMS.pool_map))
        y = np.eye(DIMS.classes)[rng.integers(0, DIMS.classes, DIMS.batch)]
        _, state = accel_kernel(ConvBatch(v, y, i), state, True)
    return state


def test_round_trip_bit_exact(tmp_path):
    state = _trained_state(0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert np.array_equal(back.weights.w1, state.weights.w1)
    assert np.array_equal(back.weights.w2, state.weights.w2)
    assert np.array_equal(back.adam.m_w1, state.adam.m_w1)
    assert np.array_equal(back.adam.v_w1, state.adam.v_w1)
    assert np.array_equal(back.adam.m_w2, state.adam.m_w2)
    assert np.array_equal(back.adam.v_w2, state.adam.v_w2)
    assert back.adam.step == state.adam.step == 3


def test_an_interrupted_save_leaves_the_old_checkpoint(tmp_path,
                                                       monkeypatch):
    """A save cut short at its second array leaves the file that was there,
    and no temporary file beside it; a completed save replaces it."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _trained_state(6))
    before = path.read_bytes()
    write_array, written = checkpoint._write_array, []

    def interrupted(f, a):
        if written:
            raise KeyboardInterrupt
        written.append(write_array(f, a))
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "_write_array", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, _trained_state(7))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    save_checkpoint(tmp_path / "fresh.ckpt", _trained_state(7))
    save_checkpoint(path, _trained_state(7))
    assert path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes() != before
    assert sorted(tmp_path.iterdir()) == [tmp_path / "fresh.ckpt", path]


def test_resumed_training_matches_uninterrupted(tmp_path):
    # split a 6-step run at step 3 via a checkpoint; must land identically
    state_a = _trained_state(1, steps=6)
    state_b = _trained_state(1, steps=3)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, state_b)
    resumed = load_checkpoint(path)
    rng = np.random.default_rng(1)
    for i in range(6):  # replay the same stream, applying only the tail
        v = rng.normal(size=(DIMS.batch, DIMS.pool_map))
        y = np.eye(DIMS.classes)[rng.integers(0, DIMS.classes, DIMS.batch)]
        if i >= 3:
            _, resumed = accel_kernel(ConvBatch(v, y, i), resumed, True)
    assert np.array_equal(resumed.weights.w1, state_a.weights.w1)
    assert np.array_equal(resumed.weights.w2, state_a.weights.w2)


@pytest.mark.parametrize("first,then", [(SEQUENTIAL, PIPELINED),
                                        (PIPELINED, SEQUENTIAL)])
def test_resumed_epochs_match_uninterrupted(tmp_path, first, then):
    """k epochs in one mode, a checkpoint, a load and n - k epochs in the
    other mode end in the checkpoint bytes of n epochs."""
    n, k = 3, 1
    images, labels = synthetic_dataset(8, 5 * DIMS.batch, DIMS.image_x,
                                       DIMS.image_y)
    batches = make_batches(images, labels, DIMS.batch)

    def epochs(state, mode, count):
        for _ in range(count):
            state, _ = run_epoch(batches, state, mode, True, ResourceBudget(),
                                 DIMS)
        return state

    save_checkpoint(tmp_path / "whole.ckpt",
                    epochs(ModelState.initial(8, DIMS), first, n))
    save_checkpoint(tmp_path / "mid.ckpt",
                    epochs(ModelState.initial(8, DIMS), first, k))
    resumed = load_checkpoint(tmp_path / "mid.ckpt", dims=DIMS)
    assert resumed.adam.step == k * len(batches)
    save_checkpoint(tmp_path / "resumed.ckpt", epochs(resumed, then, n - k))
    assert (tmp_path / "resumed.ckpt").read_bytes() == \
        (tmp_path / "whole.ckpt").read_bytes()


def test_magic_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _trained_state(2))
    assert path.read_bytes()[:4] == MAGIC == b"CNNW"


def test_bad_magic_names_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + bytes(100))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "bad.ckpt" in str(err.value)
    assert "magic" in str(err.value)


def test_truncated_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _trained_state(3))
    data = path.read_bytes()
    # every truncation point must surface as a checkpoint error, never as a
    # low-level struct/numpy failure
    for cut in (5, 9, 40, len(data) // 2, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_hyper_override_on_load(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _trained_state(4))
    custom = AdamHyper(eta=0.5)
    assert load_checkpoint(path, custom).hyper.eta == 0.5


# byte offsets in a DIMS checkpoint: magic, version, then w1 (9x5) and w2 (5x10)
W1_AT = 8
W2_AT = W1_AT + 8 + 9 * 5 * 8
COUNT_AT = W2_AT + 8 + 5 * 10 * 8 + 8  # the array count, after the step counter
NAMED_AT = COUNT_AT + 4
MW1_SIZE = 4 + 3 + 8 + 9 * 5 * 8  # mW1's name length, name, rows/cols, data


def _saved(tmp_path, name="model.ckpt"):
    path = tmp_path / name
    save_checkpoint(path, _trained_state(5))
    return path, path.read_bytes()


def _load_error(path, **kwargs):
    with pytest.raises(FormatError) as err:
        load_checkpoint(path, **kwargs)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: byte {err.value.offset}: ")
    return err.value


def test_truncated_header_names_path_and_offset(tmp_path):
    path, data = _saved(tmp_path, "trunc.ckpt")
    path.write_bytes(data[:W2_AT + 3])  # inside w2's rows/cols header
    err = _load_error(path)
    assert err.offset == W2_AT
    assert "truncated w2 header" in str(err)


def test_truncated_data_names_path_and_offset(tmp_path):
    path, data = _saved(tmp_path, "trunc.ckpt")
    path.write_bytes(data[:W1_AT + 8 + 100])
    err = _load_error(path)
    assert err.offset == W1_AT + 8
    assert "truncated w1 data (9x5): 360 bytes needed, 100 left" in str(err)


def test_oversized_array_fails_before_reading(tmp_path):
    path, data = _saved(tmp_path)
    path.write_bytes(data[:W1_AT] + b"\xff" * 8 + data[W1_AT + 8:])
    err = _load_error(path)
    assert err.offset == W1_AT + 8
    assert "truncated w1 data (4294967295x4294967295)" in str(err)


def test_non_ascii_name_names_path_and_offset(tmp_path):
    path, data = _saved(tmp_path)
    assert data[NAMED_AT:NAMED_AT + 7] == b"\x03\x00\x00\x00mW1"
    path.write_bytes(data[:NAMED_AT + 4] + b"m\xe9\xff" + data[NAMED_AT + 7:])
    err = _load_error(path)
    assert err.offset == NAMED_AT + 4
    assert str(err).endswith("array name b'm\\xe9\\xff', expected 'mW1'")


def test_missing_optimizer_array_names_path(tmp_path):
    # an array count of 3 and no mW1 entry
    path, data = _saved(tmp_path)
    path.write_bytes(data[:COUNT_AT] + (3).to_bytes(4, "little")
                     + data[NAMED_AT + MW1_SIZE:])
    err = _load_error(path)
    assert err.offset == COUNT_AT
    assert str(err).endswith("array count 3, expected 4")


def test_unknown_array_name_fails_at_its_offset(tmp_path):
    path, data = _saved(tmp_path)
    path.write_bytes(data[:NAMED_AT + 4] + b"xW1" + data[NAMED_AT + 7:])
    err = _load_error(path)
    assert err.offset == NAMED_AT + 4
    assert str(err).endswith("array name b'xW1', expected 'mW1'")


def test_repeated_array_name_fails_at_its_offset(tmp_path):
    # mW1 stands twice, and the second copy's values differ: a loader that
    # kept the last one would resume from other optimizer state
    path, data = _saved(tmp_path)
    entry = bytearray(data[NAMED_AT:NAMED_AT + MW1_SIZE])
    entry[-1] ^= 0x40
    path.write_bytes(data[:COUNT_AT] + (5).to_bytes(4, "little")
                     + data[NAMED_AT:] + entry)
    err = _load_error(path)
    assert err.offset == COUNT_AT
    assert str(err).endswith("array count 5, expected 4")
    # the copy in vW1's place, with the count left at 4, fails at its name
    vw1_at = NAMED_AT + MW1_SIZE
    path.write_bytes(data[:vw1_at] + entry + data[vw1_at + MW1_SIZE:])
    err = _load_error(path)
    assert err.offset == vw1_at + 4
    assert str(err).endswith("array name b'mW1', expected 'vW1'")


def test_swapped_array_names_fail_at_the_first(tmp_path):
    # mW1 and vW1 have the same shape, so only their order tells them apart
    path, data = _saved(tmp_path)
    vw1_at = NAMED_AT + MW1_SIZE
    assert data[vw1_at:vw1_at + 7] == b"\x03\x00\x00\x00vW1"
    path.write_bytes(data[:NAMED_AT] + data[vw1_at:vw1_at + MW1_SIZE]
                     + data[NAMED_AT:vw1_at] + data[vw1_at + MW1_SIZE:])
    err = _load_error(path)
    assert err.offset == NAMED_AT + 4
    assert str(err).endswith("array name b'vW1', expected 'mW1'")


def test_bytes_after_the_last_array_name_path_and_offset(tmp_path):
    path, data = _saved(tmp_path)
    path.write_bytes(data + b"\x00")
    err = _load_error(path)
    assert err.offset == len(data)
    assert str(err).endswith("bytes after the last array, where the file "
                             "must end")


def test_weight_shapes_checked_against_dims(tmp_path):
    path, _ = _saved(tmp_path)
    wider = ModelDims(batch=4, image_x=8, image_y=8, hidden=6, classes=10)
    err = _load_error(path, dims=wider)
    assert err.offset == W1_AT
    assert "w1 is 9x5, expected 9x6" in str(err)
    err = _load_error(path, dims=ModelDims(batch=4, image_x=8, image_y=8,
                                           hidden=5, classes=4))
    assert err.offset == W2_AT
    assert "w2 is 5x10, expected 5x4" in str(err)
    assert load_checkpoint(path, dims=DIMS).weights.w1.shape == (9, 5)


@pytest.mark.parametrize("name,layer", [("mW1", "w1"), ("vW1", "w1"),
                                        ("mW2", "w2"), ("vW2", "w2")])
def test_optimizer_shapes_must_match_their_layer(tmp_path, name, layer):
    state = _trained_state(6)
    attr = {"mW1": "m_w1", "vW1": "v_w1", "mW2": "m_w2", "vW2": "v_w2"}[name]
    setattr(state.adam, attr, getattr(state.adam, attr)[:, :-1])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state)
    rows, cols = getattr(state.weights, layer).shape
    err = _load_error(path)
    assert f"{name} is {rows}x{cols - 1}, expected {rows}x{cols}" in str(err)
