"""Property-based tests, over inputs hypothesis draws: the compiled
kernels against their numpy references, whole training runs of small
models on every path, the cycle model against the event-driven simulator
in oracles.py, the synthetic fixture's raw-word draw against
numpy's integers(), and the checkpoint and IDX loaders on cut, extended
and bit-flipped files.

Each property runs a fixed, bounded set of examples (derandomize=True), so
a run is deterministic, and a counterexample it finds stays as one of its
@example cases.
"""

import gzip

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convpipe import native, neuralcore
from convpipe.accelmodel import (ResourceBudget, default_partitions,
                                 estimate_pass, pass_nests)
from convpipe.adam import (AdamHyper, AdamState, adam_update,
                           apply_batch_update, correction_factors)
from convpipe.checkpoint import load_checkpoint, save_checkpoint
from convpipe.dataio import (FormatError, ImageSet, LabelSet, MiniBatch,
                             load_idx_images, load_idx_labels, make_batches,
                             synthetic_dataset, write_idx_images,
                             write_idx_labels)
from convpipe.dims import SHARPEN_KERNEL, ModelDims
from convpipe.hoststage import conv2d_valid, host_stage, maxpool2x2
from convpipe.neuralcore import Gradients, ModelState, Weights, matmul_kseq
from convpipe.pipeline import MODES, run_epoch

from oracles import count_transfer_cycles, simulate_nest_cycles
from test_checkpoint import _trained_state
from test_dataio import assert_same_fixture
from test_neuralcore import REFUSED

# the 4-row and 32-column register tile, the narrow tile's 12 columns next
# to none, one and two 32-column blocks, and the 128 rows of b the narrow
# tile copies at a time (PACK_K), each with its neighbours
EDGES = sorted({0, 300, *(edge + step for edge in (4, 8, 12, 32, 44, 64, 76,
                                                   128, 256)
                          for step in (-1, 0, 1))})
DIM = st.one_of(st.sampled_from(EDGES), st.integers(0, 300))

# NaN, the infinities, both zeros, the smallest and largest subnormals and
# values whose products overflow
SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1e308, -1e308])
# the share of drawn values that are SPECIALS
SHARES = st.sampled_from([0.0, 0.001, 0.05, 0.5])


def _values(rng, shape, share):
    """Normal values with `share` of them replaced by SPECIALS."""
    x = rng.normal(size=shape)
    special = rng.random(shape) < share
    x[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return x


def _a_view(rng, layout, m, k, share):
    """An (m, k) view of a larger array, in one of the layouts a takes."""
    if layout == "T":
        return _values(rng, (k, m), share).T
    if layout == "strided":
        return _values(rng, (2 * m, 3 * k), share)[::2, ::3]
    if layout == "reversed":
        return _values(rng, (m, k), share)[::-1, ::-1]
    if layout == "offset":
        return _values(rng, (m + 1, k + 2), share)[1:, 2:]
    return _values(rng, (m, k), share)


# b as the kernel takes it, in each layout it refuses, and as a list
B_LAYOUTS = {"C": lambda x: x, **REFUSED}


def _same_bytes_up_to_nan_sign(got, want):
    """got and want hold NaN in the same places and the same bytes in all
    others. Where two NaNs of opposite sign meet in one sum or product, an
    x86 add or multiply returns the one its instruction's operand order
    picks, and that order differs between numpy's vector body and its
    tail, and between the kernel's tiles and builds: which sign survives is
    not part of the result."""
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=DIM, k=DIM, n=DIM, seed=st.integers(0, 2 ** 32 - 1), share=SHARES,
       a_layout=st.sampled_from(["C", "T", "strided", "reversed", "offset"]),
       b_layout=st.one_of(st.just("C"), st.sampled_from(sorted(B_LAYOUTS))),
       relu=st.booleans(), masked=st.booleans())
# +NaN meets the -NaN of -inf * 0.0: the kernel keeps one sign, numpy the
# other
@example(m=3, k=8, n=3, seed=18, share=0.5, a_layout="C", b_layout="C",
         relu=False, masked=False)
def test_matmul_kseq_gives_the_numpy_bytes(m, k, n, seed, share, a_layout,
                                           b_layout, relu, masked):
    assume(k > 0 or b_layout != "list")  # [] has no column count
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # inf - inf, inf * 0.0, overflow
        a = _a_view(rng, a_layout, m, k, share)
        b = B_LAYOUTS[b_layout](_values(rng, (k, n), share))
        mask = _values(rng, (m, n), share) if masked else None
        want = neuralcore._matmul_kseq_numpy(a, np.asarray(b, np.float64))
        if relu:
            want = np.maximum(0.0, want)
        if masked:
            want = want * (mask > 0.0)
        got = matmul_kseq(a, b, relu=relu, mask=mask)
    _same_bytes_up_to_nan_sign(got, want)


# output widths next to one and two of the host stage's 16-column blocks,
# where the last block moves left over the one before it, and below one
HOST_WIDTHS = st.one_of(st.sampled_from([2, 14, 16, 18, 30, 32, 34]),
                        st.integers(1, 24).map(lambda half: 2 * half))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(0, 3), oh=st.integers(1, 6).map(lambda half: 2 * half),
       ow=HOST_WIDTHS, seed=st.integers(0, 2 ** 32 - 1))
def test_host_stage_gives_the_numpy_bytes(n, oh, ow, seed):
    kh, kw = SHARPEN_KERNEL.shape
    x = np.random.default_rng(seed).integers(
        0, 256, (n, oh + kh - 1, ow + kw - 1), dtype=np.uint8)
    want = maxpool2x2(conv2d_valid(x / 255.0)).reshape(n, oh * ow // 4)
    got = host_stage(MiniBatch(x, np.zeros((n, 10)), 0)).v
    assert got.tobytes() == want.tobytes()


LAYER_SHAPES = st.tuples(st.integers(0, 40), st.integers(0, 40))
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shape2=LAYER_SHAPES, shape1=LAYER_SHAPES, step=st.integers(0, 10 ** 4),
       seed=st.integers(0, 2 ** 32 - 1), share=SHARES, beta1=UNIT,
       beta2=UNIT, eta=st.floats(1e-6, 10.0), eps=st.floats(1e-12, 1e-2))
def test_apply_batch_update_gives_two_adam_updates(shape2, shape1, step, seed,
                                                   share, beta1, beta2, eta,
                                                   eps):
    rng = np.random.default_rng(seed)
    hyper = AdamHyper(beta1, beta2, eta, eps)
    # w, m, v and g of the output layer and then of the hidden layer; v is
    # a second moment, so it holds no negative value
    layers = [[_values(rng, shape, share) for _ in range(4)]
              for shape in (shape2, shape1)]
    for layer in layers:
        layer[2] = np.abs(layer[2])
    want = [[a.copy() for a in layer] for layer in layers]
    (w2, m2, v2, g2), (w1, m1, v1, g1) = layers
    state = AdamState(m1, v1, m2, v2, step)
    with np.errstate(all="ignore"):
        count = apply_batch_update(state, Weights(w1, w2), Gradients(g1, g2),
                                   hyper)
        corr = correction_factors(hyper, step + 1)
        assert count == sum(adam_update(*layer, corr, hyper)
                            for layer in want)
    assert state.step == step + 1
    for got_layer, want_layer in zip(layers, want):
        for got, expected in zip(got_layer[:3], want_layer[:3]):
            assert got.tobytes() == expected.tobytes()


# Adam pairs past the kernel's split threshold (8192 elements), whose
# output layer ends one element before, at or one after an edge of the
# 2048-element chunks the pair is shared in, or holds all the elements
@settings(derandomize=True, max_examples=60, deadline=None)
@given(total=st.integers(8192, 30000), chunks=st.integers(0, 14),
       offset=st.integers(-1, 1), step=st.integers(1, 10 ** 4),
       seed=st.integers(0, 2 ** 32 - 1), share=SHARES)
@example(total=8192, chunks=0, offset=0, step=1, seed=0, share=0.05)
@example(total=8192, chunks=4, offset=0, step=1, seed=0, share=0.05)
def test_a_shared_adam_pair_gives_two_adam_updates(unsplit_kernels, total,
                                                   chunks, offset, step,
                                                   seed, share):
    """The pair's bytes and non-finite count are those of adam_update on
    each layer and of the build that runs every call on one thread."""
    if unsplit_kernels is None:
        pytest.skip("no compiled kernels")
    n2 = min(max(2048 * chunks + offset, 0), total)
    rng = np.random.default_rng(seed)
    hyper = AdamHyper()
    corr = correction_factors(hyper, step)
    layers = [[_values(rng, n, share) for _ in range(4)]
              for n in (n2, total - n2)]
    for layer in layers:
        layer[2] = np.abs(layer[2])
    results = []
    for kernels in (native.kernels(), unsplit_kernels, None):
        arrays = [[a.copy() for a in layer] for layer in layers]
        with np.errstate(all="ignore"):
            if kernels is None:
                count = sum(adam_update(*layer, corr, hyper)
                            for layer in arrays)
            else:
                count = kernels.adam_update_pair(
                    *arrays[0], *arrays[1], hyper.beta1, hyper.beta2,
                    hyper.eta, corr.c1, corr.c2, hyper.eps)
        results.append((count, [a.tobytes() for layer in arrays
                                for a in layer[:3]]))
    assert results[0] == results[1] == results[2]


# small models of two batches: an even image side, so that the 3x3
# correlation's sides are even for the 2x2 pool; the larger ones pass the
# split thresholds of products and Adam pairs, at ragged row counts
@settings(derandomize=True, max_examples=30, deadline=None)
@given(batch=st.integers(1, 40),
       image_x=st.integers(2, 15).map(lambda half: 2 * half),
       image_y=st.integers(2, 15).map(lambda half: 2 * half),
       hidden=st.integers(1, 140), classes=st.integers(1, 37),
       seed=st.integers(0, 2 ** 32 - 1))
@example(batch=1, image_x=4, image_y=4, hidden=1, classes=1, seed=0)
@example(batch=33, image_x=30, image_y=16, hidden=33, classes=37, seed=0)
def test_every_path_trains_to_the_same_checkpoint(tmp_path_factory, batch,
                                                  image_x, image_y, hidden,
                                                  classes, seed):
    """A training epoch on the compiled kernels and on the numpy loops,
    each sequential and pipelined, ends in one checkpoint's bytes."""
    dims = ModelDims(batch, image_x, image_y, hidden=hidden, classes=classes)
    images, labels = synthetic_dataset(seed, 2 * batch, image_x, image_y,
                                       classes)
    batches = make_batches(images, labels, batch)
    path = tmp_path_factory.getbasetemp() / "every-path.ckpt"
    checkpoints = set()
    for kernels in (native.kernels(), None):
        # patched here, as a function-scoped fixture would outlive the
        # example
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "kernels", lambda: kernels)
            for mode in MODES:
                state, _ = run_epoch(batches, ModelState.initial(seed, dims),
                                     mode, True, ResourceBudget(), dims)
                save_checkpoint(path, state)
                checkpoints.add(path.read_bytes())
    assert len(checkpoints) == 1


CAP = st.integers(1, 64)


# small models, so that the simulator's walk of every launch stays cheap
@settings(derandomize=True, max_examples=300, deadline=None)
@given(batch=st.integers(1, 8),
       image_x=st.integers(2, 5).map(lambda half: 2 * half),
       image_y=st.integers(2, 5).map(lambda half: 2 * half),
       hidden=st.integers(1, 16), classes=st.integers(1, 8),
       fc_unroll=st.none() | st.tuples(CAP, CAP),
       budget=st.builds(ResourceBudget, max_multipliers=CAP, max_adders=CAP,
                        pipeline_depth=st.integers(1, 16),
                        interface_cycles_per_word=st.integers(1, 4)))
@example(batch=1, image_x=4, image_y=4, hidden=1, classes=1,
         fc_unroll=(64, 64),
         budget=ResourceBudget(max_multipliers=1, max_adders=1,
                               pipeline_depth=1, interface_cycles_per_word=1))
@example(batch=8, image_x=10, image_y=10, hidden=16, classes=8,
         fc_unroll=(1, 1),
         budget=ResourceBudget(max_multipliers=64, max_adders=64,
                               pipeline_depth=16, interface_cycles_per_word=4))
def test_the_cycle_model_matches_the_simulator(batch, image_x, image_y,
                                               hidden, classes, fc_unroll,
                                               budget):
    """Each nest of both passes costs the simulator's cycles under the
    default partitions, and a pass adds the transfer of its feature,
    label and probability blocks, two interface words per float64."""
    dims = ModelDims(batch, image_x, image_y, hidden=hidden, classes=classes)
    partitions = default_partitions(dims)
    transfer = count_transfer_cycles(
        2 * batch * (dims.pool_map + 2 * classes),
        budget.interface_cycles_per_word)
    for mode in ("inference", "training"):
        est = estimate_pass(mode, budget, dims, fc_unroll)
        nests = pass_nests(mode, dims, fc_unroll)
        assert [r.name for r in est.reports] == [n.name for n in nests]
        simulated = [simulate_nest_cycles(n, partitions, budget)
                     for n in nests]
        assert [r.cycles for r in est.reports] == simulated
        assert est.total_cycles == sum(simulated) + transfer


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 64),
       rows=st.integers(0, 40), cols=st.integers(0, 40),
       num_classes=st.integers(1, 40))
def test_synthetic_dataset_gives_the_integers_bytes(seed, n, rows, cols,
                                                    num_classes):
    assert_same_fixture(seed, n, rows, cols, num_classes)


# each binary input by file name, and what a load of it returns; a name
# ending in .gz holds the gzipped bytes of the file without the suffix
LOADERS = {"model.ckpt": lambda path: load_checkpoint(path).adam.v_w2,
           "images": lambda path: load_idx_images(path, 6, 7).pixels,
           "labels": lambda path: load_idx_labels(path).labels}
NAMES = st.sampled_from(["model.ckpt", "images", "images.gz", "labels",
                         "labels.gz"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory for the files a property writes, and the uncompressed
    bytes of each well-formed input and what a load of it returns, by file
    name."""
    tmp = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(7)
    save_checkpoint(tmp / "model.ckpt", _trained_state(7))
    write_idx_images(ImageSet(rng.integers(0, 256, (3, 6, 7)).astype(np.uint8)),
                     tmp / "images")
    write_idx_labels(LabelSet(rng.integers(0, 10, 12)), tmp / "labels")
    plain = {name: (tmp / name).read_bytes() for name in LOADERS}
    plain.update({"images.gz": plain["images"], "labels.gz": plain["labels"]})
    return tmp, plain, {name: _load(tmp, name, _stored(name, data))
                        for name, data in plain.items()}


def _stored(name, data):
    """The file bytes of name holding the uncompressed bytes data."""
    return gzip.compress(data, mtime=0) if name.endswith(".gz") else data


def _load(tmp, name, raw):
    """What a load of a file name of bytes raw returns, or the FormatError
    it raises, whose path and offset its message leads with."""
    path = tmp / name
    path.write_bytes(raw)
    try:
        return LOADERS[name.removesuffix(".gz")](path)
    except FormatError as err:
        assert err.path == path
        assert str(err).startswith(f"{path}: byte {err.offset}: ")
        return err


@settings(derandomize=True, max_examples=250, deadline=None)
@given(name=NAMES, data=st.data())
def test_a_cut_file_fails(inputs, name, data):
    tmp, plain, _ = inputs
    raw = _stored(name, plain[name])
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    assert isinstance(_load(tmp, name, raw[:cut]), FormatError)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=NAMES, extra=st.binary(min_size=1, max_size=40))
def test_bytes_after_the_end_fail_at_the_end(inputs, name, extra):
    tmp, plain, _ = inputs
    err = _load(tmp, name, _stored(name, plain[name] + extra))
    assert isinstance(err, FormatError)
    assert err.offset == len(plain[name])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(name=NAMES, data=st.data())
def test_a_flipped_bit_fails_or_loads(inputs, name, data):
    # gzip checks its CRC only at the end of the stream, where the loader
    # reads it: a .gz that loads holds the original data
    tmp, plain, want = inputs
    raw = bytearray(_stored(name, plain[name]))
    bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    raw[bit // 8] ^= 1 << bit % 8
    got = _load(tmp, name, bytes(raw))
    if name.endswith(".gz") and not isinstance(got, FormatError):
        assert np.array_equal(got, want[name])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(name=st.sampled_from(["images.gz", "labels.gz"]),
       extra=st.binary(min_size=1, max_size=40))
# gzip skips zero padding after a stream
@example(name="labels.gz", extra=b"\0\0")
def test_bytes_after_a_gzip_stream_fail_or_load_unchanged(inputs, name,
                                                          extra):
    # gzip reads what follows a stream as the next member
    tmp, plain, want = inputs
    got = _load(tmp, name, _stored(name, plain[name]) + extra)
    assert isinstance(got, FormatError) or np.array_equal(got, want[name])
