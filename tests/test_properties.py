"""Property-based differential tests, over inputs hypothesis draws: the
compiled kernels against their numpy references, and the synthetic
fixture's raw-word draw against numpy's integers().

Each property runs a fixed, bounded set of examples (derandomize=True), so
a run is deterministic, and a counterexample it finds stays as one of its
@example cases.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convpipe import neuralcore
from convpipe.neuralcore import matmul_kseq

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
    tail, and between the kernel's tiles and builds: which sign survives
    is not part of the result."""
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=DIM, k=DIM, n=DIM, seed=st.integers(0, 2 ** 32 - 1),
       share=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 64),
       rows=st.integers(0, 40), cols=st.integers(0, 40),
       num_classes=st.integers(1, 40))
def test_synthetic_dataset_gives_the_integers_bytes(seed, n, rows, cols,
                                                    num_classes):
    assert_same_fixture(seed, n, rows, cols, num_classes)
