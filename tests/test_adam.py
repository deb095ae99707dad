import copy

import numpy as np
import pytest

from convpipe import native
from convpipe.adam import (AdamHyper, AdamState, adam_update,
                           apply_batch_update, correction_factors)
from convpipe.dims import ModelDims
from convpipe.neuralcore import Gradients, Weights, init_weights

from oracles import reference_adam_arrays, scalar_adam_run, scalar_adam_step

HYPER = AdamHyper()


def test_hyper_defaults():
    assert (HYPER.beta1, HYPER.beta2, HYPER.eta, HYPER.eps) == \
        (0.9, 0.999, 0.01, 1e-7)


def test_hyper_validation():
    with pytest.raises(ValueError):
        AdamHyper(beta1=1.0)
    with pytest.raises(ValueError):
        AdamHyper(eta=0.0)


def test_correction_factors_first_step():
    corr = correction_factors(HYPER, 1)
    assert corr.c1 == pytest.approx(10.0, rel=1e-14)
    assert corr.c2 == pytest.approx(1000.0, rel=1e-12)


def test_correction_factors_step_two():
    corr = correction_factors(HYPER, 2)
    assert corr.c1 == pytest.approx(1.0 / 0.19, rel=1e-12)
    assert corr.c1 == pytest.approx(5.263158, rel=1e-6)


def test_correction_factors_decay_to_one():
    corr = correction_factors(HYPER, 10000)
    assert abs(corr.c1 - 1.0) < 1e-4
    assert abs(corr.c2 - 1.0) < 1e-4


def test_correction_factors_reject_t_zero():
    with pytest.raises(ValueError):
        correction_factors(HYPER, 0)


def test_zero_gradient_zero_moments_is_fixed_point():
    w = np.array([[1.5, -2.0], [0.25, 0.0]])
    before = w.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    adam_update(w, m, v, np.zeros_like(w), correction_factors(HYPER, 1), HYPER)
    assert np.array_equal(w, before)
    assert np.all(m == 0.0) and np.all(v == 0.0)


def test_scalar_first_step_values():
    w = np.array([[0.0]])
    m = np.zeros((1, 1))
    v = np.zeros((1, 1))
    adam_update(w, m, v, np.ones((1, 1)), correction_factors(HYPER, 1), HYPER)
    assert m[0, 0] == pytest.approx(0.1, rel=1e-14)
    assert v[0, 0] == pytest.approx(0.001, rel=1e-12)
    # first step: the bias correction exactly cancels the blend-in factors
    assert w[0, 0] == pytest.approx(-0.01 / (1.0 + 1e-7), rel=1e-9)
    assert w[0, 0] == pytest.approx(-0.00999999, abs=1e-8)


def test_update_matches_scalar_loop_bitwise():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 7))
    m = rng.normal(size=(5, 7)) * 0.01
    v = np.abs(rng.normal(size=(5, 7))) * 0.001
    g = rng.normal(size=(5, 7))
    expect = np.empty_like(w)
    em = np.empty_like(w)
    ev = np.empty_like(w)
    for idx in np.ndindex(w.shape):
        expect[idx], em[idx], ev[idx] = scalar_adam_step(
            w[idx], m[idx], v[idx], g[idx], t=3)
    adam_update(w, m, v, g, correction_factors(HYPER, 3), HYPER)
    assert np.array_equal(w, expect)
    assert np.array_equal(m, em)
    assert np.array_equal(v, ev)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        adam_update(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                    np.zeros((2, 3)), correction_factors(HYPER, 1), HYPER)


def _special_gradient(rng, shape):
    """Normal entries with a few zeros, -0.0s, huge values, infs and NaNs."""
    g = rng.normal(size=shape)
    flat = g.reshape(-1)
    specials = [0.0, -0.0, 1e300, -1e308, 1.7e308, np.inf, -np.inf, np.nan]
    for value in specials:
        flat[rng.integers(0, flat.size, 2)] = value
    return g


def _small_dims():
    return ModelDims(batch=4, image_x=8, image_y=8, hidden=6, classes=10)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_update_counts_nonfinite_weights(compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(native, "kernels", lambda: None)
    dims = _small_dims()
    weights, state = init_weights(0, dims), AdamState.zeros(dims)
    weights.w1[0, :2] = np.nan, -np.inf
    weights.w2[1, :3] = np.inf, -0.0, np.nan
    zeros = Gradients(np.zeros_like(weights.w1), np.zeros_like(weights.w2))
    # a zero step leaves every weight as it was
    assert apply_batch_update(state, weights, zeros, HYPER) == 4
    assert np.count_nonzero(~np.isfinite(weights.w1)) == 2
    assert np.count_nonzero(~np.isfinite(weights.w2)) == 2


def _fortran(a):
    return np.asfortranarray(a)


def _strided(a):
    base = np.zeros((a.shape[0], 2 * a.shape[1]))
    base[:, ::2] = a
    return base[:, ::2]


def _float32(a):
    return a.astype(np.float32)


@pytest.mark.parametrize("name", ["w", "m", "v", "g"])
@pytest.mark.parametrize("layout", [_fortran, _strided, _float32])
def test_update_writes_the_callers_arrays_in_any_layout(name, layout):
    # the one-layer update must write the caller's arrays, never a copy, and
    # give the bytes it gives on C-contiguous arrays of the same dtypes
    rng = np.random.default_rng(7)
    arrays = {"w": rng.normal(size=(6, 5)), "m": rng.normal(size=(6, 5)) * 0.01,
              "v": np.abs(rng.normal(size=(6, 5))) * 0.001,
              "g": rng.normal(size=(6, 5))}
    arrays[name] = layout(arrays[name])
    held = dict(arrays)
    ref = {k: np.ascontiguousarray(a).copy() for k, a in arrays.items()}
    corr = correction_factors(HYPER, 4)
    adam_update(arrays["w"], arrays["m"], arrays["v"], arrays["g"], corr, HYPER)
    adam_update(ref["w"], ref["m"], ref["v"], ref["g"], corr, HYPER)
    for k in "wmvg":
        assert arrays[k] is held[k]
        assert arrays[k].dtype == ref[k].dtype
        assert np.ascontiguousarray(arrays[k]).tobytes() == ref[k].tobytes(), k


def _six(weights, state):
    """Both layers' weights and moments, in a fixed order."""
    return (weights.w1, weights.w2, state.m_w1, state.v_w1, state.m_w2,
            state.v_w2)


def _numpy_batch_update(weights, state, grads, t):
    """The output layer's and then the hidden layer's numpy update."""
    corr = correction_factors(HYPER, t)
    return (adam_update(weights.w2, state.m_w2, state.v_w2, grads.g_w2,
                        corr, HYPER)
            + adam_update(weights.w1, state.m_w1, state.v_w1, grads.g_w1,
                          corr, HYPER))


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_batch_update_matches_two_numpy_updates(compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(native, "kernels", lambda: None)
    rng = np.random.default_rng(17)
    weights, state = init_weights(17), AdamState.zeros()
    ref_w = Weights(weights.w1.copy(), weights.w2.copy())
    ref = AdamState.zeros()
    for t in range(1, 21):
        grads = Gradients(_special_gradient(rng, (169, 128)),
                          _special_gradient(rng, (128, 10)))
        with np.errstate(all="ignore"):  # inf - inf and the like
            count = apply_batch_update(state, weights, grads, HYPER)
            assert count == _numpy_batch_update(ref_w, ref, grads, t)
        assert state.step == t
    assert 0 < count < weights.w1.size + weights.w2.size
    for got, want in zip(_six(weights, state), _six(ref_w, ref)):
        assert got.tobytes() == want.tobytes()


# (output layer's shape, hidden layer's shape), past the kernel's split
# threshold (8192 elements): its first chunk of 2048 elements ends one
# element past, at and one element short of the output layer's end; the
# third chunk holds the output layer's last element; the default dims
SHARED_ADAM_SHAPES = [((89, 23), (100, 70)), ((128, 16), (100, 70)),
                      ((683, 3), (100, 70)), ((4097,), (7, 1000)),
                      ((128, 10), (169, 128))]


@pytest.mark.parametrize("shapes", SHARED_ADAM_SHAPES, ids=str)
def test_a_shared_update_gives_two_numpy_updates(shapes, unsplit_kernels,
                                                 monkeypatch):
    """An update shared with the helper thread, in chunks of elements over
    the output layer and then the hidden layer, gives the bytes and the
    non-finite count of adam_update on each layer, and of the same call in
    a build where it runs on one thread."""
    if unsplit_kernels is None:
        pytest.skip("no compiled kernels")
    (w2_shape, w1_shape), rng = shapes, np.random.default_rng(18)
    weights = Weights(rng.normal(size=w1_shape), rng.normal(size=w2_shape))
    state = AdamState(rng.normal(size=w1_shape) * 0.01,
                      np.abs(rng.normal(size=w1_shape)) * 0.001,
                      rng.normal(size=w2_shape) * 0.01,
                      np.abs(rng.normal(size=w2_shape)) * 0.001, step=2)
    grads = Gradients(_special_gradient(rng, w1_shape),
                      _special_gradient(rng, w2_shape))
    results = []
    for kernels in (native.kernels(), unsplit_kernels, None):
        monkeypatch.setattr(native, "kernels", lambda: kernels)
        w, s = copy.deepcopy((weights, state))
        with np.errstate(all="ignore"):  # inf - inf and the like
            count = apply_batch_update(s, w, grads, HYPER)
        results.append((count, [x.tobytes() for x in _six(w, s)]))
    assert results[0][0] > 0
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("layout", [_fortran, _strided, _float32])
@pytest.mark.parametrize("name", ["w1", "w2", "m_w1", "v_w1", "m_w2", "v_w2",
                                  "g_w1", "g_w2"])
def test_batch_update_takes_either_layer_in_any_layout(name, layout):
    # the compiled kernel takes C-contiguous float64 only, and copies
    # nothing: an array it refuses sends both layers through adam_update,
    # which updates the caller's array itself, in the precision numpy
    # computes in, with the bytes the kernel gives a C-contiguous one
    rng = np.random.default_rng(8)
    weights = init_weights(8)
    state = AdamState(*(rng.normal(size=a.shape) * 0.01 for a in
                        (weights.w1, weights.w1, weights.w2, weights.w2)))
    state.v_w1, state.v_w2 = abs(state.v_w1), abs(state.v_w2)
    grads = Gradients(rng.normal(size=weights.w1.shape),
                      rng.normal(size=weights.w2.shape))
    owner = next(x for x in (weights, state, grads) if hasattr(x, name))
    setattr(owner, name, layout(getattr(owner, name)))
    target = getattr(owner, name)
    assert not (target.flags.c_contiguous and target.dtype == np.float64)
    ref_w, ref, ref_g = copy.deepcopy((weights, state, grads))
    for t in (1, 2):
        assert apply_batch_update(state, weights, grads, HYPER) == 0
        _numpy_batch_update(ref_w, ref, ref_g, t)
    assert getattr(owner, name) is target
    for got, want in zip(_six(weights, state), _six(ref_w, ref)):
        assert got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("bad", ["g_w1", "g_w2"])
def test_misshaped_gradient_leaves_the_state_untouched(bad):
    dims = _small_dims()
    rng = np.random.default_rng(9)
    weights, state = init_weights(9, dims), AdamState.zeros(dims)
    grads = Gradients(rng.normal(size=weights.w1.shape),
                      rng.normal(size=weights.w2.shape))
    apply_batch_update(state, weights, grads, HYPER)  # moments non-zero
    setattr(grads, bad, getattr(grads, bad)[:, :-1])
    before = [x.tobytes() for x in _six(weights, state)]
    with pytest.raises(ValueError, match="shape"):
        apply_batch_update(state, weights, grads, HYPER)
    assert state.step == 1
    assert [x.tobytes() for x in _six(weights, state)] == before


def test_two_zero_grad_batches_advance_t_only():
    dims = _small_dims()
    weights = init_weights(0, dims)
    before_w1 = weights.w1.copy()
    state = AdamState.zeros(dims)
    zeros = Gradients(np.zeros_like(weights.w1), np.zeros_like(weights.w2))
    apply_batch_update(state, weights, zeros, HYPER)
    apply_batch_update(state, weights, zeros, HYPER)
    assert state.step == 2
    assert np.array_equal(weights.w1, before_w1)


def test_batch_update_equals_manual_composition():
    dims = _small_dims()
    rng = np.random.default_rng(1)
    weights = init_weights(1, dims)
    manual_w = Weights(weights.w1.copy(), weights.w2.copy())
    state = AdamState.zeros(dims)
    manual_state = AdamState.zeros(dims)
    grads = Gradients(rng.normal(size=weights.w1.shape),
                      rng.normal(size=weights.w2.shape))

    apply_batch_update(state, weights, grads, HYPER)

    manual_state.step += 1
    corr = correction_factors(HYPER, manual_state.step)
    adam_update(manual_w.w2, manual_state.m_w2, manual_state.v_w2,
                grads.g_w2, corr, HYPER)
    adam_update(manual_w.w1, manual_state.m_w1, manual_state.v_w1,
                grads.g_w1, corr, HYPER)
    assert np.array_equal(weights.w1, manual_w.w1)
    assert np.array_equal(weights.w2, manual_w.w2)
    assert state.step == 1


def test_three_batches_match_monolithic_reference():
    dims = _small_dims()
    rng = np.random.default_rng(2)
    weights = init_weights(2, dims)
    ref_w1 = weights.w1.copy()
    ref_w2 = weights.w2.copy()
    state = AdamState.zeros(dims)
    seq = [(rng.normal(size=weights.w1.shape), rng.normal(size=weights.w2.shape))
           for _ in range(3)]
    for g1, g2 in seq:
        apply_batch_update(state, weights, Gradients(g1, g2), HYPER)
    exp_w1, exp_w2 = reference_adam_arrays(ref_w1, ref_w2, seq)
    assert np.array_equal(weights.w1, exp_w1)
    assert np.array_equal(weights.w2, exp_w2)
    assert state.step == 3


def test_second_moment_stays_nonnegative():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 4))
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, 50):
        g = rng.normal(size=(4, 4)) * 10.0 ** float(rng.integers(-3, 3))
        adam_update(w, m, v, g, correction_factors(HYPER, t), HYPER)
        assert np.all(v >= 0.0)


def test_first_step_moves_against_gradient():
    rng = np.random.default_rng(4)
    g = np.abs(rng.normal(size=(3, 3))) + 1e-3
    for sign in (1.0, -1.0):
        w = rng.normal(size=(3, 3))
        before = w.copy()
        adam_update(w, np.zeros_like(w), np.zeros_like(w), sign * g,
                    correction_factors(HYPER, 1), HYPER)
        assert np.all(np.sign(w - before) == -sign)


def test_step_magnitude_bound():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(6, 6))
    m = rng.normal(size=(6, 6))
    v = np.abs(rng.normal(size=(6, 6)))
    g = rng.normal(size=(6, 6)) * 100
    corr = correction_factors(HYPER, 7)
    before = w.copy()
    adam_update(w, m, v, g, corr, HYPER)
    bound = HYPER.eta * np.abs(m * corr.c1) / HYPER.eps
    assert np.all(np.abs(w - before) <= bound + 1e-300)


def test_long_scalar_run_matches_oracle_bitwise():
    rng = np.random.default_rng(6)
    grads = rng.normal(size=200)
    w = np.array([[0.5]])
    m = np.zeros((1, 1))
    v = np.zeros((1, 1))
    for t, g in enumerate(grads, start=1):
        adam_update(w, m, v, np.array([[g]]), correction_factors(HYPER, t), HYPER)
    ew, em, ev = scalar_adam_run(0.5, grads)
    assert w[0, 0] == ew and m[0, 0] == em and v[0, 0] == ev
