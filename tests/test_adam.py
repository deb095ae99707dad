import numpy as np
import pytest

from convpipe import native
from convpipe.adam import (AdamHyper, AdamState, _adam_update_numpy,
                           adam_update, apply_batch_update, correction_factors)
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


@pytest.mark.parametrize("shape", [(169, 128), (128, 10)])
def test_compiled_update_matches_numpy_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    w = rng.normal(0.0, 0.1, size=shape)
    m, v = np.zeros(shape), np.zeros(shape)
    ref_w, ref_m, ref_v = w.copy(), m.copy(), v.copy()
    for t in range(1, 51):
        g = _special_gradient(rng, shape)
        corr = correction_factors(HYPER, t)
        with np.errstate(all="ignore"):  # inf - inf and the like
            count = adam_update(w, m, v, g, corr, HYPER)
            ref_count = _adam_update_numpy(ref_w, ref_m, ref_v, g, corr, HYPER)
        assert count == ref_count == np.count_nonzero(~np.isfinite(ref_w))
    assert np.isnan(w).any() and np.isfinite(w).any()
    assert w.tobytes() == ref_w.tobytes()
    assert m.tobytes() == ref_m.tobytes()
    assert v.tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_update_counts_nonfinite_weights(compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(native, "kernels", lambda: None)
    w = np.array([[np.nan, 1.0, np.inf], [-np.inf, -0.0, 2.0]])
    m, v, g = np.zeros((3, 2, 3))
    # a zero step leaves every weight as it was
    assert adam_update(w, m, v, g, correction_factors(HYPER, 1), HYPER) == 3
    assert np.count_nonzero(np.isfinite(w)) == 3


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
    # the kernel takes C-contiguous float64 only; it must never update a
    # copy, nor compute in another precision than numpy would
    rng = np.random.default_rng(7)
    arrays = {"w": rng.normal(size=(6, 5)), "m": rng.normal(size=(6, 5)) * 0.01,
              "v": np.abs(rng.normal(size=(6, 5))) * 0.001,
              "g": rng.normal(size=(6, 5))}
    arrays[name] = layout(arrays[name])
    ref = {k: a.copy(order="K") for k, a in arrays.items()}
    corr = correction_factors(HYPER, 4)
    adam_update(arrays["w"], arrays["m"], arrays["v"], arrays["g"], corr, HYPER)
    _adam_update_numpy(ref["w"], ref["m"], ref["v"], ref["g"], corr, HYPER)
    for k in "wmvg":
        assert arrays[k].dtype == ref[k].dtype
        assert np.ascontiguousarray(arrays[k]).tobytes() == \
            np.ascontiguousarray(ref[k]).tobytes(), k


def _small_dims():
    return ModelDims(batch=4, image_x=8, image_y=8, kernel_x=3, kernel_y=3,
                     hidden=6, classes=10)


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
