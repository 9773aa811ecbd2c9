"""Tests for the finite-difference checker itself.

The checker has to both accept correct gradients and reject planted wrong
ones; a checker that never fails is not a check.
"""

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba import checks
from vcmamba.autodiff import Tensor
from vcmamba.gradcheck import finite_diff_check

F64 = np.float64


def test_sum_gradient_matches_exactly():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=F64)
    report = finite_diff_check(lambda: ad.sum_all(x), [x])
    assert report.passed
    assert report.max_error < 1e-8
    assert report.n_coords == 6


def test_quadratic_passes_and_reports_fields(rng):
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="x", dtype=F64)
    report = finite_diff_check(lambda: ad.sum_all(ad.mul(x, x)), [x])
    assert report.passed
    assert report.worst_tensor == "x"
    assert report.per_tensor["x"] == report.max_error
    assert "ok" in str(report)


def test_detects_planted_wrong_vjp(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True, dtype=F64)

    def bad_double(t):
        out = Tensor(t.data * 2.0, dtype=t.dtype)
        ad.record("bad_double", out, (t,), lambda g: (g * 3.0,))  # deliberately wrong
        return out

    report = finite_diff_check(lambda: ad.sum_all(bad_double(x)), [x])
    assert not report.passed
    assert report.max_error > 0.3
    assert "FAIL" in str(report)


def test_subsampling_limits_coordinate_count(rng):
    x = Tensor(rng.normal(size=(10, 10)), requires_grad=True, dtype=F64)
    report = finite_diff_check(lambda: ad.sum_all(ad.gelu(x)), [x],
                               max_coords_per_tensor=7, rng=np.random.default_rng(1))
    assert report.passed
    assert report.n_coords == 7


def test_subsampling_needs_an_explicit_rng(rng):
    x = Tensor(rng.normal(size=(10, 10)), requires_grad=True, dtype=F64)
    with pytest.raises(ValueError, match="explicit rng"):
        finite_diff_check(lambda: ad.sum_all(x), [x], max_coords_per_tensor=7)


def test_rejects_float32_tensors():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        finite_diff_check(lambda: ad.sum_all(x), [x])


def test_rejects_non_grad_tensors():
    x = Tensor([1.0], requires_grad=False, dtype=F64)
    with pytest.raises(ValueError, match="require"):
        finite_diff_check(lambda: ad.sum_all(x), [x])


def test_rejects_empty_wrt():
    with pytest.raises(ValueError, match="at least one"):
        finite_diff_check(lambda: ad.sum_all(Tensor([1.0], dtype=F64)), [])


def test_inputs_restored_after_check(rng):
    data = rng.normal(size=5)
    x = Tensor(data, requires_grad=True, dtype=F64)
    finite_diff_check(lambda: ad.sum_all(ad.silu(x)), [x])
    np.testing.assert_array_equal(x.data, data)


def double(t, vjp):
    """2 * t, recorded with the given (planted) vjp."""
    out = Tensor(t.data * 2.0, dtype=t.dtype)
    ad.record("double", out, (t,), vjp)
    return out


def nan_grad(g):
    return (np.full(g.shape, np.nan),)


def test_non_finite_gradient_fails_and_is_the_worst(rng):
    # a NaN error compares False against any bound, so it must not be dropped
    x = Tensor(rng.normal(size=4), requires_grad=True, name="x", dtype=F64)
    y = Tensor(rng.normal(size=(2, 3)), requires_grad=True, name="y", dtype=F64)
    report = finite_diff_check(
        lambda: ad.add(ad.sum_all(ad.mul(y, y)), ad.sum_all(double(x, nan_grad))), [y, x])
    assert not report.passed
    assert report.max_error == np.inf and report.per_tensor["x"] == np.inf
    assert report.worst_tensor == "x" and report.worst_index == (0,)
    assert report.per_tensor["y"] < 1e-6
    assert "FAIL" in str(report)


def test_check_gradients_reports_a_non_finite_gradient(monkeypatch):
    conv2d = ad.conv2d
    monkeypatch.setattr(ad, "conv2d", lambda *args, **kw: double(conv2d(*args, **kw), nan_grad))
    result = checks.check_gradients()
    assert not result.passed
    assert "conv2d: inf" in result.detail


def test_tensors_sharing_a_name_get_their_own_entries(rng):
    # module parameters share names ("weight"); each gets its own report key
    a, b = (Tensor(rng.normal(size=3), requires_grad=True, name="weight", dtype=F64)
            for _ in range(2))
    x = Tensor(rng.normal(size=3), requires_grad=True, name="x", dtype=F64)

    def f():
        return ad.add(ad.sum_all(ad.mul(a, x)), ad.sum_all(double(b, lambda g: (g * 3.0,))))

    report = finite_diff_check(f, [a, x, b])
    assert set(report.per_tensor) == {"weight#0", "x", "weight#2"}
    assert report.per_tensor["weight#0"] < 1e-6
    assert report.worst_tensor == "weight#2"
