"""Selective scan tests.

The kernel is checked three independent ways: frozen hand-computed
recurrences, an O(L^2) dense transition-matrix oracle written with plain
loops in this file, and finite differences on every differentiable operand.
The literal and doubling routes are also required to agree with each other,
forward and backward, with and without direction codes.
"""

import tracemalloc

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import ShapeMismatch, Tape, Tensor, backward
from vcmamba.nn import LayerNorm
from vcmamba.scanpath import Direction, build_path, path_table
from vcmamba.ssm import (CHUNK, N_DIRECTIONS, NonFiniteStateError, ScanInputs, SsmParams,
                         _chunk_states, _discretize, _pair_scan_doubling,
                         direction_aware_scan, directional_scan_sum,
                         selective_projection, selective_scan_parallel,
                         selective_scan_sequential)

F64 = np.float64


def channel_norm(fmap, norm):
    """LayerNorm over the channels of a channels-last (B, H, W, D) map, as
    MambaBranch applies it, returned as a (B, D, H, W) map."""
    return ad.moveaxis(norm(fmap), 3, 1)


def channels_last(a):
    return np.moveaxis(a, 1, 3)


def project(tokens, params):
    """Scan inputs for (B, D, L) tokens from the channels-last projection."""
    delta, b_seq, c_seq = selective_projection(ad.moveaxis(tokens, 1, 2), params)
    return ScanInputs(tokens, *(ad.moveaxis(t, 1, 2) for t in (delta, b_seq, c_seq)))


def make_params(d, n, dtype=F64, seed=0):
    return SsmParams(d, n).draw(np.random.default_rng(seed)).to(dtype)


def make_inputs(rng, b=2, d=3, n=4, length=6, dtype=F64, with_dirs=False):
    """Random well-scaled scan operands; b/c shrink with n to keep y ~ O(1)."""
    x = Tensor(rng.normal(size=(b, d, length)), requires_grad=True, dtype=dtype, name="x")
    delta = Tensor(rng.uniform(0.05, 0.3, size=(b, d, length)), requires_grad=True,
                   dtype=dtype, name="delta")
    b_seq = Tensor(rng.normal(size=(b, n, length)) / np.sqrt(n), requires_grad=True,
                   dtype=dtype, name="b_seq")
    c_seq = Tensor(rng.normal(size=(b, n, length)) / np.sqrt(n), requires_grad=True,
                   dtype=dtype, name="c_seq")
    dirs = None
    if with_dirs:
        dirs = np.concatenate([[0], rng.integers(0, N_DIRECTIONS, size=length - 1)])
    return ScanInputs(x=x, delta=delta, b_seq=b_seq, c_seq=c_seq, dirs=dirs)


def dense_scan_oracle(inputs, params):
    """O(L^2) evaluation of the recurrence with explicit python loops. The
    direction codes are (L,), shared by every row, or (B, L), one row each."""
    xd, dd = inputs.x.data, inputs.delta.data
    bd, cd = inputs.b_seq.data, inputs.c_seq.data
    bsz, d, length = xd.shape
    n = params.n_state
    a = -np.exp(params.a_log.data)
    table = params.direction_table.data
    beff = bd.copy()
    if inputs.dirs is not None:
        dirs = np.broadcast_to(inputs.dirs, (bsz, length))
        for bi in range(bsz):
            for i in range(length):
                beff[bi, :, i] += table[int(dirs[bi, i])]
    y = np.zeros_like(xd)
    for bi in range(bsz):
        for di in range(d):
            for i in range(length):
                acc = np.zeros(n, dtype=xd.dtype)
                for j in range(i + 1):
                    term = dd[bi, di, j] * beff[bi, :, j] * xd[bi, di, j]
                    decay = np.ones(n, dtype=xd.dtype)
                    for k in range(j + 1, i + 1):
                        decay = decay * np.exp(dd[bi, di, k] * a[di])
                    acc += decay * term
                y[bi, di, i] = cd[bi, :, i] @ acc + params.skip_gain.data[di] * xd[bi, di, i]
    return y


# ---------------------------------------------------------------------------
# parameters and projections


class TestSsmParams:
    def test_spectrum_init(self):
        p = make_params(3, 5)
        expected = np.log(np.arange(1.0, 6.0))
        for row in p.a_log.data:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_step_size_bias_lands_in_band(self):
        p = make_params(64, 16)
        dt = np.logaddexp(0.0, p.dt_bias.data)  # softplus
        assert np.all(dt >= 1e-3 - 1e-9) and np.all(dt <= 0.1 + 1e-9)

    def test_direction_table_starts_at_zero(self):
        p = make_params(4, 8)
        assert p.direction_table.shape == (N_DIRECTIONS, 8)
        np.testing.assert_array_equal(p.direction_table.data, 0.0)

    def test_low_rank_rule(self):
        assert make_params(64, 4).dt_rank == 2
        assert make_params(16, 4).dt_rank == 1
        assert make_params(288, 4).dt_rank == 9

    def test_skip_gain_starts_at_one(self):
        np.testing.assert_array_equal(make_params(5, 3).skip_gain.data, 1.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            SsmParams(0, 4)
        with pytest.raises(ValueError):
            SsmParams(4, 0)

    def test_all_tensors_require_grad(self):
        p = make_params(4, 4)
        names = dict(p.named_parameters())
        assert set(names) >= {"a_log", "skip_gain", "b_proj", "c_proj",
                              "dt_down", "dt_up", "dt_bias", "direction_table"}
        assert all(t.requires_grad for t in names.values())


class TestSelectiveProjection:
    def test_scalar_case_formula(self):
        p = make_params(1, 1)
        p.b_proj.data[:] = 2.0
        p.c_proj.data[:] = -1.0
        p.dt_down.data[:] = 0.5
        p.dt_up.data[:] = 3.0
        p.dt_bias.data[:] = 0.25
        x = Tensor(np.array([[[0.5], [-1.0]]]), dtype=F64)
        delta, b_seq, c_seq = selective_projection(x, p)
        np.testing.assert_allclose(b_seq.data, 2.0 * x.data, atol=1e-12)
        np.testing.assert_allclose(c_seq.data, -1.0 * x.data, atol=1e-12)
        expected_dt = np.logaddexp(0.0, 3.0 * (0.5 * x.data) + 0.25)
        np.testing.assert_allclose(delta.data, expected_dt, atol=1e-12)

    def test_delta_strictly_positive(self, rng):
        p = make_params(8, 4)
        x = Tensor(rng.normal(size=(2, 10, 8), scale=5.0), dtype=F64)
        delta, b_seq, c_seq = selective_projection(x, p)
        assert np.all(delta.data > 0)
        assert b_seq.shape == (2, 10, 4) and c_seq.shape == (2, 10, 4)

    def test_wrong_channel_count_raises(self):
        with pytest.raises(ShapeMismatch):
            selective_projection(Tensor(np.zeros((1, 3, 4))), make_params(8, 4))


class TestDiscretize:
    """The token-wise rule on scan-axis-first operands: delta (L, B, D),
    A^T (N, D), b (L, B, N) -> abar, bbar (L, B, N, D)."""

    def test_frozen_zero_order_hold(self):
        delta = np.full((1, 1, 1), 0.5)
        a_t = -np.exp(np.zeros((1, 1)))  # A = -1
        b = np.full((1, 1, 1), 2.0)
        abar, bbar = _discretize(delta, a_t, b)
        assert abar[0, 0, 0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert bbar[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shapes_and_decay_range(self, rng):
        delta = rng.uniform(0.01, 0.5, size=(7, 2, 3))
        a_t = -np.exp(rng.normal(size=(4, 3)))
        b = rng.normal(size=(7, 2, 4))
        abar, bbar = _discretize(delta, a_t, b)
        assert abar.shape == bbar.shape == (7, 2, 4, 3)
        assert np.all(abar > 0) and np.all(abar < 1)


def kernel_states(inp, p):
    """abar, bbar and the states h, all (L, B, N, D), from the kernel's own
    routines on the scan-axis-first operands."""
    dt, b, x = (np.moveaxis(t.data, -1, 0) for t in (inp.delta, inp.b_seq, inp.x))
    a_t = -np.exp(p.a_log.data.T)
    abar, h = _chunk_states(dt, a_t, b, x, 0.0)
    return abar, _discretize(dt, a_t, b)[1], h


# ---------------------------------------------------------------------------
# recurrence cores


def literal_pair_scan(a, u):
    """h_i = a_i h_{i-1} + u_i from h_{-1} = 0, one step at a time along the leading axis."""
    h, acc = np.empty_like(u), 0.0
    for i in range(len(u)):
        h[i] = acc = a[i] * acc + u[i]
    return h


class TestPairScanCores:
    # the literal loop above is the reference; the doubling oracle must match it
    def test_running_sum(self):
        a = np.ones((3, 1))
        u = np.array([[1.0], [2.0], [3.0]])
        for core in (literal_pair_scan, _pair_scan_doubling):
            np.testing.assert_allclose(core(a, u), [[1.0], [3.0], [6.0]], atol=1e-12)

    def test_geometric_decay(self):
        a = np.full((3, 1), 0.5)
        u = np.ones((3, 1))
        for core in (literal_pair_scan, _pair_scan_doubling):
            np.testing.assert_allclose(core(a, u), [[1.0], [1.5], [1.75]], atol=1e-12)

    def test_cores_agree_on_awkward_lengths(self, rng):
        for length in [1, 2, 3, 5, 7, 63, 64, 65, 257]:
            a = rng.uniform(0.1, 0.99, size=(length, 2, 3))
            u = rng.normal(size=(length, 2, 3))
            np.testing.assert_allclose(literal_pair_scan(a, u),
                                       _pair_scan_doubling(a, u), atol=1e-10)

    @pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, 2 * CHUNK + 3])
    def test_chunk_states_resume_from_entry_states(self, rng, length):
        # the backward recomputes each chunk from the state entering it: that
        # must give the states of one pass over all tokens, bit for bit
        delta = rng.uniform(0.05, 0.3, size=(length, 2, 3))
        b, x = rng.normal(size=(length, 2, 4)), rng.normal(size=(length, 2, 3))
        a_t = -np.exp(rng.normal(size=(4, 3)))
        abar, h = _chunk_states(delta, a_t, b, x, 0.0)
        u = delta[:, :, None, :] * b[..., None] * x[:, :, None, :]
        np.testing.assert_array_equal(h, literal_pair_scan(abar, u))
        buf = np.empty((2, CHUNK, 2, 4, 3))
        for start in range(0, length, CHUNK):
            chunk = slice(start, start + CHUNK)
            h_in = h[start - 1] if start else 0.0
            np.testing.assert_array_equal(
                _chunk_states(delta[chunk], a_t, b[chunk], x[chunk], h_in, buf)[1], h[chunk])


# ---------------------------------------------------------------------------
# full kernels: values


class TestScanValues:
    def test_hand_rolled_recurrence(self):
        # B=1, D=1, N=1, L=3, every number chosen by hand
        x = Tensor(np.array([[[1.0, 2.0, -1.0]]]), requires_grad=True, dtype=F64)
        delta = Tensor(np.full((1, 1, 3), 0.5), dtype=F64)
        b = Tensor(np.full((1, 1, 3), 1.0), dtype=F64)
        c = Tensor(np.array([[[1.0, 0.5, 2.0]]]), dtype=F64)
        p = make_params(1, 1)
        p.a_log.data[:] = 0.0       # A = -1, abar = exp(-0.5)
        p.skip_gain.data[:] = 0.25
        inp = ScanInputs(x=x, delta=delta, b_seq=b, c_seq=c)

        e = np.exp(-0.5)
        h1 = 0.5 * 1.0
        h2 = e * h1 + 0.5 * 2.0
        h3 = e * h2 + 0.5 * (-1.0)
        expected = np.array([[[1.0 * h1 + 0.25 * 1.0,
                               0.5 * h2 + 0.25 * 2.0,
                               2.0 * h3 + 0.25 * (-1.0)]]])
        for kernel in (selective_scan_sequential, selective_scan_parallel):
            np.testing.assert_allclose(kernel(inp, p).data, expected, atol=1e-12)

    def test_matches_dense_oracle_direction_free(self, rng):
        p = make_params(3, 4)
        inp = make_inputs(rng, b=2, d=3, n=4, length=9)
        expected = dense_scan_oracle(inp, p)
        np.testing.assert_allclose(selective_scan_sequential(inp, p).data, expected,
                                   atol=1e-10)

    def test_matches_dense_oracle_direction_aware(self, rng):
        p = make_params(2, 3)
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 3)) * 0.3
        inp = make_inputs(rng, b=2, d=2, n=3, length=11, with_dirs=True)
        shared = inp.dirs
        # the four-path call gives every batch row its own codes, (B, L)
        per_row = np.stack([shared, np.concatenate([[0], rng.permutation(shared[1:])])])
        for dirs in (shared, per_row):
            inp.dirs = dirs
            expected = dense_scan_oracle(inp, p)
            for kernel in (selective_scan_sequential, selective_scan_parallel,
                           direction_aware_scan):
                np.testing.assert_allclose(kernel(inp, p).data, expected, atol=1e-10,
                                           err_msg=kernel.__name__)

    def test_pure_feedthrough_when_b_is_zero(self, rng):
        p = make_params(3, 4)
        p.skip_gain.data[:] = rng.normal(size=3)
        inp = make_inputs(rng, length=5)
        inp.b_seq.data[:] = 0.0
        y = selective_scan_sequential(inp, p)
        np.testing.assert_array_equal(
            y.data, p.skip_gain.data[None, :, None] * inp.x.data)

    def test_memoryless_limit_is_per_token(self, rng):
        # huge decay rate: abar underflows to zero, tokens stop interacting
        p = make_params(2, 3)
        p.a_log.data[:] = 20.0
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 3)) * 0.2
        inp = make_inputs(rng, b=1, d=2, n=3, length=7, with_dirs=True)
        y = direction_aware_scan(inp, p)
        beff = inp.b_seq.data + p.direction_table.data[inp.dirs].T[None]
        per_token = np.einsum("bnl,bdl,bnl,bdl->bdl", inp.c_seq.data,
                              inp.delta.data, beff, inp.x.data) \
            + p.skip_gain.data[None, :, None] * inp.x.data
        np.testing.assert_allclose(y.data, per_token, atol=1e-14)

    def test_zero_direction_table_is_bitwise_plain_scan(self, rng):
        p = make_params(3, 4)
        inp = make_inputs(rng, length=8, with_dirs=True)
        plain = selective_scan_sequential(
            ScanInputs(x=inp.x, delta=inp.delta, b_seq=inp.b_seq, c_seq=inp.c_seq), p)
        per_row = np.stack([inp.dirs, np.concatenate([[0], rng.permutation(inp.dirs[1:])])])
        for dirs in (inp.dirs, per_row):
            inp.dirs = dirs
            np.testing.assert_array_equal(direction_aware_scan(inp, p).data, plain.data)

    def test_chunk_states_match_recurrence(self, rng):
        p = make_params(2, 3)
        inp = make_inputs(rng, b=1, d=2, n=3, length=5)
        abar, bbar, h = kernel_states(inp, p)
        assert h.shape == (5, 1, 3, 2)
        x = np.moveaxis(inp.x.data, -1, 0)
        acc = np.zeros((1, 3, 2))
        for i in range(5):
            acc = abar[i] * acc + bbar[i] * x[i][:, None, :]
            np.testing.assert_allclose(h[i], acc, atol=1e-12)
        # they are the states the scan reads out: y = C h + skip_gain * x
        y = np.einsum("bnl,lbnd->bdl", inp.c_seq.data, h) + p.skip_gain.data[:, None] * inp.x.data
        np.testing.assert_allclose(selective_scan_sequential(inp, p).data, y, atol=1e-12)


class TestScanProperties:
    def test_parallel_equals_sequential(self, rng):
        for length in [1, 2, 3, 8, 257]:
            inp64 = make_inputs(rng, b=2, d=3, n=4, length=length)
            p64 = make_params(3, 4)
            y_seq = selective_scan_sequential(inp64, p64)
            y_par = selective_scan_parallel(inp64, p64)
            np.testing.assert_allclose(y_par.data, y_seq.data, atol=1e-10)

    def test_parallel_equals_sequential_float32(self, rng):
        for length in [1, 5, 64, 200]:
            inp = make_inputs(rng, b=2, d=3, n=4, length=length, dtype=np.float32)
            p = make_params(3, 4, dtype=np.float32)
            err = np.abs(selective_scan_parallel(inp, p).data
                         - selective_scan_sequential(inp, p).data).max()
            assert err < 1e-5, (length, err)

    def test_causality_bitwise(self, rng):
        # truncating the inputs must reproduce the prefix of the outputs exactly
        p = make_params(3, 4)
        inp = make_inputs(rng, length=12, with_dirs=True)
        full = direction_aware_scan(inp, p).data
        for cut in [1, 5, 11]:
            prefix = ScanInputs(
                x=Tensor(inp.x.data[..., :cut], dtype=F64),
                delta=Tensor(inp.delta.data[..., :cut], dtype=F64),
                b_seq=Tensor(inp.b_seq.data[..., :cut], dtype=F64),
                c_seq=Tensor(inp.c_seq.data[..., :cut], dtype=F64),
                dirs=inp.dirs[:cut])
            got = direction_aware_scan(prefix, p).data
            np.testing.assert_array_equal(got, full[..., :cut])

    def test_state_stays_inside_contraction_bound(self, rng):
        p = make_params(2, 3)
        inp = make_inputs(rng, b=2, d=2, n=3, length=300)
        abar, bbar, h = kernel_states(inp, p)
        u = bbar * np.moveaxis(inp.x.data, -1, 0)[:, :, None, :]
        bound = np.abs(u).max() / (1.0 - abar.max())
        assert np.abs(h).max() <= bound + 1e-9

    def test_nonfinite_state_names_first_bad_token(self, rng):
        p = make_params(2, 3)
        inp = make_inputs(rng, b=1, d=2, n=3, length=9)
        inp.x.data[0, 1, 4] = np.inf
        with pytest.raises(NonFiniteStateError) as err:
            selective_scan_sequential(inp, p)
        assert err.value.token_index == 4
        assert "token index 4" in str(err.value)

    def test_eval_forward_holds_less_than_one_state_array(self, rng):
        # no tape: the forward keeps no chunk entry states, and its working
        # set is one chunk's buffers. (4B, D, L, N) = (4, 64, 196, 16) in
        # float32: one (L, 4B, N, D) array is 3.2 MB
        inp = make_inputs(rng, b=4, d=64, n=16, length=196, dtype=np.float32, with_dirs=True)
        p = make_params(64, 16, dtype=np.float32)
        tracemalloc.start()
        try:
            direction_aware_scan(inp, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 196 * 4 * 16 * 64 * 4, peak


class TestScanValidation:
    def test_direction_codes_required(self, rng):
        inp = make_inputs(rng, with_dirs=False)
        with pytest.raises(ValueError, match="direction codes are required"):
            direction_aware_scan(inp, make_params(3, 4))

    def test_first_code_must_be_begin(self, rng):
        inp = make_inputs(rng, length=4, with_dirs=True)
        inp.dirs = np.array([1, 1, 1, 1])
        with pytest.raises(ValueError, match="begin"):
            direction_aware_scan(inp, make_params(3, 4))

    def test_codes_must_be_in_range(self, rng):
        inp = make_inputs(rng, length=4, with_dirs=True)
        inp.dirs = np.array([0, 1, 7, 1])
        with pytest.raises(ValueError, match="direction codes"):
            direction_aware_scan(inp, make_params(3, 4))

    def test_codes_must_be_integers(self, rng):
        inp = make_inputs(rng, length=4, with_dirs=True)
        inp.dirs = np.array([0.0, 1.0, 2.0, 1.0])
        with pytest.raises(ShapeMismatch):
            direction_aware_scan(inp, make_params(3, 4))

    def test_delta_must_be_nonnegative(self, rng):
        inp = make_inputs(rng, length=4)
        inp.delta.data[0, 0, 2] = -1e-3
        with pytest.raises(ValueError, match="non-negative"):
            selective_scan_sequential(inp, make_params(3, 4))

    def test_zero_delta_holds_the_state(self, rng):
        # float32 softplus underflows to exactly 0 for inputs below about -104:
        # abar = 1 and bbar = 0, a legitimate state that the scan must carry
        inp = make_inputs(rng, b=2, d=3, n=4, length=6)
        inp.delta.data[:, :, 3] = 0.0
        p = make_params(3, 4)
        h = kernel_states(inp, p)[2]
        np.testing.assert_array_equal(h[3], h[2])
        assert np.all(np.isfinite(h))
        assert np.all(np.isfinite(selective_scan_sequential(inp, p).data))

    def test_nonfinite_delta_is_a_state_error(self, rng):
        inp = make_inputs(rng, length=5, with_dirs=True)
        inp.delta.data[1, 2, 3] = np.nan
        with pytest.raises(NonFiniteStateError, match="delta") as err:
            direction_aware_scan(inp, make_params(3, 4))
        assert err.value.token_index == 3

    def test_operand_shape_mismatches(self, rng):
        p = make_params(3, 4)
        inp = make_inputs(rng, length=4)
        inp.b_seq = Tensor(np.zeros((2, 4, 5)), dtype=F64)
        with pytest.raises(ShapeMismatch):
            selective_scan_sequential(inp, p)
        with pytest.raises(ShapeMismatch):
            selective_scan_sequential(
                ScanInputs(x=Tensor(np.zeros((1, 5, 4))), delta=inp.delta,
                           b_seq=inp.b_seq, c_seq=inp.c_seq), p)


# ---------------------------------------------------------------------------
# full kernels: gradients


class TestScanGradients:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_finite_differences_all_operands(self, rng, parallel):
        from vcmamba.gradcheck import finite_diff_check

        p = make_params(2, 3)
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 3)) * 0.2
        inp = make_inputs(rng, b=1, d=2, n=3, length=5, with_dirs=True)

        kernel = selective_scan_parallel if parallel else direction_aware_scan

        def f():
            y = kernel(inp, p)
            return ad.sum_all(ad.mul(y, y))

        wrt = [inp.x, inp.delta, inp.b_seq, inp.c_seq,
               p.a_log, p.skip_gain, p.direction_table]
        report = finite_diff_check(f, wrt)
        assert report.passed, str(report)

    @staticmethod
    def check_per_row_codes(rng, length):
        from vcmamba.gradcheck import finite_diff_check

        p = make_params(2, 3)
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 3)) * 0.2
        inp = make_inputs(rng, b=3, d=2, n=3, length=length)
        inp.dirs = np.concatenate([np.zeros((3, 1), np.int64),
                                   rng.integers(0, N_DIRECTIONS, size=(3, length - 1))], axis=1)

        def f():
            y = direction_aware_scan(inp, p)
            return ad.sum_all(ad.mul(y, y))

        wrt = [inp.x, inp.delta, inp.b_seq, inp.c_seq,
               p.a_log, p.skip_gain, p.direction_table]
        report = finite_diff_check(f, wrt)
        assert report.passed, str(report)

    def test_finite_differences_per_row_codes(self, rng):
        # the four-path call gives every batch row its own direction codes
        self.check_per_row_codes(rng, 6)

    @pytest.mark.parametrize("length", [CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_finite_differences_across_chunks(self, rng, length):
        # the backward recomputes CHUNK tokens at a time from the state kept at
        # each chunk's entry: one whole chunk, one token past it, two boundaries
        self.check_per_row_codes(rng, length)

    def test_backward_holds_less_than_one_state_array(self, rng):
        # (4B, D, L, N) = (4, 64, 196, 16) in float32: one (L, 4B, N, D) array is 3.2 MB
        inp = make_inputs(rng, b=4, d=64, n=16, length=196, dtype=np.float32, with_dirs=True)
        p = make_params(64, 16, dtype=np.float32)
        with Tape():
            loss = ad.sum_all(direction_aware_scan(inp, p))
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 196 * 4 * 16 * 64 * 4, peak

    def test_taped_forward_keeps_no_copy_of_its_output(self, rng):
        # a stage-4 scan of S@224 at batch 2, four paths folded into the batch:
        # after the forward, the output, the vjp's (L, B, D) x and delta and the
        # six chunk entry states (about two maps); the vjp keeps y's shape, not y
        inputs = make_inputs(rng, b=8, d=576, n=16, length=49, dtype=np.float32, with_dirs=True)
        params = make_params(576, 16, dtype=np.float32)
        map_bytes = 49 * 8 * 576 * 4
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = direction_aware_scan(inputs, params)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and y.shape == (8, 576, 49)
        assert current <= 5.5 * map_bytes, current / map_bytes

    def test_sequential_and_parallel_backward_agree(self, rng):
        p1 = make_params(3, 4)
        p2 = make_params(3, 4)
        p2.direction_table.data[:] = p1.direction_table.data
        inp_data = make_inputs(rng, b=2, d=3, n=4, length=33, with_dirs=True)

        def run(params, kernel):
            inp = ScanInputs(
                x=Tensor(inp_data.x.data.copy(), requires_grad=True, dtype=F64),
                delta=Tensor(inp_data.delta.data.copy(), requires_grad=True, dtype=F64),
                b_seq=Tensor(inp_data.b_seq.data.copy(), requires_grad=True, dtype=F64),
                c_seq=Tensor(inp_data.c_seq.data.copy(), requires_grad=True, dtype=F64),
                dirs=inp_data.dirs)
            with Tape():
                y = kernel(inp, params)
                loss = ad.sum_all(ad.mul(y, y))
            backward(loss)
            return ([inp.x.grad, inp.delta.grad, inp.b_seq.grad, inp.c_seq.grad]
                    + [params.a_log.grad, params.skip_gain.grad,
                       params.direction_table.grad])

        for a, b in zip(run(p1, direction_aware_scan), run(p2, selective_scan_parallel)):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_projection_chain_gradients(self, rng):
        from vcmamba.gradcheck import finite_diff_check

        p = make_params(4, 3)
        x_seq = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True, dtype=F64,
                       name="x_seq")
        dirs = np.concatenate([[0], rng.integers(0, N_DIRECTIONS, size=5)])

        def f():
            inp = project(x_seq, p)
            inp.dirs = dirs
            y = direction_aware_scan(inp, p)
            return ad.sum_all(ad.mul(y, y))

        wrt = [x_seq, p.b_proj, p.c_proj, p.dt_down, p.dt_up, p.dt_bias]
        report = finite_diff_check(f, wrt, max_coords_per_tensor=12,
                                   rng=np.random.default_rng(0))
        assert report.passed, str(report)


# ---------------------------------------------------------------------------
# multi-path mix


class TestDirectionalMix:
    def test_single_cell_mix_is_four_times_one_path(self, rng):
        p = make_params(3, 4)
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 4)) * 0.2
        fmap = rng.normal(size=(2, 3, 1, 1))
        paths = path_table(1, 1)
        total = directional_scan_sum(Tensor(channels_last(fmap), dtype=F64), p)

        tokens = fmap.reshape(2, 3, 1)
        inp = project(Tensor(tokens, dtype=F64), p)
        inp.dirs = paths[0].dirs
        single = direction_aware_scan(inp, p)
        np.testing.assert_allclose(total.data.reshape(2, 3, 1), 4.0 * single.data,
                                   rtol=1e-12, atol=1e-12)

    def test_sum_matches_per_path_composition(self, rng):
        p = make_params(3, 4)
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 4)) * 0.2
        fmap = rng.normal(size=(1, 3, 3, 4))
        paths = path_table(3, 4)
        total = directional_scan_sum(Tensor(channels_last(fmap), dtype=F64), p)

        expected = np.zeros_like(fmap)
        for path in paths:
            tokens = fmap.reshape(1, 3, 12)[:, :, path.order]
            inp = project(Tensor(tokens, dtype=F64), p)
            inp.dirs = path.dirs
            y = direction_aware_scan(inp, p).data
            expected += y[:, :, path.inverse()].reshape(1, 3, 3, 4)
        np.testing.assert_allclose(total.data, channels_last(expected), atol=1e-12)

    def test_gradients_match_per_path_composition(self, rng):
        # one folded call against one projection and one scan per path
        from vcmamba.scanpath import gather_tokens, scatter_tokens

        p = make_params(3, 4)
        p.direction_table.data[:] = rng.normal(size=(N_DIRECTIONS, 4)) * 0.2
        fmap = Tensor(channels_last(rng.normal(size=(2, 3, 3, 4))), requires_grad=True,
                      dtype=F64)
        weights = Tensor(channels_last(rng.normal(size=(2, 3, 3, 4))), dtype=F64)
        paths = path_table(3, 4)

        def per_path():
            total = None
            for path in paths:
                inp = project(gather_tokens(fmap, [path]), p)
                inp.dirs = path.dirs
                spread = scatter_tokens(direction_aware_scan(inp, p), [path])
                total = spread if total is None else ad.add(total, spread)
            return total

        wrt = [fmap] + [t for _, t in p.named_parameters()]
        grads = []
        for mix in (lambda: directional_scan_sum(fmap, p), per_path):
            for t in wrt:
                t.grad = None
            with Tape():
                loss = ad.sum_all(ad.mul(mix(), weights))
            backward(loss)
            grads.append([t.grad.copy() for t in wrt])
        assert len(wrt) == 9        # input, a_log, skip, b/c_proj, dt_*, direction table
        for name, got, want in zip(["input"] + [n for n, _ in p.named_parameters()], *grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    def test_nonfinite_mix_names_path_image_and_cell(self, rng):
        p = make_params(3, 4)
        fmap = rng.normal(size=(2, 2, 3, 3))        # (B, H, W, D)
        fmap[1, 1, 2, 0] = np.nan                   # image 1, cell (1, 2)
        with pytest.raises(NonFiniteStateError, match="delta") as err:
            directional_scan_sum(Tensor(fmap, dtype=F64), p)
        # col_snake_br starts at the bottom-right cell: token 0 of its image-1 row
        # (path 3 of 4, batch row 3 * 2 + 1) is the first bad one
        got = err.value
        assert (got.path, got.image, got.cell) == ("col_snake_br", 1, (1, 2))
        assert (got.token_index, got.row) == (0, 7)
        assert str(got) == ("scan produced a non-finite delta at path col_snake_br, "
                            "image 1, cell (1, 2) (token index 0, batch row 7)")
        # the mix fills in the kernel's own error; it chains no second one
        assert got.__cause__ is None and got.__context__ is None

    def test_mix_normalizes_channels_at_each_position(self, rng):
        d = 8
        p = make_params(d, 4)
        fmap = Tensor(channels_last(rng.normal(size=(2, d, 3, 3))), dtype=F64)
        out = channel_norm(directional_scan_sum(fmap, p), LayerNorm(d).to(F64))
        assert out.shape == (2, d, 3, 3)
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-3)

    def test_mix_gradients(self, rng):
        from vcmamba.gradcheck import finite_diff_check

        d = 4
        p = make_params(d, 3)
        norm = LayerNorm(d).to(F64)
        fmap = Tensor(channels_last(rng.normal(size=(1, d, 2, 2))), requires_grad=True,
                      dtype=F64, name="fmap")

        def f():
            y = channel_norm(directional_scan_sum(fmap, p), norm)
            return ad.sum_all(ad.mul(y, y))

        wrt = [fmap, norm.gamma, norm.beta, p.a_log, p.direction_table, p.b_proj]
        report = finite_diff_check(f, wrt, max_coords_per_tensor=10,
                                   rng=np.random.default_rng(0))
        assert report.passed, str(report)
