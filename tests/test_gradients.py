"""Backward passes against central finite differences (64-bit, step 1e-4)."""

import weakref

import numpy as np
import pytest

from dacnet import ConvSpec, GradientTape, NumericError, Tensor, finite_difference_check
from dacnet import ops


def check(loss_fn, tensors, tol=1e-5, step=1e-4):
    err = finite_difference_check(loss_fn, tensors, step=step)
    assert err <= tol, f"max relative error {err:.3e} > {tol}"


def two_pass_batchnorm(x, gamma, beta, g):
    """Training-mode batch norm's output and its gradients (dx, dgamma, dbeta) for
    output gradient ``g``, from a centered copy of ``x``."""
    c = x.shape[1]
    shape = (1, c, 1, 1)
    n = x.size // c
    centered = x - x.mean(axis=(0, 2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=(0, 2, 3), keepdims=True) + 1e-5)
    xhat = centered * inv_std
    out = xhat * gamma.reshape(shape) + beta.reshape(shape)
    dbeta = g.sum(axis=(0, 2, 3))
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    dx = (gamma.reshape(shape) * inv_std / n) * (
        n * g - dbeta.reshape(shape) - xhat * dgamma.reshape(shape))
    return out, dx, dgamma, dbeta


class TestConvGradients:
    @pytest.mark.parametrize("mode,kwargs", [
        ("standard", dict(kernel_size=3, padding=1, dilation=1, stride=1)),
        ("standard", dict(kernel_size=3, padding=2, dilation=2, stride=2)),
        ("depthwise", dict(kernel_size=3, padding=1, dilation=1, stride=1)),
        ("depthwise", dict(kernel_size=3, padding=2, dilation=2, stride=1)),
        ("pointwise", dict(kernel_size=1, padding=0, dilation=1, stride=1)),
    ])
    def test_conv_matches_finite_differences(self, mode, kwargs):
        rng = np.random.default_rng(21)
        m = 3
        n = m if mode == "depthwise" else 4
        spec = ConvSpec(in_channels=m, out_channels=n, mode=mode, **kwargs)
        x = Tensor(rng.standard_normal((2, m, 6, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal(spec.kernel_shape()), requires_grad=True)
        b = Tensor(rng.standard_normal(n), requires_grad=True)
        check(lambda: ops.mean_scalar(ops.conv2d(x, k, b, spec)), [x, k, b])

    @pytest.mark.parametrize("kwargs", [
        dict(kernel_size=3, padding=2, dilation=2, stride=1),
        dict(kernel_size=3, padding=2, dilation=2, stride=2),
        dict(kernel_size=3, padding=(1, 0), dilation=1, stride=1),
        dict(kernel_size=3, padding=(3, 1), dilation=1, stride=1),
        dict(kernel_size=3, padding=4, dilation=4, stride=2),  # one live phase, d/s = 2
    ])
    def test_depthwise_blocks_match_finite_differences(self, monkeypatch, kwargs):
        """Depthwise layers whose nine rows run as blocks of five and four."""
        rng = np.random.default_rng(22)
        spec = ConvSpec(in_channels=3, out_channels=3, mode="depthwise", **kwargs)
        row_bytes = 8 * spec.kernel_size ** 2 * np.prod(spec.output_hw(6, 6))
        monkeypatch.setattr(ops, "_BLOCK_BYTES", 4 * row_bytes)
        assert ops._row_blocks(9, row_bytes)[1] == [(0, 5), (5, 9)]
        x = Tensor(rng.standard_normal((3, 3, 6, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal(spec.kernel_shape()), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        check(lambda: ops.mean_scalar(ops.conv2d(x, k, b, spec)), [x, k, b])

    def test_depthwise_dilated_example_tolerance(self):
        """Random 1x3x6x6 depthwise d=2 layer: fd error <= 1e-6."""
        rng = np.random.default_rng(4)
        spec = ConvSpec(3, 3, 3, padding=2, dilation=2, mode="depthwise")
        x = Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal(spec.kernel_shape()), requires_grad=True)
        check(lambda: ops.mean_scalar(ops.conv2d(x, k, None, spec)), [x, k], tol=1e-6)

    def test_zero_output_grad_gives_zero_gradients(self):
        rng = np.random.default_rng(2)
        spec = ConvSpec(3, 2, 4, padding=1)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal(spec.kernel_shape())
        gout = np.zeros((1, 4, 5, 5))
        gx, gk, gb = ops.conv2d_backward(gout, x, k, spec, need_bias_grad=True)
        assert not gx.any() and not gk.any() and not gb.any()

    def test_scalar_product_rule(self):
        """1x1 input x, 1x1 kernel w, loss = output: dx = w, dw = x."""
        x = np.array([[[[3.0]]]])
        w = np.array([[[[-2.0]]]])
        spec = ConvSpec(1, 1, 1, mode="pointwise")
        gx, gk, _ = ops.conv2d_backward(np.ones((1, 1, 1, 1)), x, w, spec)
        assert gx[0, 0, 0, 0] == -2.0
        assert gk[0, 0, 0, 0] == 3.0

    def test_output_grad_shape_rejected(self):
        spec = ConvSpec(3, 2, 4, padding=1)
        x = np.zeros((1, 2, 5, 5))
        k = np.zeros(spec.kernel_shape())
        with pytest.raises(Exception, match="output_grad"):
            ops.conv2d_backward(np.zeros((1, 4, 4, 4)), x, k, spec)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        """gamma=1, beta=0: per-channel mean ~ 0 and biased variance ~ 1."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 3, 7, 9)) * 30.0 + 5.0
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = np.zeros(3), np.ones(3)
        out, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, training=True)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() <= 1e-10
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() <= 1e-6

    def test_constant_channel_outputs_beta(self):
        x = np.full((2, 2, 4, 4), 7.5)
        gamma = np.array([2.0, 3.0])
        beta = np.array([-1.0, 0.5])
        rm, rv = np.zeros(2), np.ones(2)
        out, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, training=True)
        assert np.array_equal(out[:, 0], np.full((2, 4, 4), -1.0))
        assert np.array_equal(out[:, 1], np.full((2, 4, 4), 0.5))

    def test_large_mean_matches_two_pass_reference(self):
        """mean/std ~ 1e3: output, dx and dgamma within 1e-9 of a two-pass float64 reference."""
        rng = np.random.default_rng(15)
        x = 1e3 + rng.standard_normal((4, 3, 6, 7)) * rng.uniform(0.5, 2.0, (1, 3, 1, 1))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.standard_normal(3)
        g = rng.standard_normal(x.shape)
        out, cache = ops.batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        dx, dgamma, dbeta = ops.batchnorm_backward(g, cache)
        for got, want in zip((out, dx, dgamma, dbeta), two_pass_batchnorm(x, gamma, beta, g)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_constant_channel_negative_rounding_stays_finite(self):
        """E[x^2] - mean^2 rounds below -eps on a constant channel; the clamp keeps it finite."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 2, 6, 7))
        x[:, 1] = 987654.321
        mean = x.mean(axis=(0, 2, 3))
        one_pass = np.einsum("bchw,bchw->c", x, x) / (4 * 6 * 7) - mean * mean
        assert one_pass[1] < -1e-5
        gamma, beta = np.array([1.0, 2.0]), np.array([0.0, 0.5])
        with np.errstate(invalid="raise"):
            out, cache = ops.batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2),
                                               training=True, relu=True)
            grads = ops.batchnorm_backward(rng.standard_normal(x.shape), cache)
        assert np.isfinite(out).all()
        assert all(np.isfinite(grad).all() for grad in grads)

    def test_eval_mode_matches_hand_recomputation(self):
        from oracles import batchnorm_eval_reference
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 5, 5))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        rm = rng.standard_normal(4)
        rv = rng.uniform(0.5, 2.0, 4)
        out, _ = ops.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(), training=False)
        want = batchnorm_eval_reference(x, gamma, beta, rm, rv, eps=1e-5)
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_running_stats_update(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 2, 3, 3)) * 2.0 + 1.0
        rm, rv = np.zeros(2), np.ones(2)
        ops.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, training=True)
        want_m = 0.1 * x.mean(axis=(0, 2, 3))
        want_v = 0.9 + 0.1 * x.var(axis=(0, 2, 3))
        assert np.allclose(rm, want_m, atol=1e-12)
        assert np.allclose(rv, want_v, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        rm, rv = np.zeros(2), np.ones(2)

        def loss():
            # A fresh copy of the running stats per call keeps the function pure.
            out = ops.batchnorm(x, gamma, beta, rm.copy(), rv.copy(), training=training)
            return ops.mean_scalar(ops.relu(out))

        check(loss, [x, gamma, beta])

    @pytest.mark.parametrize("training", [True, False])
    def test_fused_relu_gradients(self, training):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        # a fixed depthwise layer after BN weights every position differently
        spec = ConvSpec(3, 2, 2, padding=1, mode="depthwise")
        weights = Tensor(rng.standard_normal(spec.kernel_shape()))
        rm, rv = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)

        def loss():
            out = ops.batchnorm(x, gamma, beta, rm.copy(), rv.copy(), training=training,
                                relu=True)
            return ops.mean_scalar(ops.conv2d(out, weights, None, spec))

        check(loss, [x, gamma, beta])

    @pytest.mark.parametrize("training", [True, False])
    def test_fused_relu_equals_separate_relu(self, training):
        """One taped op in place of two, with the same output and gradients."""
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)
        head = Tensor(rng.standard_normal((3, 2)))
        rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        results = []
        for fused in (True, False):
            for t in (x, gamma, beta):
                t.zero_grad()
            with GradientTape() as tape:
                if fused:
                    out = ops.batchnorm(x, gamma, beta, rm.copy(), rv.copy(), training,
                                        relu=True)
                else:
                    out = ops.relu(ops.batchnorm(x, gamma, beta, rm.copy(), rv.copy(),
                                                 training))
                loss = ops.mean_scalar(ops.linear(ops.global_avg_pool(out), head, None))
            records = len(tape)
            tape.backward(loss)
            results.append((records, out.data, x.grad, gamma.grad, beta.grad))
        (n_fused, *fused_arrays), (n_split, *split_arrays) = results
        assert n_fused == n_split - 1
        assert np.array_equal(fused_arrays[0], split_arrays[0])
        for got, want in zip(fused_arrays[1:], split_arrays[1:]):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_empty_extent_rejected(self):
        with pytest.raises(Exception, match="batchnorm"):
            ops.batchnorm_forward(
                np.ones((2, 3, 4)), np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), True
            )


class TestPointwiseBatchNorm:
    """``ops.pointwise_batchnorm`` against the raw kernels and independent references."""

    @staticmethod
    def raw_chain(x, k, gamma, beta, relu, g):
        """conv2d_forward -> batchnorm_forward -> batchnorm_backward -> conv2d_backward."""
        spec = ConvSpec(1, x.shape[1], k.shape[0], mode="pointwise")
        rm, rv = np.zeros(len(gamma)), np.ones(len(gamma))
        y = ops.conv2d_forward(x, k, None, spec)
        out, cache = ops.batchnorm_forward(y, gamma, beta, rm, rv, training=True, relu=relu)
        dy, dgamma, dbeta = ops.batchnorm_backward(g, cache)
        dx, dk, _ = ops.conv2d_backward(dy, x, k, spec)
        return out, rm, rv, dx, dk, dgamma, dbeta

    @staticmethod
    def taped(x, k, gamma, beta, relu, g):
        """The same quantities from the taped op, with ``g`` as its output gradient."""
        tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, k, gamma, beta)]
        rm, rv = np.zeros(len(gamma)), np.ones(len(gamma))
        with GradientTape() as tape:
            out = ops.pointwise_batchnorm(*tensors, rm, rv, relu=relu)
            loss = Tensor(np.sum(out.data * g))
            tape.record(loss, lambda gl: out.accumulate_grad(g * float(gl)))
        assert len(tape) == 2  # one record for the whole unit
        tape.backward(loss)
        return (out.data, rm, rv, *(t.grad for t in tensors))

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("b,ci,co,h,w", [
        (4, 3, 7, 5, 6),
        (2, 8, 16, 3, 4),
        (1, 5, 9, 2, 3),
        (3, 4, 12, 1, 1),  # B*H*W = 3, fewer positions than input channels
        (2, 6, 4, 3, 3),  # narrowing: the op is exact whatever the rule selects
    ])
    def test_matches_raw_kernels(self, b, ci, co, h, w, relu):
        """Output, running statistics and all four gradients within 1e-12 relative."""
        rng = np.random.default_rng(b * 1000 + ci * 100 + co)
        x = rng.standard_normal((b, ci, h, w)) * rng.uniform(0.5, 2.0, (1, ci, 1, 1))
        k = rng.standard_normal((co, ci, 1, 1))
        gamma, beta = rng.uniform(0.5, 1.5, co), rng.standard_normal(co)
        g = rng.standard_normal((b, co, h, w))
        want = self.raw_chain(x, k, gamma, beta, relu, g)
        got = self.taped(x, k, gamma, beta, relu, g)
        names = ("out", "running_mean", "running_var", "dx", "dk", "dgamma", "dbeta")
        for name, a, e in zip(names, got, want):
            assert a.shape == e.shape, name
            assert np.max(np.abs(a - e)) <= 1e-12 * np.max(np.abs(e)), name

    @pytest.mark.parametrize("zero_sum_rows", [False, True])
    def test_large_mean_matches_two_pass_reference(self, zero_sum_rows):
        """mean/std ~ 1e3 on the unit's input x, within 1e-9 of the two-pass reference
        through ``y = K x``. With zero-sum kernel rows y's mean is small while x's is large."""
        rng = np.random.default_rng(17)
        x = 1e3 + rng.standard_normal((4, 3, 6, 7)) * rng.uniform(0.5, 2.0, (1, 3, 1, 1))
        k = rng.standard_normal((5, 3, 1, 1))
        if zero_sum_rows:
            k -= k.mean(axis=1, keepdims=True)
        gamma, beta = rng.uniform(0.5, 1.5, 5), rng.standard_normal(5)
        g = rng.standard_normal((4, 5, 6, 7))
        y = np.einsum("oi,bihw->bohw", k[:, :, 0, 0], x)
        assert (np.abs(y.mean(axis=(0, 2, 3))) < 10.0).all() == zero_sum_rows
        want_out, dy, want_dgamma, want_dbeta = two_pass_batchnorm(y, gamma, beta, g)
        want_dx = np.einsum("oi,bohw->bihw", k[:, :, 0, 0], dy)
        want_dk = np.einsum("bohw,bihw->oi", dy, x)[:, :, None, None]
        out, _, _, dx, dk, dgamma, dbeta = self.taped(x, k, gamma, beta, False, g)
        for got, want in ((out, want_out), (dx, want_dx), (dk, want_dk),
                          (dgamma, want_dgamma), (dbeta, want_dbeta)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_constant_channels_stay_finite(self):
        """Constant input channels give y channels of zero variance, whose one-pass
        estimate E[y^2] - mean^2 rounds far below -eps; output and gradients stay finite."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 3, 6, 7))
        x[:, 1] = 987654.321
        x[:, 2] = -123456.789
        k = np.zeros((3, 3, 1, 1))
        k[0, 1] = k[1, 2] = 1.0
        k[2] = rng.standard_normal((3, 1, 1))
        y = x[:, 1]
        one_pass = (y * y).mean() - y.mean() ** 2
        assert one_pass < -1e-5
        gamma, beta = np.array([1.0, 2.0, 0.5]), np.array([0.0, 0.5, -1.0])
        with np.errstate(invalid="raise", divide="raise"):
            out, rm, rv, *grads = self.taped(x, k, gamma, beta, True, rng.standard_normal(x.shape))
        assert np.isfinite(out).all() and all(np.isfinite(grad).all() for grad in grads)
        assert rv[0] == rv[1] == 0.9  # variance 0 folded into the running value 1
        assert np.allclose(out[:, 1], 0.5, atol=1e-6)

    @pytest.mark.parametrize("relu", [False, True])
    def test_gradients(self, relu):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((5, 3, 1, 1)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        beta = Tensor(rng.standard_normal(5), requires_grad=True)
        # a fixed depthwise layer after the unit weights every position differently
        spec = ConvSpec(3, 5, 5, padding=1, mode="depthwise")
        weights = Tensor(rng.standard_normal(spec.kernel_shape()))

        def loss():
            out = ops.pointwise_batchnorm(x, k, gamma, beta, np.zeros(5), np.ones(5), relu=relu)
            return ops.mean_scalar(ops.conv2d(out, weights, None, spec))

        check(loss, [x, k, gamma, beta])

    @pytest.mark.parametrize("shape,spec,selected", [
        ((2, 4, 4, 4), ConvSpec(1, 4, 8, mode="pointwise"), True),  # B*H*W = 32 = 8*C_in
        ((1, 4, 31, 1), ConvSpec(1, 4, 8, mode="pointwise"), False),  # 31 positions
        ((2, 4, 4, 4), ConvSpec(1, 4, 4, mode="pointwise"), False),  # not widening
        ((2, 8, 4, 4), ConvSpec(1, 8, 4, mode="pointwise"), False),  # narrowing
        ((2, 4, 8, 8), ConvSpec(1, 4, 8, stride=2, mode="pointwise"), False),
        ((2, 4, 8, 8), ConvSpec(1, 4, 8, padding=1, mode="pointwise"), False),
        ((2, 4, 8, 8), ConvSpec(3, 4, 8, padding=1), False),  # standard 3x3
        ((2, 4, 8, 8), ConvSpec(3, 4, 4, padding=1, mode="depthwise"), False),
    ])
    def test_rule_is_a_shape_rule(self, shape, spec, selected):
        """Pointwise at stride 1 without padding, widening, B*H*W >= 8*C_in."""
        assert ops.trains_from_gram(spec, shape) is selected


class TestAuxiliaryOps:
    def test_relu_clamps_and_grads(self):
        x = Tensor(np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]]), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.mean_scalar(ops.relu(x))
        assert np.array_equal(loss.data, np.array(0.5))
        tape.backward(loss)
        assert np.array_equal(x.grad, np.array([[0, 0, 0, 0.2, 0.2]]))

    def test_global_avg_pool_constant_map(self):
        x = Tensor(np.full((2, 3, 4, 5), 2.5))
        out = ops.global_avg_pool(x)
        assert out.shape == (2, 3)
        assert np.array_equal(out.data, np.full((2, 3), 2.5))

    def test_pool_and_linear_gradients(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        check(lambda: ops.mean_scalar(ops.linear(ops.global_avg_pool(x), w, b)), [x, w, b])

    def test_uniform_logits_loss_is_log_c(self):
        logits = Tensor(np.zeros((4, 9)))
        labels = np.array([0, 3, 5, 8])
        loss, probs = ops.softmax_cross_entropy(logits, labels)
        assert abs(loss.item() - np.log(9.0)) <= 1e-12
        assert np.max(np.abs(probs - 1.0 / 9.0)) <= 1e-15

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(16)
        logits = Tensor(rng.standard_normal((5, 9)) * 10.0)
        _, probs = ops.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_softmax_cross_entropy_gradient(self):
        rng = np.random.default_rng(17)
        logits = Tensor(rng.standard_normal((3, 9)), requires_grad=True)
        labels = np.array([1, 4, 8])
        check(lambda: ops.softmax_cross_entropy(logits, labels)[0], [logits], tol=1e-6)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(Exception, match="label"):
            ops.softmax_cross_entropy(Tensor(np.zeros((2, 9))), np.array([0, 9]))

    def test_add_and_concat_gradients(self):
        rng = np.random.default_rng(18)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        check(lambda: ops.mean_scalar(ops.concat([ops.add(a, b), c])), [a, b, c])


class TestTapeSemantics:
    def test_grads_only_for_participants(self):
        rng = np.random.default_rng(19)
        used = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        unused = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.mean_scalar(ops.linear(used, w, None))
        tape.backward(loss)
        assert used.grad is not None and w.grad is not None
        assert unused.grad is None

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ops.mean_scalar(x)
        assert out._traced is False and x.grad is None

    def test_add_of_one_tensor_copies_the_output_gradient(self):
        a = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
        with GradientTape() as tape:
            total = ops.add(a, a)
            loss = ops.mean_scalar(total)
        tape.backward(loss)
        assert np.array_equal(a.grad, 2 * total.grad)
        assert not np.shares_memory(a.grad, total.grad)

    def test_backward_consumes_the_tape(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with GradientTape() as tape:
            hidden = ops.linear(x, w, None)
            freed = weakref.ref(hidden.data)
            del hidden
            loss = ops.mean_scalar(ops.relu(ops.linear(x, w, None)))
        assert len(tape) == 4
        tape.backward(loss)
        assert len(tape) == 0
        assert freed() is None  # no record and no caller holds the unused output
        assert x.grad is not None and w.grad is not None

    def test_second_backward_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.mean_scalar(x)
        tape.backward(loss)
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
        assert np.array_equal(x.grad, grad) and np.array_equal(loss.grad, np.ones(()))

    def test_caller_held_intermediate_keeps_its_gradient(self):
        x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
        w = Tensor(np.eye(2), requires_grad=True)
        with GradientTape() as tape:
            hidden = ops.linear(x, w, None)
            loss = ops.mean_scalar(ops.relu(hidden))
        tape.backward(loss)
        assert np.array_equal(hidden.grad, np.array([[0.25, 0.0], [0.25, 0.25]]))
        assert np.array_equal(x.grad, hidden.grad)

    def test_op_without_gradient_inputs_records_nothing(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 2)))
        with GradientTape() as tape:
            out = ops.relu(ops.linear(x, w, None))
        assert len(tape) == 0 and out._traced is False

    def test_linear_routes_only_needed_gradients(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 3)))
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.mean_scalar(ops.linear(x, w, None))
        tape.backward(loss)
        assert x.grad is None
        assert np.array_equal(w.grad, x.data.T @ np.full((2, 2), 0.25))

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        w = Tensor(np.array([[1.0]]), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.mean_scalar(ops.add(ops.linear(x, w, None), ops.linear(x, w, None)))
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(2.0)
        assert w.grad[0, 0] == pytest.approx(4.0)


class TestHarness:
    def test_identity_op_error_tiny(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal(40), requires_grad=True)

        def loss():
            out = Tensor(x.data.sum())
            tape = GradientTape.active()
            if tape is not None:
                tape.record(out, lambda g: x.accumulate_grad(np.full_like(x.data, float(g))))
            return out

        assert finite_difference_check(loss, [x]) <= 1e-10

    def test_corrupted_backward_detected(self):
        """kernel_grad scaled x2 must show up as relative error ~ 0.5."""
        rng = np.random.default_rng(22)
        spec = ConvSpec(3, 2, 2, padding=1, mode="depthwise")
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        k = Tensor(rng.standard_normal(spec.kernel_shape()), requires_grad=True)

        def loss():
            out = Tensor(ops.conv2d_forward(x.data, k.data, None, spec).mean())
            tape = GradientTape.active()
            if tape is not None:
                def bad_backward(g):
                    gout = np.full((1, 2, 5, 5), float(g) / 50.0)
                    _, gk, _ = ops.conv2d_backward(gout, x.data, k.data, spec, False)
                    k.accumulate_grad(2.0 * gk)
                tape.record(out, bad_backward)
            return out

        assert finite_difference_check(loss, [k]) >= 0.49

    def test_nonfinite_rejected_with_location(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def loss():
            out = Tensor(np.log(x.data[0] - 5.0) if x.data[0] > 5 else x.data.sum())
            tape = GradientTape.active()
            if tape is not None:
                tape.record(out, lambda g: x.accumulate_grad(np.array([np.nan, 1.0])))
            return out

        with pytest.raises(NumericError, match="input #0"):
            finite_difference_check(loss, [x])
