"""Convolution forward path against the independent nested-loop oracle."""

import numpy as np
import pytest

from dacnet import ConvSpec, ShapeError, conv2d_backward, conv2d_forward
from oracles import conv2d_reference, oracle_gradients


def random_case(rng, mode, dilation, stride):
    m = int(rng.integers(1, 4))
    n = m if mode == "depthwise" else int(rng.integers(1, 5))
    k = 1 if mode == "pointwise" else int(rng.choice([1, 3, 5]))
    d = 1 if mode == "pointwise" or k == 1 else dilation
    pad = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
    ext = d * (k - 1) + 1
    h_lo = max(1, ext - 2 * pad[0])
    w_lo = max(1, ext - 2 * pad[1])
    h = int(rng.integers(h_lo, h_lo + 8))
    w = int(rng.integers(w_lo, w_lo + 8))
    b = int(rng.integers(1, 3))
    spec = ConvSpec(
        kernel_size=k, in_channels=m, out_channels=n, stride=stride,
        padding=pad, dilation=d, mode=mode, has_bias=bool(rng.integers(0, 2)),
    )
    x = rng.standard_normal((b, m, h, w))
    kernel = rng.standard_normal(spec.kernel_shape())
    bias = rng.standard_normal(n) if spec.has_bias else None
    return x, kernel, bias, spec


class TestAgainstOracle:
    def test_randomized_cases_match_oracle(self):
        """>= 200 randomized cases across modes x dilations x strides, <= 1e-12."""
        rng = np.random.default_rng(7)
        cases = 0
        for mode in ("standard", "depthwise", "pointwise"):
            for dilation in (1, 2, 3):
                for stride in (1, 2):
                    for _ in range(12):
                        x, kernel, bias, spec = random_case(rng, mode, dilation, stride)
                        got = conv2d_forward(x, kernel, bias, spec)
                        want = conv2d_reference(
                            x, kernel, bias, mode=spec.mode, stride=spec.stride,
                            padding=spec.pad, dilation=spec.dilation,
                        )
                        assert got.shape == want.shape
                        assert np.max(np.abs(got - want)) <= 1e-12
                        cases += 1
        assert cases >= 200

    def test_all_ones_depthwise_single_window(self):
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        spec = ConvSpec(3, 1, 1, mode="depthwise")
        out = conv2d_forward(x, k, None, spec)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_dilation_spans_input_exactly(self):
        x = np.ones((1, 1, 5, 5))
        k = np.ones((1, 1, 3, 3))
        spec = ConvSpec(3, 1, 1, dilation=2)
        out = conv2d_forward(x, k, None, spec)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_random_dilated_standard_case(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(3, 2, 3, stride=1, padding=1, dilation=2)
        got = conv2d_forward(x, k, None, spec)
        want = conv2d_reference(x, k, None, mode="standard", stride=1, padding=(1, 1), dilation=2)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestBackwardAgainstOracle:
    @pytest.mark.parametrize("need_input_grad", [True, False])
    @pytest.mark.parametrize("has_bias", [True, False])
    def test_direct_pointwise_backward(self, need_input_grad, has_bias):
        """Stride 1, no padding: the direct two-product path, <= 1e-12."""
        rng = np.random.default_rng(23)
        spec = ConvSpec(1, 3, 4, mode="pointwise", has_bias=has_bias)
        x = rng.standard_normal((2, 3, 4, 5))
        kernel = rng.standard_normal(spec.kernel_shape())
        gout = rng.standard_normal((2, 4, 4, 5))
        gx, gk, gb = conv2d_backward(gout, x, kernel, spec,
                                     need_input_grad=need_input_grad,
                                     need_bias_grad=has_bias)
        want_x, want_k, want_b = oracle_gradients(gout, x, kernel, spec)
        assert np.max(np.abs(gk - want_k)) <= 1e-12
        if need_input_grad:
            assert gx.shape == x.shape and gx.flags.c_contiguous
            assert np.max(np.abs(gx - want_x)) <= 1e-12
        else:
            assert gx is None
        if has_bias:
            assert np.max(np.abs(gb - want_b)) <= 1e-12
        else:
            assert gb is None

    @pytest.mark.parametrize("kwargs", [
        dict(kernel_size=1, mode="pointwise", stride=2),
        dict(kernel_size=1, mode="pointwise", padding=1),
        dict(kernel_size=3, mode="standard", stride=2, padding=1),
        dict(kernel_size=3, mode="standard", padding=2, dilation=2),
    ])
    def test_tap_loop_backward(self, kwargs):
        """Padded or strided layers take the tap-column path, <= 1e-12."""
        rng = np.random.default_rng(29)
        spec = ConvSpec(in_channels=3, out_channels=4, has_bias=True, **kwargs)
        x = rng.standard_normal((2, 3, 5, 6))
        kernel = rng.standard_normal(spec.kernel_shape())
        gout = rng.standard_normal((2, 4) + spec.output_hw(5, 6))
        gx, gk, gb = conv2d_backward(gout, x, kernel, spec, need_bias_grad=True)
        want_x, want_k, want_b = oracle_gradients(gout, x, kernel, spec)
        assert np.max(np.abs(gx - want_x)) <= 1e-12
        assert np.max(np.abs(gk - want_k)) <= 1e-12
        assert np.max(np.abs(gb - want_b)) <= 1e-12


    @pytest.mark.parametrize("kwargs", [
        dict(kernel_size=3, mode="standard", stride=2, padding=1),  # the stem's shape
        dict(kernel_size=3, mode="standard", padding=2, dilation=2),
        dict(kernel_size=1, mode="pointwise", stride=2, padding=1),  # columns, not direct
        # nine input phases with 2x2, 2x1, 1x2 and 1x1 sub-kernels
        dict(kernel_size=5, mode="standard", stride=3, padding=3, dilation=2),
    ])
    def test_column_path_across_sample_blocks(self, monkeypatch, kwargs):
        """Five samples run as blocks of three and two whole samples, <= 1e-12."""
        from dacnet import ops
        rng = np.random.default_rng(43)
        spec = ConvSpec(in_channels=3, out_channels=4, has_bias=True, **kwargs)
        ho, wo = spec.output_hw(5, 6)
        sample_bytes = 8 * 3 * spec.kernel_size ** 2 * ho * wo
        monkeypatch.setattr(ops, "_BLOCK_BYTES", 2 * sample_bytes)
        assert ops._row_blocks(5, sample_bytes)[1] == [(0, 3), (3, 5)]

        x = rng.standard_normal((5, 3, 5, 6))
        kernel = rng.standard_normal(spec.kernel_shape())
        bias = rng.standard_normal(4)
        want = conv2d_reference(x, kernel, bias, mode=spec.mode, stride=spec.stride,
                                padding=spec.pad, dilation=spec.dilation)
        got = conv2d_forward(x, kernel, bias, spec)
        assert np.max(np.abs(got - want)) <= 1e-12

        gout = rng.standard_normal(got.shape)
        want_x, want_k, want_b = oracle_gradients(gout, x, kernel, spec)
        gx, gk, gb = conv2d_backward(gout, x, kernel, spec, need_bias_grad=True)
        assert gx.shape == x.shape and gx.flags.c_contiguous
        assert np.max(np.abs(gx - want_x)) <= 1e-12
        assert np.max(np.abs(gk - want_k)) <= 1e-12
        assert np.max(np.abs(gb - want_b)) <= 1e-12
        gx, gk_only, _ = conv2d_backward(gout, x, kernel, spec, need_input_grad=False)
        assert gx is None
        assert np.max(np.abs(gk_only - want_k)) <= 1e-12


class TestDegenerationsAndInvariants:
    def test_dilation_one_equals_standard_path(self):
        """d=1 must reproduce ordinary convolution bit-for-bit (<= 1e-12)."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, kernel, bias, spec = random_case(rng, "standard", 1, 1)
            d1 = ConvSpec(
                spec.kernel_size, spec.in_channels, spec.out_channels,
                stride=spec.stride, padding=spec.padding, dilation=1,
                mode=spec.mode, has_bias=spec.has_bias,
            )
            assert np.max(np.abs(
                conv2d_forward(x, kernel, bias, d1) - conv2d_forward(x, kernel, bias, spec)
            )) <= 1e-12

    def test_zero_insertion_equivalence(self):
        """A d=2 3x3 kernel equals a d=1 5x5 kernel with zeros interleaved."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal((2, 3, 9, 9))
            k3 = rng.standard_normal((4, 3, 3, 3))
            k5 = np.zeros((4, 3, 5, 5))
            k5[:, :, ::2, ::2] = k3
            dilated = conv2d_forward(x, k3, None, ConvSpec(3, 3, 4, padding=2, dilation=2))
            inserted = conv2d_forward(x, k5, None, ConvSpec(5, 3, 4, padding=2, dilation=1))
            assert np.max(np.abs(dilated - inserted)) <= 1e-12

    def test_output_shape_law_exhaustive(self):
        """H' = floor((H + 2p - d(K-1) - 1)/s) + 1 across the full grid."""
        x_cache = {}
        for k in (1, 3, 5):
            for d in (1, 2, 3):
                for s in (1, 2):
                    for p in (0, 1, 2):
                        for h in range(5, 17):
                            ext = d * (k - 1) + 1
                            spec = ConvSpec(k, 1, 1, stride=s, padding=p, dilation=d)
                            if h + 2 * p < ext:
                                with pytest.raises(ShapeError):
                                    spec.output_hw(h, h)
                                continue
                            x = x_cache.setdefault(h, np.ones((1, 1, h, h)))
                            kernel = np.ones((1, 1, k, k))
                            out = conv2d_forward(x, kernel, None, spec)
                            expect = (h + 2 * p - d * (k - 1) - 1) // s + 1
                            assert out.shape == (1, 1, expect, expect)

    def test_depthwise_channel_isolation(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 6, 6))
        k = rng.standard_normal((4, 1, 3, 3))
        spec = ConvSpec(3, 4, 4, padding=1, mode="depthwise")
        base = conv2d_forward(x, k, None, spec)
        for ch in range(4):
            x2 = x.copy()
            x2[:, ch] += rng.standard_normal((6, 6))
            out = conv2d_forward(x2, k, None, spec)
            changed = [c for c in range(4) if not np.array_equal(out[:, c], base[:, c])]
            assert changed == [ch]

    def test_linearity_of_bias_free_layers(self):
        rng = np.random.default_rng(13)
        for mode in ("standard", "depthwise", "pointwise"):
            x, kernel, _, spec0 = random_case(rng, mode, 2, 1)
            spec = ConvSpec(
                spec0.kernel_size, spec0.in_channels, spec0.out_channels,
                stride=spec0.stride, padding=spec0.padding, dilation=spec0.dilation,
                mode=spec0.mode, has_bias=False,
            )
            y = rng.standard_normal(x.shape)
            a, b = 1.7, -0.3
            combined = conv2d_forward(a * x + b * y, kernel, None, spec)
            separate = a * conv2d_forward(x, kernel, None, spec) + b * conv2d_forward(y, kernel, None, spec)
            assert np.max(np.abs(combined - separate)) <= 1e-10


class TestRejections:
    def test_channel_mismatch_names_dimension(self):
        spec = ConvSpec(3, 4, 8)
        with pytest.raises(ShapeError, match="channel"):
            conv2d_forward(np.ones((1, 3, 8, 8)), np.ones((8, 4, 3, 3)), None, spec)

    def test_kernel_shape_mismatch(self):
        spec = ConvSpec(3, 4, 8)
        with pytest.raises(ShapeError, match="kernel"):
            conv2d_forward(np.ones((1, 4, 8, 8)), np.ones((8, 4, 5, 5)), None, spec)

    def test_effective_kernel_too_large(self):
        spec = ConvSpec(5, 1, 1, dilation=3)  # extent 13
        with pytest.raises(ShapeError, match="extent"):
            conv2d_forward(np.ones((1, 1, 8, 8)), np.ones((1, 1, 5, 5)), None, spec)

    def test_depthwise_channel_invariant(self):
        with pytest.raises(Exception, match="depthwise"):
            ConvSpec(3, 4, 8, mode="depthwise")

    def test_pointwise_invariant(self):
        with pytest.raises(Exception, match="pointwise"):
            ConvSpec(3, 4, 8, mode="pointwise")


def assert_phase_rule(spec, phases):
    """The phase table of :func:`dacnet.ops._phases` against the rule it states.

    Every tap lies in exactly one phase; a tap (th, tw) lies in the input
    phase ``((th*d - pad_h) % s, (tw*d - pad_w) % s)``; and there is exactly
    one phase iff the stride divides the dilation (or there is one tap).
    """
    k, d, s = spec.kernel_size, spec.dilation, spec.stride
    seen = np.zeros((k, k), dtype=int)
    for (th, tw), phase, _ in phases:
        seen[th, tw] += 1
        for t_h in range(k)[th]:
            for t_w in range(k)[tw]:
                assert phase == ((t_h * d - spec.pad[0]) % s, (t_w * d - spec.pad[1]) % s)
    assert (seen == 1).all()
    assert len({phase for _, phase, _ in phases}) == len(phases)
    assert (len(phases) == 1) == (d % s == 0 or k == 1)


class TestDepthwiseBlocks:
    """The row-blocked depthwise layer across block boundaries, against the oracle.

    Each case shrinks the block to about four (sample, channel) rows, so the
    nine rows run as a block of five and a shorter last block of four.
    """

    @pytest.mark.parametrize("k,d,stride,pad", [
        (3, 2, 1, (2, 2)),  # the network's stride-1 layer: gather-form gradient
        (3, 1, 1, (1, 0)),  # asymmetric padding
        (5, 2, 1, (1, 3)),
        (1, 1, 1, (0, 0)),
        (3, 2, 2, (2, 2)),  # the network's stride-2 layer: gather on one input phase
        (3, 3, 2, (3, 1)),  # stride does not divide dilation: four input phases
        (5, 1, 2, (2, 2)),
        (1, 1, 2, (1, 0)),
        (3, 1, 1, (3, 1)),  # pad > d*(k-1): the gather crops the output gradient
        (3, 1, 1, (0, 3)),
        (1, 1, 1, (1, 1)),
    ])
    def test_forward_and_backward_match_oracle(self, monkeypatch, k, d, stride, pad):
        ext = d * (k - 1) + 1
        h = max(1, ext - 2 * pad[0]) + 3
        w = max(1, ext - 2 * pad[1]) + 4
        spec = ConvSpec(k, 3, 3, stride=stride, padding=pad, dilation=d,
                        mode="depthwise", has_bias=True)
        self.check_in_two_blocks(monkeypatch, spec, h, w)

    @pytest.mark.parametrize("k,d,stride,pad,hw,split", [
        (3, 2, 2, (1, 1), (7, 9), ((1, 1), (1, 1), 1)),   # live phase 1 on both axes
        (3, 4, 2, (3, 2), (9, 10), ((1, 0), (2, 1), 2)),  # d/s = 2
        (3, 3, 3, (1, 3), (11, 11), ((2, 0), (1, 1), 1)),  # stride 3
        (3, 2, 2, (2, 2), (9, 13), ((0, 0), (1, 1), 1)),  # odd H and W at d = s = 2
        (3, 2, 2, (1, 1), (6, 7), ((1, 1), (1, 1), 1)),  # live phase padded 1 left, 0 right
        (3, 3, 2, (2, 2), (9, 11), None),  # s does not divide d: four input phases
        (1, 2, 2, (1, 1), (1, 1), ((1, 1), (1, 1), 1)),  # every tap reads padding
    ])
    def test_phase_split_paths_match_oracle(self, monkeypatch, k, d, stride, pad, hw, split):
        """Strided layers whose gradient comes from one live input phase, or from several.

        ``split`` is the one phase's ``(input phase, left padding, dilation)``,
        or None when the stride does not divide the dilation.
        """
        from dacnet import ops
        spec = ConvSpec(k, 3, 3, stride=stride, padding=pad, dilation=d,
                        mode="depthwise", has_bias=True)
        dilation, phases = ops._phases(spec)
        assert_phase_rule(spec, phases)
        if split is None:
            assert len(phases) > 1
        else:
            assert [(phase, left) for _, phase, left in phases] == [split[:2]]
            assert dilation == split[2]
        self.check_in_two_blocks(monkeypatch, spec, *hw)

    @staticmethod
    def check_in_two_blocks(monkeypatch, spec, h, w):
        from dacnet import ops
        rng = np.random.default_rng(31)
        k, stride, pad, d = spec.kernel_size, spec.stride, spec.pad, spec.dilation
        ho, wo = spec.output_hw(h, w)
        row_bytes = 8 * k * k * ho * wo  # one row of the layer's column buffer
        monkeypatch.setattr(ops, "_BLOCK_BYTES", 4 * row_bytes)
        assert ops._row_blocks(9, row_bytes)[1] == [(0, 5), (5, 9)]

        x = rng.standard_normal((3, 3, h, w))
        kernel = rng.standard_normal(spec.kernel_shape())
        bias = rng.standard_normal(3)
        want = conv2d_reference(x, kernel, bias, mode="depthwise", stride=stride,
                                padding=pad, dilation=d)
        got = conv2d_forward(x, kernel, bias, spec)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

        gout = rng.standard_normal(got.shape)
        want_x, want_k, want_b = oracle_gradients(gout, x, kernel, spec)
        gx, gk, gb = conv2d_backward(gout, x, kernel, spec, need_bias_grad=True)
        assert gx.shape == x.shape and gx.flags.c_contiguous
        assert np.max(np.abs(gx - want_x)) <= 1e-12
        assert np.max(np.abs(gk - want_k)) <= 1e-12
        assert np.max(np.abs(gb - want_b)) <= 1e-12
        gx, gk_only, _ = conv2d_backward(gout, x, kernel, spec, need_input_grad=False)
        assert gx is None
        assert np.max(np.abs(gk_only - want_k)) <= 1e-12

    def test_full_size_blocks_match_oracle(self):
        """At the module's own block size: 35 rows in blocks of 18 and 17."""
        from dacnet import ops
        rng = np.random.default_rng(37)
        spec = ConvSpec(3, 7, 7, padding=2, dilation=2, mode="depthwise")
        x = rng.standard_normal((5, 7, 14, 60))
        kernel = rng.standard_normal(spec.kernel_shape())
        assert ops._row_blocks(35, 8 * 9 * 14 * 60)[1] == [(0, 18), (18, 35)]
        want = conv2d_reference(x, kernel, None, mode="depthwise", padding=(2, 2), dilation=2)
        assert np.max(np.abs(conv2d_forward(x, kernel, None, spec) - want)) <= 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    def test_batch_equals_per_sample_bit_for_bit(self, stride):
        """Each output sums its taps in one fixed order, whatever the blocking."""
        rng = np.random.default_rng(41)
        spec = ConvSpec(3, 24, 24, stride=stride, padding=2, dilation=2, mode="depthwise")
        x = rng.standard_normal((9, 24, 14, 250))
        kernel = rng.standard_normal(spec.kernel_shape())
        batch = conv2d_forward(x, kernel, None, spec)
        single = np.concatenate([conv2d_forward(x[i:i + 1], kernel, None, spec)
                                 for i in range(len(x))])
        assert batch.tobytes() == single.tobytes()
