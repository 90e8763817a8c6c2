"""Property test: convolution gradients in every mode against the nested-loop oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dacnet import ConvSpec, conv2d_backward
from dacnet.ops import _phases
from oracles import oracle_gradients
from test_conv_oracle import assert_phase_rule


@st.composite
def layers(draw):
    """A small layer and input: any mode, k in {1, 3, 5}, d in 1..4, s in 1..3.

    Each axis draws its own padding near half the dilated kernel's extent, so
    the input can stay a few positions wide while the kernel still fits.
    """
    mode = draw(st.sampled_from(["standard", "depthwise", "pointwise"]))
    k = 1 if mode == "pointwise" else draw(st.sampled_from([1, 3, 5]))
    d = 1 if mode == "pointwise" else draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    ext = d * (k - 1) + 1
    pad = tuple(draw(st.integers(max(0, ext // 2 - 1), ext // 2 + 1)) for _ in range(2))
    hw = tuple(max(1, ext - 2 * p) + draw(st.integers(0, 3)) for p in pad)
    c_in = draw(st.integers(1, 2))
    c_out = c_in if mode == "depthwise" else draw(st.integers(1, 2))
    batch = draw(st.integers(1, 2))
    spec = ConvSpec(k, c_in, c_out, stride=stride, padding=pad, dilation=d, mode=mode)
    return spec, (batch, c_in) + hw, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(layers())
def test_backward_matches_oracle(layer):
    """Input, kernel and bias gradients, <= 1e-12, with and without the input gradient."""
    spec, shape, seed = layer
    assert_phase_rule(spec, _phases(spec)[1])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    kernel = rng.standard_normal(spec.kernel_shape())
    gout = rng.standard_normal((shape[0], spec.out_channels) + spec.output_hw(*shape[2:]))
    want_x, want_k, want_b = oracle_gradients(gout, x, kernel, spec)
    gx, gk, gb = conv2d_backward(gout, x, kernel, spec, need_bias_grad=True)
    assert gx.shape == x.shape and gx.flags.c_contiguous
    assert np.max(np.abs(gx - want_x)) <= 1e-12
    assert np.max(np.abs(gk - want_k)) <= 1e-12
    assert np.max(np.abs(gb - want_b)) <= 1e-12
    gx, gk_only, _ = conv2d_backward(gout, x, kernel, spec, need_input_grad=False)
    assert gx is None
    assert np.max(np.abs(gk_only - want_k)) <= 1e-12
