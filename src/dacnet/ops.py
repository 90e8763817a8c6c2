"""Convolution variants and auxiliary layers, with exact adjoints.

The convolutions are direct implementations: each kernel tap contributes one
fused multiply-accumulate per output position, with taps spaced ``dilation``
samples apart in the padded input and output positions spaced ``stride``
apart. Where taps are copied into column buffers, a buffer holds exactly the
k*k tap windows of each output position: no padded-width garbage columns and
no transform tricks, so the executed multiply-accumulate count per layer
equals the analytic cost model exactly; an optional instrumentation context
(:func:`count_macs`) tallies that count from the runtime operand shapes as
the kernels execute. The count covers the forward pass only and is the same
whichever path below runs.

Every pass that copies taps runs on block-local im2col columns (Chellapilla,
Puri & Simard 2006), and :func:`_column_blocks` is the one place that makes
them. It splits an ``(N, C, H, W)`` array into blocks of whole samples whose
columns take about ``_BLOCK_BYTES``, allocates one zero-bordered buffer per
call (concurrent calls share nothing), reuses it across blocks, and copies
each block's tap windows into it as ``(samples, C*k*k, Ho*Wo)`` matrices.
Only the window parts inside the unpadded input are copied, so the buffer's
zero border stands for the padding and no padded copy of the input is made.

A standard layer (and a pointwise layer with a stride or padding) is one
matrix product per block: the kernel flattened to ``(C_out, C_in*k*k)``
times the block's columns. Its backward pass unfolds the columns again for
the kernel gradient. A pointwise layer at stride 1 without padding reads its
input as the one and only tap window, so it copies no columns: forward and
backward are plain matrix products. A depthwise layer views the activation
as ``B*C`` one-channel samples of shape ``(H, W)``, each with its own k*k
taps, and contracts each block's columns with its rows' taps in one batched
product (one BLAS matrix-vector product per row).

Every input gradient, and the kernel gradient of a depthwise layer, is a
gather (polyphase decomposition; Dumoulin & Visin 2016): the taps of a
stride-s layer that read the same input phase ``x[..., ph::s, pw::s]`` form
a stride-1 layer on that phase (:func:`_phases`), and the phase's input
gradient is that layer's sub-kernel rotated 180 degrees times the columns of
the output gradient (:func:`_gradient_columns`). A stride-1 layer is its own
single phase, as is every layer whose stride divides its dilation (every
depthwise layer of the presets, but not of their ``no_dco`` ablation). A
depthwise layer takes the kernel gradient of each phase's taps from the same
columns times the input phase; a standard layer takes its kernel gradient
from the input's columns. No gradient is scattered back with strided adds.

Batch normalization is one per-channel scale and shift of its input in both
modes; training mode takes the mean and variance from two reductions over
``x`` and keeps no centered copy. It can apply the following ReLU in place
on its own output (``batchnorm(..., relu=True)``), which saves a copy, a
mask array and a tape record per layer. For inference, eval-mode batch norm
folds into the preceding convolution's kernel and a bias
(:func:`fold_batchnorm`), so a layer runs one convolution and no separate
normalization pass.

The taped ops (``conv2d``, ``batchnorm``, ``relu``, ...) operate on
:class:`~dacnet.tensor.Tensor` values. Each computes its output and states
its gradients as a function of the output gradient; :func:`_taped` records
that function on the innermost active :class:`~dacnet.tensor.GradientTape`
and routes every gradient to its input, so no op decides for itself which
inputs get one or who owns the array. Convolution and batch norm keep raw
numpy kernels (``conv2d_forward`` / ``conv2d_backward``,
``batchnorm_forward`` / ``batchnorm_backward``, with :func:`fold_batchnorm`
and :func:`log_softmax`), because inference runs them without a tape and the
tests check them directly; every other op is written out inside its taped op.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import DTYPE, GradientTape, Tensor, ThreadStack

MODES = ("standard", "depthwise", "pointwise")


@dataclass(frozen=True)
class ConvSpec:
    """Full parameterization of one 2-D convolution layer.

    ``padding`` is zero padding, symmetric per spatial axis: either one
    integer for both axes or a ``(pad_h, pad_w)`` pair. ``dilation = 1``
    reproduces ordinary convolution.
    """

    kernel_size: int
    in_channels: int
    out_channels: int
    stride: int = 1
    padding: int | tuple[int, int] = 0
    dilation: int = 1
    mode: str = "standard"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown convolution mode {self.mode!r}")
        if self.kernel_size < 1 or self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("kernel_size and channel counts must be positive")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.dilation < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")
        ph, pw = self.pad
        if ph < 0 or pw < 0:
            raise ConfigError(f"padding must be non-negative, got {self.padding}")
        if self.mode == "depthwise" and self.out_channels != self.in_channels:
            raise ConfigError(
                "depthwise convolution needs out_channels == in_channels "
                f"(one filter per input channel), got {self.in_channels}->{self.out_channels}"
            )
        if self.mode == "pointwise" and (self.kernel_size != 1 or self.dilation != 1):
            raise ConfigError("pointwise convolution requires kernel_size = 1 and dilation = 1")

    @property
    def pad(self) -> tuple[int, int]:
        if isinstance(self.padding, tuple):
            return self.padding
        return (self.padding, self.padding)

    @property
    def effective_extent(self) -> int:
        """Span of the dilated kernel in the input: d*(K-1) + 1."""
        return self.dilation * (self.kernel_size - 1) + 1

    def kernel_shape(self) -> tuple[int, int, int, int]:
        k = self.kernel_size
        if self.mode == "depthwise":
            return (self.in_channels, 1, k, k)
        return (self.out_channels, self.in_channels, k, k)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        """Output-shape law; rejects inputs the padded kernel does not fit."""
        ph, pw = self.pad
        ext = self.effective_extent
        ho = (h + 2 * ph - ext) // self.stride + 1
        wo = (w + 2 * pw - ext) // self.stride + 1
        if h + 2 * ph < ext:
            raise ShapeError(
                f"effective kernel extent {ext} exceeds padded input height {h + 2 * ph}"
            )
        if w + 2 * pw < ext:
            raise ShapeError(
                f"effective kernel extent {ext} exceeds padded input width {w + 2 * pw}"
            )
        return ho, wo


# ---------------------------------------------------------------------------
# Multiply-accumulate instrumentation
# ---------------------------------------------------------------------------


class MacCounter:
    """Tally of multiply-accumulate operations performed by the kernels."""

    def __init__(self):
        self.total = 0

    def add(self, n: int) -> None:
        self.total += n


_MAC_STACK = ThreadStack()


@contextmanager
def count_macs():
    """Count forward-pass MACs executed on this thread inside the ``with`` block.

    The count is derived from the runtime operand shapes of each executed
    kernel call (one MAC per scalar multiply in the accumulation), not from
    any analytic cost formula.
    """
    counter = MacCounter()
    _MAC_STACK.items.append(counter)
    try:
        yield counter
    finally:
        _MAC_STACK.items.pop()


def _tally(n: int) -> None:
    counters = _MAC_STACK.items
    if counters:
        counters[-1].add(n)


# ---------------------------------------------------------------------------
# Convolution kernels
# ---------------------------------------------------------------------------


def _check_conv_input(x: np.ndarray, kernel: np.ndarray, spec: ConvSpec) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-D input (B, C, H, W), got {x.ndim}-D")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"input channel dimension is {x.shape[1]}, spec expects {spec.in_channels}"
        )
    expected = spec.kernel_shape()
    if kernel.shape != expected:
        raise ShapeError(
            f"kernel shape {kernel.shape} does not match {spec.mode} spec {expected}"
        )


def conv2d_forward(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: Optional[np.ndarray],
    spec: ConvSpec,
) -> np.ndarray:
    """Direct dilated/strided convolution in any of the three modes."""
    _check_conv_input(x, kernel, spec)
    ho, wo = spec.output_hw(x.shape[2], x.shape[3])
    if spec.mode == "depthwise":
        out = _depthwise_forward(x, kernel, spec, ho, wo)
    else:
        b, ci, h, w = x.shape
        k2 = spec.kernel_size ** 2
        out = np.empty((b, spec.out_channels, ho * wo), dtype=DTYPE)
        if _is_direct(spec):
            np.matmul(kernel[:, :, 0, 0], x.reshape(b, ci, h * w), out=out)
        else:
            flat_kernel = kernel.reshape(spec.out_channels, ci * k2)
            for n0, n1, cols in _column_blocks(x, kernel.shape[2:], spec.dilation, spec.stride,
                                               spec.pad, (ho, wo)):
                np.matmul(flat_kernel, cols, out=out[n0:n1])
        _tally(out.size * ci * k2)
        out = out.reshape(b, spec.out_channels, ho, wo)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d_backward(
    output_grad: np.ndarray,
    x: np.ndarray,
    kernel: np.ndarray,
    spec: ConvSpec,
    need_input_grad: bool = True,
    need_bias_grad: bool = False,
) -> tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """Exact adjoint of :func:`conv2d_forward`."""
    _check_conv_input(x, kernel, spec)
    b, ci, h, w = x.shape
    ho, wo = spec.output_hw(h, w)
    if output_grad.shape != (b, spec.out_channels, ho, wo):
        raise ShapeError(
            f"output_grad shape {output_grad.shape} does not match forward output "
            f"{(b, spec.out_channels, ho, wo)}"
        )
    bias_grad = output_grad.sum(axis=(0, 2, 3)) if need_bias_grad else None
    if spec.mode == "depthwise":
        input_grad, kernel_grad = _depthwise_backward(
            output_grad, x, kernel, spec, need_input_grad
        )
        return input_grad, kernel_grad, bias_grad

    gout_flat = output_grad.reshape(b, spec.out_channels, ho * wo)
    if _is_direct(spec):
        # The whole input is the single tap window: one product per gradient.
        x_flat = x.reshape(b, ci, h * w)
        kernel_grad = _kernel_tap_grad(gout_flat, x_flat).reshape(kernel.shape)
        input_grad = None
        if need_input_grad:
            input_grad = np.matmul(kernel[:, :, 0, 0].T, gout_flat).reshape(x.shape)
        return input_grad, kernel_grad, bias_grad

    # The columns are unfolded again rather than kept from the forward pass,
    # which would hold a k*k-fold copy of the input for the whole step.
    flat_kernel = kernel.reshape(spec.out_channels, -1)
    kernel_grad = np.zeros_like(flat_kernel)
    for n0, n1, cols in _column_blocks(x, kernel.shape[2:], spec.dilation, spec.stride,
                                       spec.pad, (ho, wo)):
        kernel_grad += _kernel_tap_grad(gout_flat[n0:n1], cols)
    input_grad = _standard_input_grad(output_grad, kernel, spec, h, w) if need_input_grad else None
    return input_grad, kernel_grad.reshape(kernel.shape), bias_grad


def _is_direct(spec: ConvSpec) -> bool:
    """A pointwise layer at stride 1 without padding: its input is its one tap window."""
    return spec.mode == "pointwise" and spec.stride == 1 and spec.pad == (0, 0)


def _kernel_tap_grad(gout_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Kernel gradient from columns: sum over the batch of gout @ cols^T."""
    return np.matmul(gout_flat, cols.transpose(0, 2, 1)).sum(axis=0)


def _standard_input_grad(output_grad: np.ndarray, kernel: np.ndarray, spec: ConvSpec,
                         h: int, w: int) -> np.ndarray:
    """Input gradient of a standard or pointwise layer, one input phase at a time:
    per block of whole samples, the phase's sub-kernel rotated 180 degrees with
    its channels swapped, (C_in, C_out*kh*kw), times the output gradient's columns."""
    ci, s = spec.in_channels, spec.stride
    d, phases = _phases(spec)
    input_grad = _phase_array((len(output_grad), ci, h, w), s, len(phases))
    for (th, tw), (ph, pw), pad in phases:
        sub = kernel[:, :, th, tw]
        rotated = sub[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, -1)
        phase = input_grad[:, :, ph::s, pw::s]
        for n0, n1, cols in _gradient_columns(output_grad, sub.shape[2:], d, pad, phase.shape[2:]):
            _product_into(phase[n0:n1], rotated, cols)
    return input_grad


# ---------------------------------------------------------------------------
# Block-local tap columns; depthwise convolution, one batched product per block
# ---------------------------------------------------------------------------

# Target size of one block's column buffer, (samples, C*k*k, Ho*Wo) doubles.
# The block's input, columns and output then stay in a 2 MiB L2 cache between
# the copy into the columns and the product that reads them. Of 256 KiB to
# 4 MiB, 1 MiB was fastest over the toy and reference layers.
_BLOCK_BYTES = 1024 * 1024


def _row_blocks(rows: int, row_bytes: int) -> tuple[int, list[tuple[int, int]]]:
    """Rows per block, and each block's (start, stop), for blocks of nearly equal size.

    The block count is ``rows * row_bytes`` over ``_BLOCK_BYTES``, rounded,
    so no block is a small remainder that would pay the per-block call
    overhead for a few rows.
    """
    count = max(1, round(rows * row_bytes / _BLOCK_BYTES))
    step = -(-rows // count)
    return step, [(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _tap_slices(k: int, d: int, s: int, pad: int, size: int,
                out_size: int) -> list[tuple[slice, slice]]:
    """Per tap along one axis: (output slice, input slice) of the outputs
    whose tap reads inside the unpadded axis; the others read zero padding.
    ``pad`` may be negative: the first tap then starts inside the axis."""
    slices = []
    for t in range(k):
        offset = t * d - pad
        i0 = max(0, -(offset // s))
        i1 = min(out_size, (size - 1 - offset) // s + 1)
        if i1 <= i0:
            slices.append((slice(0, 0), slice(0, 0)))
        else:
            slices.append((slice(i0, i1), slice(i0 * s + offset, (i1 - 1) * s + offset + 1, s)))
    return slices


def _column_blocks(x: np.ndarray, taps: tuple[int, int], d: int, s: int,
                   pad: tuple[int, int], out_hw: tuple[int, int]):
    """The im2col columns of ``x`` (N, C, H, W), one block of whole samples at a time.

    Yields ``(n0, n1, cols)``, where ``cols`` holds the ``(n1-n0, C*kh*kw,
    Ho*Wo)`` columns of samples ``n0:n1``: one per channel, tap and output,
    in the order of ``kernel.reshape(C_out, C*kh*kw)``. Each call allocates
    one zeroed buffer, so concurrent calls share nothing, and reuses it
    across blocks: ``cols`` is valid until the next block. Only the window
    parts inside the unpadded input are copied, so the buffer's zero border
    stands for the padding.
    """
    n, c, h, w = x.shape
    kh, kw = taps
    step, blocks = _row_blocks(n, 8 * c * kh * kw * out_hw[0] * out_hw[1])
    buf = np.zeros((step * c, kh * kw, *out_hw), dtype=DTYPE)
    rows = x.reshape(n * c, h, w)
    along_h, along_w = (_tap_slices(k, d, s, p, size, m)
                        for k, p, size, m in zip(taps, pad, (h, w), out_hw))
    windows = [(th * kw + tw, oh, ow, ih, iw)
               for th, (oh, ih) in enumerate(along_h) for tw, (ow, iw) in enumerate(along_w)]
    for n0, n1 in blocks:
        block, block_rows = buf[:(n1 - n0) * c], rows[n0 * c:n1 * c]
        for t, oh, ow, ih, iw in windows:
            block[:, t, oh, ow] = block_rows[:, ih, iw]
        yield n0, n1, block.reshape(n1 - n0, c * kh * kw, -1)


def _gradient_columns(g: np.ndarray, taps: tuple[int, int], d: int, pad: tuple[int, int],
                      hw: tuple[int, int]):
    """Output-gradient columns of a stride-1 layer, one per input position and tap.

    The gradient is padded by ``d*(k-1) - pad`` (cropped where negative), so
    column tap t meets the layer's tap ``kh*kw-1-t``: sum_p g[p] x[p+o] =
    sum_q x[q] g[q-o].
    """
    g_pad = tuple(d * (k - 1) - p for k, p in zip(taps, pad))
    return _column_blocks(g, taps, d, 1, g_pad, hw)


def _phases(spec: ConvSpec):
    """The stride-1 layers that a layer splits into, one per live input phase.

    Along an axis, tap t reads inputs in phase ``(t*d - pad) % s``, and with
    ``g = gcd(s, d)`` the taps ``t0, t0 + s/g, ...`` share one. On that phase
    they form a stride-1 layer at dilation d/g with left padding
    ``-((t0*d - pad) // s)``. Phases no tap reads get no gradient; a layer
    whose stride divides its dilation has one phase. Returns ``(d // g,
    [((taps_h, taps_w), (ph, pw), (pad_h, pad_w)), ...])``, the taps as slices.
    """
    s, d = spec.stride, spec.dilation
    g = math.gcd(s, d)
    axes = [[(slice(t0, None, s // g), (t0 * d - pad) % s, -((t0 * d - pad) // s))
             for t0 in range(min(spec.kernel_size, s // g))] for pad in spec.pad]
    return d // g, [((th, tw), (ph, pw), (pad_h, pad_w))
                    for th, ph, pad_h in axes[0] for tw, pw, pad_w in axes[1]]


def _phase_array(shape: tuple[int, ...], s: int, live: int) -> np.ndarray:
    """An input gradient that ``live`` phases fill: zeroed unless all s*s are live."""
    return np.empty(shape, dtype=DTYPE) if live == s * s else np.zeros(shape, dtype=DTYPE)


def _product_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out = a @ b`` with ``out``'s last two axes flat: in place where ``out`` is
    contiguous (stride 1), through a block-sized temporary into a strided phase."""
    if out.flags.c_contiguous:
        np.matmul(a, b, out=out.reshape(*out.shape[:-2], -1))
    else:
        out[...] = np.matmul(a, b).reshape(out.shape)


def _row_taps(kernel: np.ndarray, batch: int) -> np.ndarray:
    """Kernel taps per (sample, channel) row: shape (batch * C, kh * kw)."""
    return np.tile(kernel.reshape(kernel.shape[0], -1), (batch, 1))


def _depthwise_forward(x: np.ndarray, kernel: np.ndarray, spec: ConvSpec,
                       ho: int, wo: int) -> np.ndarray:
    b, c, h, w = x.shape
    n = b * c
    taps = _row_taps(kernel, b)[:, None, :]
    out = np.empty((n, 1, ho * wo), dtype=DTYPE)
    for r0, r1, cols in _column_blocks(x.reshape(n, 1, h, w), kernel.shape[2:], spec.dilation,
                                       spec.stride, spec.pad, (ho, wo)):
        np.matmul(taps[r0:r1], cols, out=out[r0:r1])
    _tally(taps.shape[2] * out.size)
    return out.reshape(b, c, ho, wo)


def _depthwise_backward(
    output_grad: np.ndarray,
    x: np.ndarray,
    kernel: np.ndarray,
    spec: ConvSpec,
    need_input_grad: bool,
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Input and kernel gradients of a depthwise layer, one input phase at a time.

    Each phase of :func:`_phases` is a stride-1 layer over its slice of the
    taps. With ``cols`` the output gradient's columns
    (:func:`_gradient_columns`), the phase's input gradient is the rows' taps
    rotated 180 degrees times ``cols``, and the gradient of its tap
    ``kh*kw-1-t`` is ``cols[r, t] . x[r]``, all from one buffer per block.
    """
    b, c, h, w = x.shape
    s, n = spec.stride, b * c
    x_rows = x.reshape(n, h, w)
    g_rows = output_grad.reshape(n, 1, *output_grad.shape[2:])
    d, phases = _phases(spec)
    kernel_grad = np.empty_like(kernel)
    input_grad = _phase_array((n, 1, h, w), s, len(phases)) if need_input_grad else None
    for (th, tw), (ph, pw), pad in phases:
        sub = kernel[:, :, th, tw]
        x_phase = x_rows[:, ph::s, pw::s]
        hp, wp = x_phase.shape[1:]
        taps = _row_taps(sub, b)
        rotated = np.ascontiguousarray(taps[:, None, ::-1])
        tap_grads = np.empty((n, taps.shape[1], 1), dtype=DTYPE)
        for r0, r1, cols in _gradient_columns(g_rows, sub.shape[2:], d, pad, (hp, wp)):
            np.matmul(cols, x_phase[r0:r1].reshape(r1 - r0, hp * wp, 1), out=tap_grads[r0:r1])
            if input_grad is not None:
                _product_into(input_grad[r0:r1, :, ph::s, pw::s], rotated[r0:r1], cols)
        kernel_grad[:, :, th, tw] = tap_grads[:, ::-1, 0].reshape(b, *sub.shape).sum(axis=0)
    if input_grad is not None:
        input_grad = input_grad.reshape(x.shape)
    return input_grad, kernel_grad


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5  # added to the variance before its square root, in every mode
BN_MOMENTUM = 0.1  # weight of a training batch's statistics in the running ones


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    relu: bool = False,
):
    """Per-channel normalization over batch and spatial axes.

    Training mode normalizes with the biased batch statistics and updates the
    running statistics in place with momentum ``BN_MOMENTUM``; eval mode uses
    the running statistics. Either way the output is one scale and one shift of
    ``x``, ``x*scale + (beta - mean*scale)`` with ``scale = gamma /
    sqrt(var + BN_EPS)``, and no centered copy of ``x`` is made. The batch
    variance is ``E[x^2] - mean^2``, clamped at zero: its relative error
    grows as ``(mean/std)^2`` times the float64 rounding error, about 3e-10
    in the output at ``|mean| = 1e3 * std`` and 1e-7 at 1e4. ``relu=True``
    clamps the output at zero in place. Returns ``(out, cache)`` where
    ``cache`` feeds :func:`batchnorm_backward`.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm expects a 4-D input, got {x.ndim}-D")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    count = x.shape[0] * x.shape[2] * x.shape[3]
    if count == 0:
        raise ShapeError("batchnorm requires a non-empty batch x spatial extent")

    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = np.maximum(np.einsum("bchw,bchw->c", x, x) / count - mean * mean, 0.0)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mean, var = running_mean.copy(), running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std
    shape = (1, c, 1, 1)
    out = x * scale.reshape(shape)
    out += (beta - mean * scale).reshape(shape)
    if relu:
        np.maximum(out, 0.0, out=out)
    cache = (x, mean, inv_std, scale, out if relu else None, count, training)
    return out, cache


def fold_batchnorm(
    kernel: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch norm folded into the convolution before it.

    With ``scale = gamma / sqrt(running_var + BN_EPS)``, normalizing the output
    of ``conv(x, kernel)`` equals ``conv(x, kernel * scale) + shift`` with
    ``shift = beta - running_mean*scale`` (Jacob et al. 2018). Axis 0 of the
    kernel is the output channel in every mode. Returns ``(kernel', shift)``;
    the shift is the bias operand of :func:`conv2d_forward`.
    """
    scale = gamma / np.sqrt(running_var + BN_EPS)
    return kernel * scale.reshape(-1, 1, 1, 1), beta - running_mean * scale


def batchnorm_backward(output_grad: np.ndarray, cache):
    """Adjoint of :func:`batchnorm_forward`, ReLU included when it was fused.

    With g the output gradient (masked by ``out > 0`` after a fused ReLU) and
    ``scale = gamma * inv_std``: ``dbeta = sum(g)``, ``dgamma = (sum(g*x) -
    mean*dbeta) * inv_std`` and ``dx = g*scale``. In training mode the batch
    statistics depend on x, which couples all positions of a channel and
    adds ``-k1*x + (k1*mean - scale*dbeta/n)`` to dx, with ``k1 =
    scale*inv_std*dgamma/n``.
    """
    x, mean, inv_std, scale, relu_out, count, training = cache
    shape = (1, x.shape[1], 1, 1)
    g = output_grad if relu_out is None else output_grad * (relu_out > 0)
    dbeta = g.sum(axis=(0, 2, 3))
    dgamma = (np.einsum("bchw,bchw->c", g, x) - mean * dbeta) * inv_std
    # a masked gradient is a fresh array, so it is scaled in place
    dx = np.multiply(g, scale.reshape(shape), out=None if g is output_grad else g)
    if training:
        k1 = scale * inv_std * dgamma / count
        dx -= x * k1.reshape(shape)
        dx += (k1 * mean - scale * dbeta / count).reshape(shape)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Taped operations on Tensors
# ---------------------------------------------------------------------------


def _taped(data: np.ndarray, inputs: Sequence[Optional[Tensor]], grads) -> Tensor:
    """Wrap ``data`` as the output of an op on ``inputs`` and record its adjoint.

    On an open tape, when some input needs a gradient, one closure is
    recorded. It calls ``grads(gout, need)`` for one gradient per input
    (``need[i]`` says whether input i wants one; a ``None`` input never
    does) and adds each needed one into its input, which adopts the array
    without a copy unless it is ``gout`` itself, still held by the output.
    """
    out = Tensor(data)
    tape = GradientTape.active()
    if tape is not None and any(need := [t is not None and t.needs_grad() for t in inputs]):
        def backward(gout: np.ndarray) -> None:
            for t, wanted, g in zip(inputs, need, grads(gout, need)):
                if wanted:
                    t.accumulate_grad(g, own=g is not gout)

        tape.record(out, backward)
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor], spec: ConvSpec) -> Tensor:
    out = conv2d_forward(x.data, kernel.data, None if bias is None else bias.data, spec)
    return _taped(out, (x, kernel, bias), lambda gout, need: conv2d_backward(
        gout, x.data, kernel.data, spec, need_input_grad=need[0], need_bias_grad=need[2]))


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    relu: bool = False,
) -> Tensor:
    """Batch normalization, optionally followed by ReLU as one taped operation."""
    out, cache = batchnorm_forward(
        x.data, gamma.data, beta.data, running_mean, running_var, training, relu,
    )
    return _taped(out, (x, gamma, beta), lambda gout, need: batchnorm_backward(gout, cache))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return _taped(out, (x,), lambda gout, need: (gout * (out > 0),))


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects a 4-D input, got {x.ndim}-D")
    _, _, h, w = x.shape

    def grads(gout, need):
        g = np.empty_like(x.data)
        g[...] = gout[:, :, None, None] / (h * w)
        return (g,)

    return _taped(x.data.mean(axis=(2, 3)), (x,), grads)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"linear expects a 2-D input, got {x.ndim}-D")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(
            f"linear input features {x.shape[1]} do not match weight rows {weight.shape[0]}"
        )
    out = x.data @ weight.data
    _tally(x.shape[0] * weight.shape[0] * weight.shape[1])
    if bias is not None:
        out = out + bias.data

    def grads(gout, need):
        return (gout @ weight.data.T if need[0] else None,
                x.data.T @ gout if need[1] else None,
                gout.sum(axis=0) if need[2] else None)

    return _taped(out, (x, weight, bias), grads)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of 2-D logits, stabilized by subtracting each row's maximum."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Mean cross-entropy over :func:`log_softmax`.

    Returns ``(loss, probs)``; the gradient of ``loss`` with respect to the
    logits is ``(probs - onehot) / batch``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects 2-D logits, got {logits.ndim}-D")
    b, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= c:
        bad = int(labels[(labels < 0) | (labels >= c)][0])
        raise ConfigError(f"label {bad} outside [0, {c})")
    log_probs = log_softmax(logits.data)
    probs = np.exp(log_probs)

    def grads(gout, need):
        g = probs.copy()
        g[np.arange(b), labels] -= 1.0
        g *= float(gout) / b
        return (g,)

    return _taped(-log_probs[np.arange(b), labels].mean(), (logits,), grads), probs


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} and {b.shape}")
    return _taped(a.data + b.data, (a, b), lambda gout, need: (gout, gout))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along the feature axis."""
    edges = np.cumsum([0] + [p.shape[1] for p in parts])

    def grads(gout, need):
        return [np.ascontiguousarray(gout[:, e0:e1]) if wanted else None
                for wanted, e0, e1 in zip(need, edges[:-1], edges[1:])]

    return _taped(np.concatenate([p.data for p in parts], axis=1), parts, grads)


def mean_scalar(x: Tensor) -> Tensor:
    """Mean of all elements; convenient scalar head for gradient checks."""
    return _taped(x.data.mean(), (x,),
                  lambda gout, need: (np.full_like(x.data, float(gout) / x.size),))
