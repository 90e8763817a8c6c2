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

A standard layer (and a pointwise layer with a stride or padding) is one
matrix product per block of whole samples: the block's ``C_in*k*k`` tap
columns, unfolded as for a depthwise layer below, times the kernel flattened
to ``(C_out, C_in*k*k)`` (im2col). Its backward pass unfolds the columns
again, block by block, for the kernel gradient. A pointwise layer at stride 1
without padding reads its input as the one and only tap window, so it copies
no columns: forward and backward are plain matrix products.

A depthwise layer views the activation as ``B*C`` independent rows of shape
``(H, W)``, each with its own k*k taps, and works on one block of rows at a
time: it copies the block's tap windows into a column buffer of shape
``(rows, k*k, Ho*Wo)``, about ``_BLOCK_BYTES`` in size, and contracts it with
the rows' taps in one batched product (one BLAS matrix-vector product per
row). The buffer is allocated per call and reused across blocks. Only the
window parts inside the unpadded input are ever copied, so the buffer's zero
border, written once, stands for the padding and no padded copy of the input
is made.

Every input gradient, and the kernel gradient of a depthwise layer, is a
gather (polyphase decomposition): the taps of a stride-s layer that read the
same input phase ``x[..., ph::s, pw::s]`` form a stride-1 layer on that phase
(:func:`_phases`), and the phase's input gradient is that layer's sub-kernel
rotated 180 degrees times the columns of the output gradient. A stride-1
layer is its own single phase, as is every layer whose stride divides its
dilation (every depthwise layer of the presets, but not of their ``no_dco``
ablation). A depthwise layer takes the kernel gradient of each phase's taps
from the same columns times the input phase; a standard layer takes its
kernel gradient from the input's columns. No gradient is scattered back with
strided adds.

Batch normalization is one per-channel scale and shift of its input in both
modes; training mode takes the mean and variance from two reductions over
``x`` and keeps no centered copy. It can apply the following ReLU in place
on its own output (``batchnorm(..., relu=True)``), which saves a copy, a
mask array and a tape record per layer.

Raw kernels (``*_forward`` / ``*_backward``) operate on numpy arrays. The
lowercase wrappers (``conv2d``, ``relu``, ...) operate on
:class:`~dacnet.tensor.Tensor` values and record their adjoints on the
innermost active :class:`~dacnet.tensor.GradientTape`.
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
    has_bias: bool = False

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
            columns, rows, blocks = _sample_blocks(x, spec, ho, wo)
            for s0, s1 in blocks:
                cols = columns.unfold(rows[s0 * ci:s1 * ci]).reshape(s1 - s0, ci * k2, -1)
                np.matmul(flat_kernel, cols, out=out[s0:s1])
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
    columns, rows, blocks = _sample_blocks(x, spec, ho, wo)
    for s0, s1 in blocks:
        cols = columns.unfold(rows[s0 * ci:s1 * ci]).reshape(s1 - s0, flat_kernel.shape[1], -1)
        kernel_grad += _kernel_tap_grad(gout_flat[s0:s1], cols)
    input_grad = _standard_input_grad(output_grad, kernel, spec, h, w) if need_input_grad else None
    return input_grad, kernel_grad.reshape(kernel.shape), bias_grad


def _is_direct(spec: ConvSpec) -> bool:
    """A pointwise layer at stride 1 without padding: its input is its one tap window."""
    return spec.mode == "pointwise" and spec.stride == 1 and spec.pad == (0, 0)


def _sample_blocks(x: np.ndarray, spec: ConvSpec, ho: int, wo: int):
    """Column buffer, rows and sample blocks of a standard or pointwise layer.

    ``x`` is viewed as ``B*C_in`` rows, and each block holds whole samples,
    so a block's depthwise-style columns ``(samples*C_in, k*k, Ho*Wo)``
    reshape for free to the im2col matrices ``(samples, C_in*k*k, Ho*Wo)``,
    whose column order is that of ``kernel.reshape(C_out, C_in*k*k)``.
    Returns ``(columns, rows, [(s0, s1), ...])``.
    """
    b, ci, h, w = x.shape
    k = spec.kernel_size
    step, blocks = _row_blocks(b, 8 * ci * k * k * ho * wo)
    columns = _Columns(step * ci, (k, k), spec.dilation, spec.stride, spec.pad, (h, w), (ho, wo))
    return columns, x.reshape(b * ci, h, w), blocks


def _kernel_tap_grad(gout_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Kernel gradient from columns: sum over the batch of gout @ cols^T."""
    return np.matmul(gout_flat, cols.transpose(0, 2, 1)).sum(axis=0)


def _standard_input_grad(output_grad: np.ndarray, kernel: np.ndarray, spec: ConvSpec,
                         h: int, w: int) -> np.ndarray:
    """Input gradient of a standard or pointwise layer, one input phase at a time:
    per block of whole samples, the phase's sub-kernel rotated 180 degrees with
    its channels swapped, (C_in, C_out*kh*kw), times the output gradient's columns."""
    b, co, ho, wo = output_grad.shape
    ci, s = spec.in_channels, spec.stride
    g_rows = output_grad.reshape(b * co, ho, wo)
    d, phases = _phases(spec)
    input_grad = _phase_array((b, ci, h, w), s, len(phases))
    for (th, tw), (ph, pw), pad in phases:
        sub = kernel[:, :, th, tw]
        kh, kw = sub.shape[2:]
        rotated = sub[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * kh * kw)
        phase = input_grad[:, :, ph::s, pw::s]
        hp, wp = phase.shape[2:]
        step, blocks = _row_blocks(b, 8 * co * kh * kw * hp * wp)
        columns = _gradient_columns(step * co, (kh, kw), d, pad, (ho, wo), (hp, wp))
        for s0, s1 in blocks:
            cols = columns.unfold(g_rows[s0 * co:s1 * co]).reshape(s1 - s0, co * kh * kw, -1)
            _product_into(phase[s0:s1], rotated, cols)
    return input_grad


# ---------------------------------------------------------------------------
# Block-local tap columns; depthwise convolution, one batched product per block
# ---------------------------------------------------------------------------

# Target size of one block's column buffer, (rows, k*k, Ho*Wo) doubles. The
# block's rows, columns and output then stay in a 2 MiB L2 cache between the
# copy into the columns and the product that reads them. Of 256 KiB to 4 MiB,
# 1 MiB was fastest over the toy and reference layers.
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


class _Columns:
    """A reused column buffer for one layer geometry, (step, kh*kw, Ho, Wo), over rows.

    ``unfold`` copies each tap's window of a block of rows into its column.
    Only the parts of the windows that lie inside the unpadded rows are ever
    copied, so the buffer's zero border, written once, stands for the padding.
    """

    def __init__(self, step: int, taps: tuple[int, int], d: int, s: int, pad: tuple[int, int],
                 hw: tuple[int, int], out_hw: tuple[int, int]):
        kh, kw = taps
        self.buf = np.zeros((step, kh * kw, *out_hw), dtype=DTYPE)
        rows, cols = (_tap_slices(k, d, s, p, n, m)
                      for k, p, n, m in zip(taps, pad, hw, out_hw))
        self.taps = [(th * kw + tw, oh, ow, ih, iw)
                     for th, (oh, ih) in enumerate(rows) for tw, (ow, iw) in enumerate(cols)]

    def unfold(self, rows: np.ndarray) -> np.ndarray:
        """The block's columns as (rows, kh*kw, Ho*Wo): one per output and tap."""
        cols = self.buf[:len(rows)]
        for t, oh, ow, ih, iw in self.taps:
            cols[:, t, oh, ow] = rows[:, ih, iw]
        return cols.reshape(len(rows), cols.shape[1], -1)


def _gradient_columns(step: int, taps: tuple[int, int], d: int, pad: tuple[int, int],
                      g_hw: tuple[int, int], hw: tuple[int, int]) -> _Columns:
    """Output-gradient columns of a stride-1 layer, one per input position and tap.

    The gradient is padded by ``d*(k-1) - pad`` (cropped where negative), so
    column tap t meets the layer's tap ``kh*kw-1-t``: sum_p g[p] x[p+o] =
    sum_q x[q] g[q-o].
    """
    g_pad = tuple(d * (k - 1) - p for k, p in zip(taps, pad))
    return _Columns(step, taps, d, 1, g_pad, g_hw, hw)


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
    k, n = spec.kernel_size, b * c
    x_rows = x.reshape(n, h, w)
    taps = _row_taps(kernel, b)[:, None, :]
    out = np.empty((n, 1, ho * wo), dtype=DTYPE)
    step, blocks = _row_blocks(n, 8 * k * k * ho * wo)
    columns = _Columns(step, (k, k), spec.dilation, spec.stride, spec.pad, (h, w), (ho, wo))
    for r0, r1 in blocks:
        np.matmul(taps[r0:r1], columns.unfold(x_rows[r0:r1]), out=out[r0:r1])
    _tally(k * k * out.size)
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
    taps, whose two gradients :func:`_gather_backward` takes together.
    """
    b, c, h, w = x.shape
    s, n = spec.stride, b * c
    x_rows = x.reshape(n, h, w)
    g_rows = output_grad.reshape(n, *output_grad.shape[2:])
    d, phases = _phases(spec)
    kernel_grad = np.empty_like(kernel)
    input_grad = _phase_array((n, 1, h, w), s, len(phases)) if need_input_grad else None
    for (th, tw), (ph, pw), pad in phases:
        sub = kernel[:, :, th, tw]
        tap_grads = _gather_backward(
            g_rows, x_rows[:, ph::s, pw::s], _row_taps(sub, b), sub.shape[2:], d, pad,
            None if input_grad is None else input_grad[:, :, ph::s, pw::s],
        )
        kernel_grad[:, :, th, tw] = tap_grads.reshape(b, *sub.shape).sum(axis=0)
    if input_grad is not None:
        input_grad = input_grad.reshape(x.shape)
    return input_grad, kernel_grad


def _gather_backward(g_rows: np.ndarray, x_rows: np.ndarray, taps: np.ndarray,
                     tap_hw: tuple[int, int], d: int, pad: tuple[int, int],
                     input_grad: Optional[np.ndarray]) -> np.ndarray:
    """Gradients of a stride-1 depthwise layer from one column buffer per block.

    With ``cols`` the output gradient's columns (:func:`_gradient_columns`),
    ``input_grad`` (rows, 1, H, W), if given, gets the rows' ``tap_hw`` taps
    rotated 180 degrees times ``cols``; returns the kernel gradient per row,
    whose tap ``kh*kw-1-t`` is ``cols[r, t] . x[r]``.
    """
    n, ho, wo = g_rows.shape
    _, h, w = x_rows.shape
    kk = taps.shape[1]
    step, blocks = _row_blocks(n, 8 * kk * h * w)
    columns = _gradient_columns(step, tap_hw, d, pad, (ho, wo), (h, w))
    rotated = np.ascontiguousarray(taps[:, None, ::-1])
    tap_grads = np.empty((n, kk, 1), dtype=DTYPE)
    for r0, r1 in blocks:
        cols = columns.unfold(g_rows[r0:r1])
        np.matmul(cols, x_rows[r0:r1].reshape(r1 - r0, h * w, 1), out=tap_grads[r0:r1])
        if input_grad is not None:
            _product_into(input_grad[r0:r1], rotated[r0:r1], cols)
    return tap_grads[:, ::-1, 0]


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float = 1e-5,
    momentum: float = 0.1,
    relu: bool = False,
):
    """Per-channel normalization over batch and spatial axes.

    Training mode normalizes with the biased batch statistics and updates the
    running statistics in place with the given momentum; eval mode uses the
    running statistics. Either way the output is one scale and one shift of
    ``x``, ``x*scale + (beta - mean*scale)``, and no centered copy of ``x``
    is made. The batch variance is ``E[x^2] - mean^2``, clamped at zero: its
    relative error grows as ``(mean/std)^2`` times the float64 rounding
    error, about 3e-10 in the output at ``|mean| = 1e3 * std`` and 1e-7 at
    1e4. ``relu=True`` clamps the output at zero in place. Returns ``(out,
    cache)`` where ``cache`` feeds :func:`batchnorm_backward`.
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
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean.copy(), running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    shape = (1, c, 1, 1)
    out = x * scale.reshape(shape)
    out += (beta - mean * scale).reshape(shape)
    if relu:
        np.maximum(out, 0.0, out=out)
    cache = (x, mean, inv_std, scale, out if relu else None, count, training)
    return out, cache


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
# Pointwise layers, pooling, linear, loss
# ---------------------------------------------------------------------------


def global_avg_pool_forward(x: np.ndarray) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects a 4-D input, got {x.ndim}-D")
    return x.mean(axis=(2, 3))


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]) -> np.ndarray:
    if x.ndim != 2:
        raise ShapeError(f"linear expects a 2-D input, got {x.ndim}-D")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(
            f"linear input features {x.shape[1]} do not match weight rows {weight.shape[0]}"
        )
    out = x @ weight
    _tally(x.shape[0] * weight.shape[0] * weight.shape[1])
    if bias is not None:
        out = out + bias
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of 2-D logits, stabilized by subtracting each row's maximum."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy_forward(logits: np.ndarray, labels: np.ndarray):
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
    log_probs = log_softmax(logits)
    loss = -log_probs[np.arange(b), labels].mean()
    return loss, np.exp(log_probs)


# ---------------------------------------------------------------------------
# Taped operations on Tensors
# ---------------------------------------------------------------------------


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward) -> Tensor:
    tape = GradientTape.active()
    if tape is not None and any(t.needs_grad() for t in inputs):
        tape.record(out, backward)
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor], spec: ConvSpec) -> Tensor:
    out = Tensor(conv2d_forward(x.data, kernel.data, bias.data if bias is not None else None, spec))
    need_x = x.needs_grad()
    need_b = bias is not None and bias.needs_grad()

    def backward(gout: np.ndarray) -> None:
        gx, gk, gb = conv2d_backward(
            gout, x.data, kernel.data, spec,
            need_input_grad=need_x, need_bias_grad=need_b,
        )
        if need_x:
            x.accumulate_grad(gx, own=True)
        if kernel.needs_grad():
            kernel.accumulate_grad(gk, own=True)
        if need_b:
            bias.accumulate_grad(gb, own=True)

    inputs = [x, kernel] if bias is None else [x, kernel, bias]
    return _maybe_record(out, inputs, backward)


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float = 1e-5,
    momentum: float = 0.1,
    relu: bool = False,
) -> Tensor:
    """Batch normalization, optionally followed by ReLU as one taped operation."""
    out_data, cache = batchnorm_forward(
        x.data, gamma.data, beta.data, running_mean, running_var, training, eps, momentum,
        relu,
    )
    out = Tensor(out_data)

    def backward(gout: np.ndarray) -> None:
        dx, dgamma, dbeta = batchnorm_backward(gout, cache)
        if x.needs_grad():
            x.accumulate_grad(dx, own=True)
        if gamma.needs_grad():
            gamma.accumulate_grad(dgamma, own=True)
        if beta.needs_grad():
            beta.accumulate_grad(dbeta, own=True)

    return _maybe_record(out, [x, gamma, beta], backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(gout: np.ndarray) -> None:
        x.accumulate_grad(gout * (out.data > 0), own=True)

    return _maybe_record(out, [x], backward)


def global_avg_pool(x: Tensor) -> Tensor:
    out = Tensor(global_avg_pool_forward(x.data))
    _, _, h, w = x.data.shape

    def backward(gout: np.ndarray) -> None:
        g = np.empty_like(x.data)
        g[...] = gout[:, :, None, None] / (h * w)
        x.accumulate_grad(g, own=True)

    return _maybe_record(out, [x], backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    out = Tensor(linear_forward(x.data, weight.data, bias.data if bias is not None else None))

    def backward(gout: np.ndarray) -> None:
        if x.needs_grad():
            x.accumulate_grad(gout @ weight.data.T, own=True)
        if weight.needs_grad():
            weight.accumulate_grad(x.data.T @ gout, own=True)
        if bias is not None and bias.needs_grad():
            bias.accumulate_grad(gout.sum(axis=0), own=True)

    inputs = [x, weight] if bias is None else [x, weight, bias]
    return _maybe_record(out, inputs, backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    loss_val, probs = softmax_cross_entropy_forward(logits.data, labels)
    loss = Tensor(loss_val)
    b, c = logits.data.shape

    def backward(gout: np.ndarray) -> None:
        g = probs.copy()
        g[np.arange(b), labels] -= 1.0
        g *= float(gout) / b
        logits.accumulate_grad(g, own=True)

    _maybe_record(loss, [logits], backward)
    return loss, probs


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)

    def backward(gout: np.ndarray) -> None:
        if a.needs_grad():
            a.accumulate_grad(gout)
        if b.needs_grad():
            b.accumulate_grad(gout)

    return _maybe_record(out, [a, b], backward)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along the feature axis."""
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.data.shape[1] for p in parts]

    def backward(gout: np.ndarray) -> None:
        offset = 0
        for p, width in zip(parts, widths):
            if p.needs_grad():
                p.accumulate_grad(np.ascontiguousarray(gout[:, offset:offset + width]), own=True)
            offset += width

    return _maybe_record(out, list(parts), backward)


def mean_scalar(x: Tensor) -> Tensor:
    """Mean of all elements; convenient scalar head for gradient checks."""
    out = Tensor(x.data.mean())

    def backward(gout: np.ndarray) -> None:
        x.accumulate_grad(np.full_like(x.data, float(gout) / x.data.size), own=True)

    return _maybe_record(out, [x], backward)
