"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written as plain scalar loops with no
shared code with the package under test, so that agreement between the two is
meaningful. These were written before the vectorized implementations.
"""

import math

import numpy as np


def conv2d_reference(x, kernel, bias, *, mode, stride=1, padding=(0, 0), dilation=1):
    """Direct six-nested-loop 2-D convolution (cross-correlation orientation).

    x: (B, M, H, W); kernel: standard (N, M, K, K), depthwise (M, 1, K, K),
    pointwise (N, M, 1, 1). Returns (B, N, H', W') with
    H' = floor((H + 2*ph - d*(K-1) - 1)/s) + 1.
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    b, m, h, w = x.shape
    ph, pw = padding
    k = kernel.shape[-1]
    ext = dilation * (k - 1) + 1
    ho = (h + 2 * ph - ext) // stride + 1
    wo = (w + 2 * pw - ext) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("kernel does not fit padded input")

    xp = np.zeros((b, m, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + w] = x

    n = m if mode == "depthwise" else kernel.shape[0]
    out = np.zeros((b, n, ho, wo), dtype=np.float64)
    for bi in range(b):
        for ni in range(n):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            ii = oi * stride + ki * dilation
                            jj = oj * stride + kj * dilation
                            if mode == "depthwise":
                                acc += kernel[ni, 0, ki, kj] * xp[bi, ni, ii, jj]
                            else:
                                for mi in range(m):
                                    acc += kernel[ni, mi, ki, kj] * xp[bi, mi, ii, jj]
                    if bias is not None:
                        acc += bias[ni]
                    out[bi, ni, oi, oj] = acc
    return out


def oracle_gradients(gout, x, kernel, spec):
    """Gradients of <gout, conv(x, kernel) + bias> from the nested-loop oracle.

    The layer is linear in each of x, kernel and bias, so each gradient
    coordinate is the oracle's response to a unit basis tensor, dotted with
    gout.
    """
    def response(x_, k_, b_):
        out = conv2d_reference(x_, k_, b_, mode=spec.mode, stride=spec.stride,
                               padding=spec.pad, dilation=spec.dilation)
        return float(np.sum(out * gout))

    def basis_grad(shape, probe):
        grad = np.zeros(shape)
        for idx in np.ndindex(*shape):
            unit = np.zeros(shape)
            unit[idx] = 1.0
            grad[idx] = probe(unit)
        return grad

    gx = basis_grad(x.shape, lambda u: response(u, kernel, None))
    gk = basis_grad(kernel.shape, lambda u: response(x, u, None))
    zero = np.zeros_like(x)
    gb = basis_grad((spec.out_channels,), lambda u: response(zero, kernel, u))
    return gx, gk, gb


def delta_reference(static, window):
    """Regression deltas over +/-window frames with edge replication.

    d[t] = sum_k k * (x[t+k] - x[t-k]) / (2 * sum_k k^2), indices clamped
    to the valid frame range.
    """
    static = np.asarray(static, dtype=np.float64)
    bins, frames = static.shape
    denom = 2.0 * sum(k * k for k in range(1, window + 1))
    out = np.zeros_like(static)
    for i in range(bins):
        for t in range(frames):
            acc = 0.0
            for k in range(1, window + 1):
                right = static[i, min(t + k, frames - 1)]
                left = static[i, max(t - k, 0)]
                acc += k * (right - left)
            out[i, t] = acc / denom
    return out


def batchnorm_eval_reference(x, gamma, beta, running_mean, running_var, eps):
    """Per-channel eval-mode normalization recomputed with scalar arithmetic."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    b, c, h, w = x.shape
    for ci in range(c):
        scale = gamma[ci] / math.sqrt(running_var[ci] + eps)
        shift = beta[ci] - running_mean[ci] * scale
        for bi in range(b):
            for i in range(h):
                for j in range(w):
                    out[bi, ci, i, j] = x[bi, ci, i, j] * scale + shift
    return out


def nearest_centroid_accuracy(train_x, train_y, test_x, test_y, num_classes):
    """Linear baseline: classify by nearest class centroid (euclidean)."""
    centroids = np.stack(
        [train_x[train_y == c].mean(axis=0) for c in range(num_classes)]
    )
    dists = ((test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = dists.argmin(axis=1)
    return float((pred == test_y).mean())
