"""Correctness checks the benchmark applies to each workload's outputs.

Every check compares the program's output with a computation made apart from
the program or with a property the method must have, never with a saved copy
of an earlier output. Each returns a list of failure messages (empty when the
check passes), so a run can report every broken property at once.

The feature oracle below shares no code with ``dacnet.frontend``: it reads
the WAV with the standard library's ``wave`` module, writes the periodic Hann
window as sin^2, builds the triangular mel filters with scalar loops, and
computes regression deltas with explicit edge clamping.
"""

from __future__ import annotations

import math
import wave

import numpy as np


def check_macs(counted: int, analytic_per_sample: int, batch: int) -> list[str]:
    """Executed forward MACs at ``batch`` equal the analytic per-sample total x batch."""
    expected = analytic_per_sample * batch
    if counted != expected:
        return [f"count_macs gave {counted} forward MACs at batch {batch}, "
                f"analyze_network x batch gives {expected}"]
    return []


def check_loss_falls(epoch_losses: list[float]) -> list[str]:
    """Mean training losses are finite, and the last is below the first."""
    if len(epoch_losses) < 2:
        return [f"need at least two epoch losses, got {len(epoch_losses)}"]
    if not all(math.isfinite(v) for v in epoch_losses):
        return [f"non-finite training loss in {epoch_losses}"]
    if not epoch_losses[-1] < epoch_losses[0]:
        return [f"training loss did not fall: {epoch_losses}"]
    return []


def check_batch_independence(batched: np.ndarray, single: np.ndarray,
                             tol: float = 1e-9) -> list[str]:
    """Eval-mode logits of a batch equal the logits of each segment alone."""
    if batched.shape != single.shape:
        return [f"batched logits {batched.shape} vs per-segment {single.shape}"]
    err = float(np.max(np.abs(batched - single)))
    if not err <= tol:
        return [f"batched and per-segment logits differ by {err:.3e} (> {tol:g})"]
    return []


def check_accuracy(reported: float, logits: np.ndarray, labels: np.ndarray) -> list[str]:
    """The accuracy ``evaluate`` reports equals argmax accuracy over ``logits``."""
    own = float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))
    if reported != own:
        return [f"evaluate reported accuracy {reported!r}, argmax of logits gives {own!r}"]
    return []


def check_cache_passes(cold: tuple[int, int], warm: tuple[int, int], n: int) -> list[str]:
    """The cold pass computes every segment; the warm pass computes none.

    ``cold`` and ``warm`` are (computed, reused) as ``FeatureCache.ensure``
    reports them.
    """
    errors = []
    if cold != (n, 0):
        errors.append(f"cold pass computed/reused {cold}, expected ({n}, 0)")
    if warm != (0, n):
        errors.append(f"warm pass computed/reused {warm}, expected (0, {n})")
    return errors


def check_identical(name: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    """Two arrays are bit-identical (same shape, dtype and bytes)."""
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return [f"{name}: arrays are not bit-identical"]
    return []


def check_features(name: str, values: np.ndarray, reference: np.ndarray,
                   n_samples: int, frame: int, hop: int, tol: float = 1e-9) -> list[str]:
    """Features match the oracle, and the frame count is (n - frame) // hop + 1."""
    frames = (n_samples - frame) // hop + 1
    if values.shape[-1] != frames:
        return [f"{name}: {values.shape[-1]} frames, (n - frame) // hop + 1 gives {frames}"]
    if values.shape != reference.shape:
        return [f"{name}: shape {values.shape} vs oracle {reference.shape}"]
    err = float(np.max(np.abs(values - reference) / (1.0 + np.abs(reference))))
    if not err <= tol:
        return [f"{name}: features differ from the oracle by {err:.3e} (> {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# Independent log-Mel + delta oracle
# ---------------------------------------------------------------------------


def read_pcm16(path) -> tuple[int, np.ndarray]:
    """(sample rate, samples scaled to [-1, 1)) of a mono 16-bit PCM WAV."""
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: oracle reads mono 16-bit PCM only")
        raw = fh.readframes(fh.getnframes())
        return fh.getframerate(), np.frombuffer(raw, dtype="<i2") / 32768.0


def _mel(f: float) -> float:
    return 2595.0 * math.log10(1.0 + f / 700.0)


def _inv_mel(m: float) -> float:
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mel_triangles(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    """HTK-mel triangles, edges rounded to FFT bins, linear in bin index."""
    top = _mel(sample_rate / 2.0)
    edges = [round(_inv_mel(top * i / (n_mels + 1)) * fft_size / sample_rate)
             for i in range(n_mels + 2)]
    fb = np.zeros((n_mels, fft_size // 2 + 1))
    for i in range(n_mels):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        for k in range(lo, hi + 1):
            if k <= mid:
                fb[i, k] = (k - lo) / (mid - lo)
            elif k < hi:
                fb[i, k] = (hi - k) / (hi - mid)
    return fb


def regression_delta(c: np.ndarray, window: int) -> np.ndarray:
    """d[t] = sum_k k (c[t+k] - c[t-k]) / (2 sum_k k^2), indices clamped to the edges."""
    frames = c.shape[1]
    out = np.zeros_like(c)
    norm = 2.0 * sum(k * k for k in range(1, window + 1))
    for t in range(frames):
        acc = np.zeros(c.shape[0])
        for k in range(1, window + 1):
            acc += k * (c[:, min(t + k, frames - 1)] - c[:, max(t - k, 0)])
        out[:, t] = acc / norm
    return out


def logmel_deltas(samples: np.ndarray, sample_rate: int, frame: int, hop: int,
                  fft_size: int, n_mels: int, window: int, floor: float) -> np.ndarray:
    """(3, n_mels, frames): log-Mel energies, their delta and delta-delta."""
    frames = (len(samples) - frame) // hop + 1
    hann = np.sin(np.pi * np.arange(frame) / frame) ** 2
    fb = mel_triangles(sample_rate, fft_size, n_mels)
    static = np.empty((n_mels, frames))
    for t in range(frames):
        spectrum = np.fft.rfft(samples[t * hop:t * hop + frame] * hann, n=fft_size)
        static[:, t] = np.log(np.maximum(fb @ np.abs(spectrum) ** 2, floor))
    d1 = regression_delta(static, window)
    return np.stack([static, d1, regression_delta(d1, window)])
