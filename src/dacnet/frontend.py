"""Audio frontend: framed power spectra, log-Mel projection, delta stacking.

Produces the 3-channel input consumed by the network: channel 0 is the
log-Mel spectrogram, channel 1 its regression delta, channel 2 the delta of
the delta.

Feature files ("DACF") are flat binary records:

    bytes 0..3    magic "DACF"
    byte  4       version (currently 1)
    bytes 5..20   config fingerprint (16 bytes)
    bytes 21..32  shape triple, three little-endian uint32
    remainder     float64 little-endian values, row-major
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .fileio import write_atomic
from .validation import check_fields

DACF_MAGIC = b"DACF"
DACF_VERSION = 1
DACF_HEADER_BYTES = 33


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 16000
    frame_ms: float = 40.0
    hop_ms: float = 20.0
    mel_bins: int = 28
    fft_size: int = 1024
    delta_window: int = 2
    log_floor: float = 1e-10

    def __post_init__(self):
        check_fields(self, positive=("delta_window",))
        if self.hop_ms > self.frame_ms:
            raise ConfigError(f"hop ({self.hop_ms} ms) must not exceed frame ({self.frame_ms} ms)")
        try:
            spans = (self.frame_samples, self.hop_samples)
        except OverflowError:  # more samples than a float holds
            spans = (0,)
        if min(spans) < 1:
            raise ConfigError(f"frame_ms {self.frame_ms} and hop_ms {self.hop_ms} must each span "
                              f"1 to finitely many samples at sample_rate {self.sample_rate}")
        if self.fft_size < self.frame_samples:
            raise ConfigError(
                f"fft_size {self.fft_size} smaller than frame of {self.frame_samples} samples"
            )
        if self.mel_bins < 2:
            raise ConfigError(f"mel_bins must be >= 2, got {self.mel_bins}")

    @property
    def frame_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_ms / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.frame_samples:
            raise DataError(
                f"audio of {n_samples} samples is shorter than one {self.frame_samples}-sample frame"
            )
        return (n_samples - self.frame_samples) // self.hop_samples + 1

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:32]


@dataclass
class LogMelFeature:
    """3-channel log-Mel feature block plus the fingerprint that produced it."""

    values: np.ndarray  # (3, mel_bins, n_frames)
    fingerprint: str


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_power(audio: np.ndarray, config: FrontendConfig) -> np.ndarray:
    """Windowed power spectrogram, shape (fft_bins, n_frames).

    The hop-strided frames are windowed straight into one zeroed
    ``(frames, fft_size)`` buffer, so the FFT pads nothing, and the spectrum
    is squared in place through its float64 (real, imaginary) view.
    """
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 1:
        raise ShapeError(f"stft_power expects 1-D audio, got {audio.ndim}-D")
    frame, hop = config.frame_samples, config.hop_samples
    frames = config.n_frames(audio.size)
    windows = np.lib.stride_tricks.sliding_window_view(audio, frame)[::hop][:frames]
    buffer = np.zeros((frames, config.fft_size))
    np.multiply(windows, hann_window(frame), out=buffer[:, :frame])
    parts = np.fft.rfft(buffer, axis=1).view(np.float64)
    np.square(parts, out=parts)
    return (parts[:, 0::2] + parts[:, 1::2]).T


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FrontendConfig) -> np.ndarray:
    """Triangular filters on the HTK mel scale, spanning 0 to Nyquist.

    Edge frequencies are snapped to FFT bins and the triangles are linear in
    bin index, so each filter peaks at exactly 1 and overlapping rising and
    falling flanks sum to exactly 1 at every interior bin.
    """
    nyquist = config.sample_rate / 2.0
    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), config.mel_bins + 2)
    freqs = mel_to_hz(mels)
    bins = np.rint(freqs * config.fft_size / config.sample_rate).astype(int)
    if np.any(np.diff(bins) < 1):
        raise ConfigError(
            f"{config.mel_bins} mel filters do not fit {config.fft_size // 2 + 1} FFT bins"
        )
    n_bins = config.fft_size // 2 + 1
    fb = np.zeros((config.mel_bins, n_bins), dtype=np.float64)
    for i in range(config.mel_bins):
        lo, center, hi = bins[i], bins[i + 1], bins[i + 2]
        rise = np.arange(lo, center + 1)
        fb[i, rise] = (rise - lo) / (center - lo)
        fall = np.arange(center + 1, hi)
        fb[i, fall] = (hi - fall) / (hi - center)
    return fb


@functools.lru_cache(maxsize=8)
def _shared_filterbank(config: FrontendConfig) -> np.ndarray:
    """The filterbank of ``config``, built once and shared read-only."""
    fb = mel_filterbank(config)
    fb.setflags(write=False)
    return fb


def mel_project_log(power: np.ndarray, config: FrontendConfig) -> np.ndarray:
    """ln(max(filterbank @ power, log_floor)), shape (mel_bins, n_frames)."""
    filterbank = _shared_filterbank(config)
    if power.shape[0] != filterbank.shape[1]:
        raise ShapeError(
            f"power has {power.shape[0]} FFT bins, filterbank expects {filterbank.shape[1]}"
        )
    return np.log(np.maximum(filterbank @ power, config.log_floor))


def delta(features: np.ndarray, window: int, out: np.ndarray | None = None) -> np.ndarray:
    """Regression delta over +/-window frames with edge replication, into ``out`` if given."""
    if window < 1:
        raise ConfigError(f"delta window must be >= 1, got {window}")
    rows, frames = features.shape
    pad = np.empty((rows, frames + 2 * window))
    pad[:, :window] = features[:, :1]
    pad[:, window:window + frames] = features
    pad[:, window + frames:] = features[:, -1:]
    num = np.empty_like(features) if out is None else out
    num[...] = 0.0
    for k in range(1, window + 1):
        num += k * (pad[:, window + k:window + k + frames] - pad[:, window - k:window - k + frames])
    num /= 2.0 * sum(k * k for k in range(1, window + 1))
    return num


def add_deltas(static: np.ndarray, window: int) -> np.ndarray:
    """Stack (static, delta, delta-delta) into a (3, mel_bins, n_frames) block."""
    values = np.empty((3, *static.shape))
    values[0] = static
    delta(static, window, out=values[1])
    delta(values[1], window, out=values[2])
    return values


def compute_features(audio: np.ndarray, config: FrontendConfig) -> LogMelFeature:
    """Full frontend: audio samples to the 3-channel network input."""
    power = stft_power(audio, config)
    values = add_deltas(mel_project_log(power, config), config.delta_window)
    return LogMelFeature(values=values, fingerprint=config.fingerprint())


# ---------------------------------------------------------------------------
# DACF feature files
# ---------------------------------------------------------------------------


def write_feature(path: str | Path, feature: LogMelFeature) -> None:
    values = np.ascontiguousarray(feature.values, dtype="<f8")
    if values.ndim != 3:
        raise ShapeError(f"feature values must be 3-D, got {values.ndim}-D")
    header = DACF_MAGIC + struct.pack("<B", DACF_VERSION)
    header += bytes.fromhex(feature.fingerprint)
    header += struct.pack("<III", *values.shape)
    write_atomic(path, (header, values))


def _read_header(fh, path, expected_fingerprint: str | None) -> tuple[str, tuple[int, int, int]]:
    """Validate the open DACF file's header against its size; return (fingerprint, shape)."""
    header = fh.read(DACF_HEADER_BYTES)
    size = os.fstat(fh.fileno()).st_size
    if len(header) < DACF_HEADER_BYTES or header[:4] != DACF_MAGIC:
        raise DataError(f"{path}: not a DACF feature file")
    (version,) = struct.unpack_from("<B", header, 4)
    if version != DACF_VERSION:
        raise DataError(f"{path}: unsupported DACF version {version}")
    fingerprint = header[5:21].hex()
    shape = struct.unpack_from("<III", header, 21)
    n = shape[0] * shape[1] * shape[2]
    payload = size - DACF_HEADER_BYTES
    if payload != n * 8:
        raise DataError(f"{path}: payload length {payload} does not match shape {shape}")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise DataError(
            f"{path}: fingerprint {fingerprint} does not match expected {expected_fingerprint}"
        )
    return fingerprint, shape


def check_feature(path: str | Path, expected_fingerprint: str | None = None) -> None:
    """Validate a DACF file from its header and size alone, without reading the payload."""
    with open(path, "rb") as fh:
        _read_header(fh, path, expected_fingerprint)


def read_feature(path: str | Path, expected_fingerprint: str | None = None,
                 out: np.ndarray | None = None) -> LogMelFeature:
    """Read a DACF file; the payload goes straight into ``out`` when given.

    ``out`` must be a C-contiguous ``'<f8'`` array of the file's shape;
    another shape is a ``DataError`` that names the file and both shapes.
    """
    with open(path, "rb") as fh:
        fingerprint, shape = _read_header(fh, path, expected_fingerprint)
        if out is None:
            out = np.empty(shape, dtype="<f8")
        elif out.shape != shape:
            raise DataError(f"{path}: feature shape {shape} does not match expected {out.shape}")
        got = fh.readinto(out)
    if got != out.nbytes:
        raise DataError(f"{path}: payload ended after {got} of {out.nbytes} bytes")
    return LogMelFeature(values=out, fingerprint=fingerprint)
