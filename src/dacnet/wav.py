"""Minimal RIFF/WAVE codec: 16-bit PCM and 32-bit IEEE float, mono reads.

Multichannel files are reduced to channel 0. Writing is primarily used by the
synthetic corpus generator and the tests.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .fileio import write_atomic

_PCM = 1
_IEEE_FLOAT = 3


def read_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """Return (sample_rate, float64 samples of channel 0)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if chunk_id in (b"fmt ", b"data") and len(body) < chunk_size:
            raise DataError(
                f"{path}: truncated {chunk_id!r} chunk ({len(body)} of {chunk_size} bytes)"
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DataError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise DataError(f"{path}: invalid channel count {n_channels}")

    if bits in (16, 32) and len(data) % (bits // 8):
        raise DataError(f"{path}: data chunk of {len(data)} bytes is not whole {bits}-bit samples")
    if audio_format == _PCM and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == _IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise DataError(
            f"{path}: unsupported format (format={audio_format}, bits={bits}); "
            "expected 16-bit PCM or 32-bit float"
        )

    if n_channels > 1:
        usable = (samples.size // n_channels) * n_channels
        samples = samples[:usable].reshape(-1, n_channels)[:, 0].copy()
    return sample_rate, samples


def write_wav(path: str | Path, sample_rate: int, samples: np.ndarray, fmt: str = "pcm16") -> None:
    samples = np.asarray(samples, dtype=np.float64)
    if fmt == "pcm16":
        payload = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = _PCM, 16
    elif fmt == "float32":
        payload = samples.astype("<f4").tobytes()
        audio_format, bits = _IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown wav format {fmt!r}")

    block_align = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, sample_rate,
        sample_rate * block_align, block_align, bits,
        b"data", len(payload),
    )
    write_atomic(path, [header, payload])
