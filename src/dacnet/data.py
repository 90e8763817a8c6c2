"""Dataset manifests, the synthetic 9-class corpus, and the feature cache.

A manifest is a CSV with header ``path,label,split``; paths are relative to
the manifest's directory, labels come from the fixed 9-class set, splits are
train/validation/test. Segments are expected to be 10 s at 16 kHz: longer
files are center-cropped to exactly 10 s, files up to one frame short are
zero-padded at the end to exactly 10 s, anything shorter is rejected, and
multichannel audio uses channel 0 only. Every segment thus gives the same
number of frames.

The feature cache lays out one "DACF" file per segment under
``<cache_root>/<config fingerprint>/<sha256(relative path)[:24]>.dacf`` so a
changed frontend configuration never collides with stale features.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from . import wav
from .errors import ConfigError, DataError
from .fileio import write_atomic
from .frontend import (
    FrontendConfig,
    check_feature,
    compute_features,
    read_feature,
    write_feature,
)
from .parallel import parallel_map

LABELS = (
    "Absence",
    "Cooking",
    "Dishwashing",
    "Eating",
    "Others",
    "Social activity",
    "Vacuum cleaning",
    "Watching TV",
    "Working",
)
SPLITS = ("train", "validation", "test")

SAMPLE_RATE = 16000
SEGMENT_SECONDS = 10.0
SEGMENT_SAMPLES = int(SAMPLE_RATE * SEGMENT_SECONDS)


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    split: str

    @property
    def label_index(self) -> int:
        return LABELS.index(self.label)


@dataclass
class DatasetManifest:
    root: Path
    rows: list[ManifestRow]

    def split(self, name: str) -> list[ManifestRow]:
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}; choose from {SPLITS}")
        return [r for r in self.rows if r.split == name]

    def counts(self) -> dict[str, dict[str, int]]:
        out = {s: {label: 0 for label in LABELS} for s in SPLITS}
        for r in self.rows:
            out[r.split][r.label] += 1
        return out

    def split_totals(self) -> dict[str, int]:
        totals = {s: 0 for s in SPLITS}
        for r in self.rows:
            totals[r.split] += 1
        return totals


def load_manifest(path: str | Path, check_files: bool = True) -> DatasetManifest:
    """Parse and validate a manifest CSV; errors carry the offending row number."""
    path = Path(path)
    try:
        text = path.read_bytes().decode()
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not UTF-8: {exc}") from exc
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    base = os.fspath(path.parent)  # os.path, not a Path per row: ~2.5x faster on 360 rows
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != ["path", "label", "split"]:
        raise DataError(f"{path}: expected header 'path,label,split', got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        rel, label, split = (field.strip() for field in row)
        if label not in LABELS:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: unknown split {split!r}")
        if rel in seen:
            raise DataError(f"{path}:{lineno}: duplicate path {rel!r}")
        seen.add(rel)
        if check_files and not os.path.exists(os.path.join(base, rel)):
            raise DataError(f"{path}:{lineno}: missing audio file {rel!r}")
        rows.append(ManifestRow(rel, label, split))
    return DatasetManifest(root=path.parent, rows=rows)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["path", "label", "split"])
    for r in manifest.rows:
        writer.writerow([r.path, r.label, r.split])
    write_atomic(path, [text.getvalue().encode()])


def load_segment(path: str | Path) -> np.ndarray:
    """Read one audio segment as exactly ``SEGMENT_SAMPLES`` samples (10 s at 16 kHz)."""
    sr, samples = wav.read_wav(path)
    if sr != SAMPLE_RATE:
        raise DataError(f"{path}: sample rate {sr} Hz, expected {SAMPLE_RATE} Hz")
    frame = int(SAMPLE_RATE * 0.040)
    if samples.size < SEGMENT_SAMPLES - frame:
        raise DataError(
            f"{path}: {samples.size} samples is more than one frame short of "
            f"the {SEGMENT_SAMPLES}-sample segment"
        )
    if samples.size > SEGMENT_SAMPLES:
        start = (samples.size - SEGMENT_SAMPLES) // 2
        samples = samples[start:start + SEGMENT_SAMPLES]
    elif samples.size < SEGMENT_SAMPLES:
        samples = np.pad(samples, (0, SEGMENT_SAMPLES - samples.size))
    return samples


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

# Per-class generative parameters: tone frequencies (Hz), band-noise edges
# (Hz), and amplitude-modulation rate (Hz). Pairwise distinct by construction
# so the classes are separable.
CLASS_SIGNATURES = (
    ((220.0, 440.0), (2000.0, 2600.0), 0.0),
    ((330.0, 660.0), (2600.0, 3200.0), 1.0),
    ((470.0, 940.0), (3200.0, 3800.0), 2.0),
    ((620.0, 1240.0), (3800.0, 4400.0), 3.0),
    ((790.0, 1580.0), (4400.0, 5000.0), 4.0),
    ((980.0, 1960.0), (5000.0, 5600.0), 5.0),
    ((1190.0, 2380.0), (5600.0, 6200.0), 6.0),
    ((1420.0, 2840.0), (6200.0, 6800.0), 7.0),
    ((1670.0, 3340.0), (6800.0, 7400.0), 8.0),
)


@dataclass(frozen=True)
class SyntheticSpec:
    train_per_class: int = 60
    validation_per_class: int = 0
    test_per_class: int = 20
    seed: int = 0

    def __post_init__(self):
        if min(self.train_per_class, self.validation_per_class, self.test_per_class) < 0:
            raise ConfigError("per-class segment counts must be non-negative")
        signatures = set(CLASS_SIGNATURES)
        if len(signatures) != len(LABELS):
            raise ConfigError("class signatures must be pairwise distinct")

    def per_split(self) -> dict[str, int]:
        return {
            "train": self.train_per_class,
            "validation": self.validation_per_class,
            "test": self.test_per_class,
        }


def _synthesize_segment(class_index: int, rng: np.random.Generator) -> np.ndarray:
    tones, (band_lo, band_hi), am_rate = CLASS_SIGNATURES[class_index]
    t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
    signal = np.zeros(SEGMENT_SAMPLES)
    for f in tones:
        amp = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += amp * np.sin(2.0 * np.pi * f * t + phase)
    if am_rate > 0:
        depth = rng.uniform(0.3, 0.5)
        signal *= 1.0 - depth + depth * np.sin(2.0 * np.pi * am_rate * t)

    noise = rng.standard_normal(SEGMENT_SAMPLES)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(SEGMENT_SAMPLES, 1.0 / SAMPLE_RATE)
    spectrum[(freqs < band_lo) | (freqs > band_hi)] = 0.0
    band_noise = np.fft.irfft(spectrum, n=SEGMENT_SAMPLES)
    band_noise /= max(np.abs(band_noise).max(), 1e-12)
    signal += rng.uniform(0.2, 0.4) * band_noise

    signal += 0.01 * rng.standard_normal(SEGMENT_SAMPLES)
    return 0.8 * signal / max(np.abs(signal).max(), 1e-12)


def generate_synthetic(
    spec: SyntheticSpec, out_dir: str | Path, workers: int = 1
) -> DatasetManifest:
    """Write a deterministic on-disk corpus plus its manifest.

    Each file's random stream is derived from (seed, class, split, index), so
    identical specs produce bit-identical corpora for any worker count.
    """
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)

    jobs = []
    rows: list[ManifestRow] = []
    for ci, label in enumerate(LABELS):
        slug = label.lower().replace(" ", "_")
        for si, (split, count) in enumerate(spec.per_split().items()):
            for k in range(count):
                rel = f"audio/{slug}_{split}_{k:04d}.wav"
                rows.append(ManifestRow(rel, label, split))
                jobs.append((rel, ci, si, k))

    def render(job):
        rel, ci, si, k = job
        rng = np.random.default_rng((spec.seed, ci, si, k))
        wav.write_wav(out_dir / rel, SAMPLE_RATE, _synthesize_segment(ci, rng))

    parallel_map(render, jobs, workers)
    manifest = DatasetManifest(root=out_dir, rows=rows)
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest


# ---------------------------------------------------------------------------
# Feature cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    computed: int = 0
    reused: int = 0


class FeatureCache:
    def __init__(self, root: str | Path, config: FrontendConfig):
        if config.sample_rate != SAMPLE_RATE:
            raise ConfigError(f"frontend sample_rate {config.sample_rate} Hz does not match "
                              f"the corpus rate of {SAMPLE_RATE} Hz")
        self.config = config
        self.fingerprint = config.fingerprint()
        self.root = Path(root) / self.fingerprint
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, relpath: str) -> Path:
        digest = hashlib.sha256(relpath.encode()).hexdigest()[:24]
        return self.root / f"{digest}.dacf"

    def _compute_one(self, manifest_root: Path, row: ManifestRow) -> int:
        """Returns 1 if the feature was (re)computed, 0 on a cache hit."""
        target = self.path_for(row.path)
        try:
            check_feature(target, expected_fingerprint=self.fingerprint)
            return 0
        except (FileNotFoundError, DataError):
            pass  # missing, corrupted or stale: recompute below
        samples = load_segment(manifest_root / row.path)
        write_feature(target, compute_features(samples, self.config))
        return 1

    def ensure(self, manifest: DatasetManifest, workers: int = 1) -> CacheStats:
        """Compute any missing/stale features; per-file failures are collected."""
        failures: list[str] = []

        def job(row: ManifestRow) -> int:
            try:
                return self._compute_one(manifest.root, row)
            except DataError as exc:
                failures.append(str(exc))
                return 0

        computed = sum(parallel_map(job, manifest.rows, workers))
        if failures:
            listing = "\n  ".join(sorted(failures))
            raise DataError(f"{len(failures)} feature extraction failures:\n  {listing}")
        return CacheStats(computed=computed, reused=len(manifest.rows) - computed)

    def load_split(
        self, manifest: DatasetManifest, split: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """One split's features as (n, 3, mel, frames) plus labels.

        Each cache entry is read straight into its own slot; an entry of
        another shape (a stale or foreign file) is a ``DataError``.
        """
        rows = manifest.split(split)
        if not rows:
            raise DataError(f"manifest has no rows in split {split!r}")
        frames = self.config.n_frames(SEGMENT_SAMPLES)
        values = np.empty((len(rows), 3, self.config.mel_bins, frames), dtype="<f8")
        for row, slot in zip(rows, values):
            read_feature(self.path_for(row.path), self.fingerprint, out=slot)
        labels = np.array([r.label_index for r in rows], dtype=np.int64)
        return values, labels
