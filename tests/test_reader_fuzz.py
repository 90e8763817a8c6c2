"""Fuzzing the file readers: truncated and bit-flipped DACF, WAV, DACM and manifest
files, and mutated run-config documents.

Whatever the damage, the readers may only raise ``DacnetError`` subclasses,
which the CLI turns into documented exit codes; anything else is a stray
traceback. What they return must still meet their contract.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacnet import BlockSpec, DacnetError, FrontendConfig, NetworkConfig, build_network, wav
from dacnet.data import (
    LABELS,
    SEGMENT_SAMPLES,
    SPLITS,
    DatasetManifest,
    FeatureCache,
    ManifestRow,
    load_manifest,
    load_segment,
    write_manifest,
)
from dacnet.frontend import check_feature, compute_features, read_feature, write_feature
from dacnet.network import Model
from dacnet.presets import SECTIONS, RunConfig, preset_dict

CFG = FrontendConfig()
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A valid 10 s WAV and the DACF cache entry it gives, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    audio = np.random.default_rng(0).uniform(-0.5, 0.5, SEGMENT_SAMPLES)
    wav.write_wav(root / "a.wav", 16000, audio)
    write_feature(root / "a.dacf", compute_features(load_segment(root / "a.wav"), CFG))
    return root, (root / "a.wav").read_bytes(), (root / "a.dacf").read_bytes()


@st.composite
def damaged(draw, size):
    """(kind, position, value): a cut, a flipped bit or a rewritten header byte.

    Cuts and flips land anywhere, but half of them in the first 64 bytes,
    where the headers are. A single flip cannot reach most field values (no
    flip of 3 or 28 gives 0), so one header byte may also take any value.
    """
    kind = draw(st.sampled_from(["truncate", "flip", "byte"]))
    if kind == "byte":
        return kind, draw(st.integers(0, 63)), draw(st.integers(0, 255))
    span = size if kind == "truncate" else 8 * size
    head = 64 if kind == "truncate" else 8 * 64
    return kind, draw(st.one_of(st.integers(0, head - 1), st.integers(0, span - 1))), None


def damage(raw, kind, position, value):
    if kind == "truncate":
        return raw[:position]
    out = bytearray(raw)
    if kind == "byte":
        out[position] = value
    else:
        out[position // 8] ^= 1 << (position % 8)
    return bytes(out)


def outcome(call):
    try:
        return call()
    except DacnetError as exc:
        return exc


@FUZZ
@given(st.data())
def test_damaged_feature_files(originals, data):
    root, _, good = originals
    kind, position, value = data.draw(damaged(len(good)))
    path = root / "fuzz.dacf"
    path.write_bytes(damage(good, kind, position, value))

    checked = outcome(lambda: check_feature(path, CFG.fingerprint()))
    read = outcome(lambda: read_feature(path, CFG.fingerprint()))
    assert isinstance(checked, DacnetError) == isinstance(read, DacnetError)
    if isinstance(read, DacnetError):
        assert str(checked) == str(read)
    else:
        assert read.values.shape == (3, CFG.mel_bins, CFG.n_frames(SEGMENT_SAMPLES))

    cache = FeatureCache(root / "cache", CFG)
    manifest = DatasetManifest(root=root, rows=[ManifestRow("a.wav", "Cooking", "train")])
    cache.path_for("a.wav").write_bytes(path.read_bytes())
    loaded = outcome(lambda: cache.load_split(manifest, "train"))
    assert isinstance(loaded, DacnetError) == isinstance(read, DacnetError)
    if not isinstance(loaded, DacnetError):
        assert loaded[0][0].tobytes() == read.values.tobytes()


@FUZZ
@given(st.data())
def test_damaged_wav_files(originals, data):
    root, good, _ = originals
    kind, position, value = data.draw(damaged(len(good)))
    path = root / "fuzz.wav"
    path.write_bytes(damage(good, kind, position, value))

    outcome(lambda: wav.read_wav(path))
    samples = outcome(lambda: load_segment(path))
    if not isinstance(samples, DacnetError):
        assert samples.shape == (SEGMENT_SAMPLES,) and samples.dtype == np.float64
        assert compute_features(samples, CFG).values.shape[2] == CFG.n_frames(SEGMENT_SAMPLES)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A directory and the bytes of a DACM file of a small network."""
    config = NetworkConfig(stem_channels=4, blocks=(BlockSpec(4, 4, 1, 1, 1, 2),
                                                    BlockSpec(4, 4, 1, 2, 1, 2)),
                           mse_projection_channels=4)
    root = tmp_path_factory.mktemp("fuzz")
    build_network(config, 0).save(root / "model.dacm")
    return root, (root / "model.dacm").read_bytes()


@FUZZ
@given(st.data())
def test_damaged_checkpoints(checkpoint, data):
    root, good = checkpoint
    kind, position, value = data.draw(damaged(len(good)))
    path = root / "fuzz.dacm"
    raw = damage(good, kind, position, value)
    path.write_bytes(raw)

    model = outcome(lambda: Model.load(path))
    if not isinstance(model, DacnetError):
        assert model.arena.tobytes() == raw[len(raw) - model.arena.nbytes:]


@pytest.fixture(scope="module")
def manifest_file(tmp_path_factory):
    """A manifest of three existing segments, as (directory, bytes)."""
    root = tmp_path_factory.mktemp("fuzz")
    rows = [ManifestRow(f"s{i}.wav", LABELS[i], SPLITS[i]) for i in range(3)]
    for row in rows:
        (root / row.path).touch()
    write_manifest(DatasetManifest(root, rows), root / "manifest.csv")
    return root, (root / "manifest.csv").read_bytes()


@FUZZ
@given(st.data())
def test_damaged_manifests(manifest_file, data):
    root, good = manifest_file
    kind, position, value = data.draw(damaged(len(good)))
    path = root / "manifest.csv"
    path.write_bytes(damage(good, kind, position, value))

    manifest = outcome(lambda: load_manifest(path))
    if not isinstance(manifest, DacnetError):
        assert manifest.root == root
        for row in manifest.rows:
            assert (root / row.path).exists() and row.label in LABELS and row.split in SPLITS


# Every JSON value kind. Numbers, which pass the type checks most often and
# so reach the range checks and arithmetic behind them, are drawn three times
# as often as the other kinds; integers stay small because ``instances()``
# makes one object per ``repeats``.
NUMBERS = (st.integers(-3, 64), st.floats())
JSON_SCALARS = (st.none(), st.booleans(), *NUMBERS, st.text(max_size=6))
JSON_VALUES = st.one_of(
    *JSON_SCALARS, *NUMBERS, *NUMBERS,
    st.lists(st.one_of(*JSON_SCALARS, st.lists(st.integers(-3, 64), max_size=7)), max_size=6),
    st.dictionaries(st.text(max_size=6), st.one_of(*JSON_SCALARS), max_size=3),
)


@st.composite
def mutated_run_config(draw, section):
    """The toy preset document with one field of ``section`` replaced, a key
    dropped or added, or ``section`` replaced by a value that is not an object."""
    doc = preset_dict("toy")
    # Replacements, the largest space, get four draws in seven.
    kind = draw(st.sampled_from(["replace"] * 4 + ["drop", "add", "section"]))
    if kind == "replace":
        name = draw(st.sampled_from([f.name for f in fields(SECTIONS[section])]))
        doc[section][name] = draw(JSON_VALUES)
    elif kind == "drop":
        node = draw(st.sampled_from([doc, doc["network"]]))
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "add":
        node = draw(st.sampled_from([doc, doc[section]]))
        node[draw(st.text(max_size=8))] = draw(JSON_VALUES)
    else:
        doc[section] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    return doc


@pytest.mark.parametrize("section", sorted(SECTIONS))
@FUZZ
@given(data=st.data())
def test_mutated_run_configs(section, data):
    doc = data.draw(mutated_run_config(section))

    def read():
        run = RunConfig.from_dict(doc)
        run.network.validate()
        assert run.frontend.n_frames(SEGMENT_SAMPLES) >= 1
        return run

    run = outcome(read)
    if not isinstance(run, DacnetError):  # what is read echoes to the same bytes
        echo = run.to_json()
        assert RunConfig.from_dict(json.loads(echo)).to_json() == echo
