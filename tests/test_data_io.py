"""Manifests, the synthetic corpus, and the feature cache."""

import numpy as np
import pytest

from dacnet import DataError, FrontendConfig
from dacnet.data import (
    LABELS,
    CLASS_SIGNATURES,
    DatasetManifest,
    FeatureCache,
    ManifestRow,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    load_segment,
    write_manifest,
)
from dacnet import wav
from oracles import nearest_centroid_accuracy

TRAIN_COUNTS = (10001, 3448, 916, 1369, 1188, 3163, 531, 10353, 10972)
VAL_COUNTS = (2941, 522, 110, 314, 302, 712, 200, 2331, 3120)
TEST_COUNTS = (5918, 1154, 398, 625, 570, 1069, 241, 5964, 4552)


def write_rows(path, rows):
    lines = ["path,label,split"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


class TestManifest:
    def test_round_trip_identity(self, tmp_path):
        rows = [
            ManifestRow("audio/a.wav", "Cooking", "train"),
            ManifestRow("audio/b.wav", "Absence", "test"),
        ]
        manifest = DatasetManifest(root=tmp_path, rows=rows)
        write_manifest(manifest, tmp_path / "manifest.csv")
        back = load_manifest(tmp_path / "manifest.csv", check_files=False)
        assert back.rows == rows

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        from dacnet import fileio
        from test_frontend import _FailingFile

        class _FailsMidChunk(_FailingFile):
            """The manifest is one chunk: write half of it, then fail."""

            def write(self, chunk):
                self.fh.write(chunk[:len(chunk) // 2])
                raise OSError("no space left on device")

        path = tmp_path / "manifest.csv"
        rows = [ManifestRow("audio/a.wav", "Cooking", "train")]
        if existing:
            write_manifest(DatasetManifest(root=tmp_path, rows=rows), path)
        before = path.read_bytes() if existing else None
        monkeypatch.setattr(fileio, "open", _FailsMidChunk, raising=False)
        with pytest.raises(OSError, match="no space"):
            write_manifest(DatasetManifest(root=tmp_path, rows=rows * 2), path)
        assert [p.name for p in tmp_path.iterdir()] == (["manifest.csv"] if existing else [])
        if existing:
            assert path.read_bytes() == before

    def test_unknown_label_rejected_with_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_rows(path, [("a.wav", "Cooking", "train"), ("b.wav", "Sleeping", "train")])
        with pytest.raises(DataError, match=r"m\.csv:3.*Sleeping"):
            load_manifest(path, check_files=False)

    def test_duplicate_path_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_rows(path, [("a.wav", "Cooking", "train"), ("a.wav", "Eating", "test")])
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path, check_files=False)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_rows(path, [("ghost.wav", "Cooking", "train")])
        with pytest.raises(DataError, match="missing audio file"):
            load_manifest(path)

    def test_file_in_subdirectory_found(self, tmp_path):
        (tmp_path / "audio" / "day1").mkdir(parents=True)
        (tmp_path / "audio" / "day1" / "x.wav").write_bytes(b"")
        path = tmp_path / "m.csv"
        write_rows(path, [("audio/day1/x.wav", "Cooking", "train")])
        assert [r.path for r in load_manifest(path).rows] == ["audio/day1/x.wav"]

    def test_trailing_slash_on_a_file_is_missing(self, tmp_path):
        """A row is a file path: ``x.wav/`` names a directory, which is not there."""
        (tmp_path / "audio").mkdir()
        (tmp_path / "audio" / "x.wav").write_bytes(b"")
        path = tmp_path / "m.csv"
        write_rows(path, [("audio/x.wav", "Cooking", "train"), ("audio/x.wav/", "Cooking", "test")])
        with pytest.raises(DataError, match=r"m\.csv:3: missing audio file 'audio/x\.wav/'"):
            load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,class,subset\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(path)

    def test_empty_after_header_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,label,split\n")
        manifest = load_manifest(path)
        assert manifest.rows == []
        assert manifest.split_totals() == {"train": 0, "validation": 0, "test": 0}

    def test_real_corpus_split_totals(self, tmp_path):
        rows = []
        for label, n_train, n_val, n_test in zip(LABELS, TRAIN_COUNTS, VAL_COUNTS, TEST_COUNTS):
            slug = label.replace(" ", "_")
            rows += [(f"{slug}/tr{i}.wav", label, "train") for i in range(n_train)]
            rows += [(f"{slug}/va{i}.wav", label, "validation") for i in range(n_val)]
            rows += [(f"{slug}/te{i}.wav", label, "test") for i in range(n_test)]
        path = tmp_path / "m.csv"
        write_rows(path, rows)
        manifest = load_manifest(path, check_files=False)
        totals = manifest.split_totals()
        assert totals == {"train": 41941, "validation": 10552, "test": 20491}


class TestSegmentLoading:
    def test_longer_file_center_cropped(self, tmp_path):
        samples = np.zeros(161000)
        samples[80500] = 0.5  # midpoint marker survives the crop
        path = tmp_path / "long.wav"
        wav.write_wav(path, 16000, samples)
        out = load_segment(path)
        assert out.size == 160000
        assert out.max() > 0.4

    def test_slightly_short_accepted(self, tmp_path):
        """Up to one frame short: zero-padded at the end, the samples unchanged at the front."""
        path = tmp_path / "short.wav"
        for n in (160000 - 640, 159400, 159999):
            wav.write_wav(path, 16000, np.random.default_rng(n).uniform(0.1, 0.9, n))
            _, original = wav.read_wav(path)
            out = load_segment(path)
            assert out.size == 160000
            assert np.array_equal(out[:n], original)
            assert not out[n:].any()

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "tiny.wav"
        wav.write_wav(path, 16000, np.zeros(150000))
        with pytest.raises(DataError, match="short"):
            load_segment(path)

    def test_wrong_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "sr.wav"
        wav.write_wav(path, 44100, np.zeros(441000))
        with pytest.raises(DataError, match="sample rate"):
            load_segment(path)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec(train_per_class=4, validation_per_class=0,
                         test_per_class=2, seed=7)
    manifest = generate_synthetic(spec, root, workers=2)
    return root, manifest


class TestSyntheticCorpus:
    def test_signatures_pairwise_distinct(self):
        assert len(set(CLASS_SIGNATURES)) == len(LABELS)

    def test_twenty_per_class_gives_180_files(self, tmp_path):
        spec = SyntheticSpec(train_per_class=20, validation_per_class=0,
                             test_per_class=0, seed=0)
        manifest = generate_synthetic(spec, tmp_path / "c", workers=2)
        assert len(manifest.rows) == 180
        sr, samples = wav.read_wav(tmp_path / "c" / manifest.rows[0].path)
        assert sr == 16000 and samples.size == 160_000

    def test_class_balance_matches_spec(self, small_corpus):
        _, manifest = small_corpus
        counts = manifest.counts()
        for label in LABELS:
            assert counts["train"][label] == 4
            assert counts["test"][label] == 2

    def test_same_seed_bit_identical(self, tmp_path):
        spec = SyntheticSpec(train_per_class=1, validation_per_class=0,
                             test_per_class=1, seed=3)
        m1 = generate_synthetic(spec, tmp_path / "a", workers=1)
        m2 = generate_synthetic(spec, tmp_path / "b", workers=2)
        for r1, r2 in zip(m1.rows, m2.rows):
            assert r1 == r2
            a = (tmp_path / "a" / r1.path).read_bytes()
            b = (tmp_path / "b" / r2.path).read_bytes()
            assert a == b

    def test_linear_baseline_separates_classes(self, small_corpus):
        """Nearest-centroid on mean log-Mel vectors reaches >= 0.8 held-out CA."""
        root, manifest = small_corpus
        cache = FeatureCache(root / "cache", FrontendConfig())
        cache.ensure(manifest, workers=2)
        xtr, ytr = cache.load_split(manifest, "train")
        xte, yte = cache.load_split(manifest, "test")
        mean_tr = xtr[:, 0].mean(axis=2)  # static channel, averaged over time
        mean_te = xte[:, 0].mean(axis=2)
        ca = nearest_centroid_accuracy(mean_tr, ytr, mean_te, yte, len(LABELS))
        assert ca >= 0.8


class TestFeatureCache:
    def test_second_run_all_hits(self, small_corpus):
        root, manifest = small_corpus
        cache = FeatureCache(root / "cache2", FrontendConfig())
        first = cache.ensure(manifest, workers=2)
        assert first.computed == len(manifest.rows)
        second = cache.ensure(manifest, workers=2)
        assert second.computed == 0
        assert second.reused == len(manifest.rows)

    def test_changed_config_recomputes(self, small_corpus):
        root, manifest = small_corpus
        a = FeatureCache(root / "cache3", FrontendConfig())
        a.ensure(manifest)
        b = FeatureCache(root / "cache3", FrontendConfig(mel_bins=32))
        stats = b.ensure(manifest)
        assert stats.computed == len(manifest.rows)
        assert a.root != b.root

    def test_corrupted_entry_recomputed(self, small_corpus):
        root, manifest = small_corpus
        cache = FeatureCache(root / "cache4", FrontendConfig())
        cache.ensure(manifest)
        victim = cache.path_for(manifest.rows[0].path)
        victim.write_bytes(b"JUNK" + victim.read_bytes()[4:])
        stats = cache.ensure(manifest)
        assert stats.computed == 1

    def test_invalid_entries_recomputed_from_header_check(self, small_corpus):
        """Bad magic, a foreign fingerprint and a short payload are all recomputed."""
        root, manifest = small_corpus
        cache = FeatureCache(root / "cache6", FrontendConfig())
        cache.ensure(manifest)
        victims = [cache.path_for(row.path) for row in manifest.rows[:3]]
        good = [v.read_bytes() for v in victims]
        victims[0].write_bytes(b"JUNK" + good[0][4:])
        victims[1].write_bytes(good[1][:5] + bytes(16) + good[1][21:])
        victims[2].write_bytes(good[2][:-8])
        stats = cache.ensure(manifest)
        assert stats.computed == 3
        assert [v.read_bytes() for v in victims] == good

    def test_entry_of_another_shape_is_data_error(self, small_corpus):
        """A valid entry with 498 frames (a stale cache) names the file and both shapes."""
        from dacnet.frontend import LogMelFeature, write_feature
        root, manifest = small_corpus
        cache = FeatureCache(root / "cache7", FrontendConfig())
        cache.ensure(manifest)
        victim = cache.path_for(manifest.split("test")[1].path)
        write_feature(victim, LogMelFeature(np.zeros((3, 28, 498)), cache.fingerprint))
        with pytest.raises(DataError, match=rf"{victim.name}.*\(3, 28, 498\).*\(3, 28, 499\)"):
            cache.load_split(manifest, "test")
        assert cache.load_split(manifest, "train")[0].shape == (36, 3, 28, 499)

    def test_cached_equals_fresh(self, small_corpus):
        from dacnet.frontend import compute_features
        root, manifest = small_corpus
        config = FrontendConfig()
        cache = FeatureCache(root / "cache5", config)
        cache.ensure(manifest)
        row = manifest.rows[3]
        fresh = compute_features(load_segment(root / row.path), config).values
        x, _ = cache.load_split(manifest, row.split)
        idx = [r.path for r in manifest.split(row.split)].index(row.path)
        assert x[idx].tobytes() == fresh.tobytes()
