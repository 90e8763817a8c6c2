"""Frontend arithmetic, filterbank construction, deltas, and the DACF format."""

from types import SimpleNamespace

import numpy as np
import pytest

from dacnet import DataError
from dacnet import frontend as fe
from oracles import compute_features_reference, delta_reference, stft_power_reference

CFG = fe.FrontendConfig()


class TestFraming:
    def test_ten_seconds_gives_499_frames(self):
        audio = np.zeros(160000)
        power = fe.stft_power(audio, CFG)
        assert power.shape == (513, 499)

    @pytest.mark.parametrize("n", [640, 641, 960, 1000, 16000, 44100])
    def test_frame_count_law(self, n):
        frames = fe.stft_power(np.zeros(n), CFG).shape[1]
        assert frames == (n - 640) // 320 + 1

    @pytest.mark.parametrize("n", [640, 641, 959, 960, 16000, 160000])
    def test_matches_index_gather_reference(self, n):
        """The strided in-place framing gives the index-gather spectrogram bit for bit."""
        audio = np.random.default_rng(n).standard_normal(n)
        got = fe.stft_power(audio, CFG)
        want = stft_power_reference(audio, CFG)
        assert np.array_equal(got, want)
        assert got.strides == want.strides  # the mel projection sees the same layout

    def test_short_audio_rejected(self):
        with pytest.raises(DataError, match="shorter"):
            fe.stft_power(np.zeros(639), CFG)

    def test_zero_audio_zero_power(self):
        power = fe.stft_power(np.zeros(3200), CFG)
        assert not power.any()

    def test_sine_energy_concentrated(self):
        """1 kHz tone at 16 kHz: >= 99% of each frame's power within +/-2 bins."""
        t = np.arange(16000) / 16000.0
        audio = np.sin(2 * np.pi * 1000.0 * t)
        power = fe.stft_power(audio, CFG)
        bin_1k = round(1000.0 * CFG.fft_size / CFG.sample_rate)
        near = power[bin_1k - 2:bin_1k + 3, :].sum(axis=0)
        share = near / power.sum(axis=0)
        assert share.min() >= 0.99


class TestMelProjection:
    def test_zero_power_hits_log_floor(self):
        out = fe.mel_project_log(np.zeros((513, 7)), CFG)
        assert np.array_equal(out, np.full((28, 7), np.log(1e-10)))

    def test_filterbank_weights(self):
        fb = fe.mel_filterbank(CFG)
        assert fb.shape == (28, 513)
        # Column sums never exceed 1; interior flanks sum to exactly 1.
        col = fb.sum(axis=0)
        assert col.max() <= 1.0 + 1e-12
        assert np.all(fb.max(axis=1) == 1.0)  # every triangle peaks at exactly 1
        for row in fb:
            support = np.flatnonzero(row)
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))

    def test_doubling_power_adds_ln2(self):
        rng = np.random.default_rng(0)
        power = rng.uniform(0.1, 1.0, (513, 9))
        a = fe.mel_project_log(power, CFG)
        b = fe.mel_project_log(2.0 * power, CFG)
        assert np.max(np.abs(b - a - np.log(2.0))) <= 1e-12


    def test_filterbank_built_once_per_config(self):
        power = np.ones((CFG.fft_size // 2 + 1, 5))
        fe.mel_project_log(power, CFG)
        shared = fe._shared_filterbank(CFG)
        assert fe._shared_filterbank(fe.FrontendConfig()) is shared
        assert not shared.flags.writeable
        assert np.array_equal(shared, fe.mel_filterbank(CFG))
        assert fe.mel_filterbank(CFG).flags.writeable


class TestDeltas:
    def test_constant_feature_zero_deltas(self):
        static = np.full((5, 11), 3.3)
        out = fe.add_deltas(static, 2)
        assert out.shape == (3, 5, 11)
        assert not out[1].any() and not out[2].any()

    def test_linear_ramp_gives_constant_slope(self):
        slope = 0.7
        static = np.tile(slope * np.arange(20.0), (4, 1))
        d = fe.delta(static, 2)
        interior = d[:, 2:-2]
        assert np.max(np.abs(interior - slope)) <= 1e-12

    def test_matches_independent_regression_formula(self):
        rng = np.random.default_rng(6)
        static = rng.standard_normal((6, 17))
        for window in (1, 2, 3):
            got = fe.delta(static, window)
            want = delta_reference(static, window)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestFullPipeline:
    def test_feature_shape_and_finiteness(self):
        rng = np.random.default_rng(1)
        for audio in (np.zeros(16000), np.clip(rng.standard_normal(16000) * 3, -1, 1),
                      rng.standard_normal(16000)):
            feat = fe.compute_features(audio, CFG)
            assert feat.values.shape == (3, 28, 49)
            assert np.isfinite(feat.values).all()

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(2)
        audio = rng.standard_normal(32000)
        a = fe.compute_features(audio, CFG).values
        b = fe.compute_features(audio.copy(), CFG).values
        assert a.tobytes() == b.tobytes()

    def test_bit_identical_to_reference_pipeline(self):
        from dacnet.data import SEGMENT_SAMPLES, _synthesize_segment
        rng = np.random.default_rng(8)
        for window in (1, 2, 3):
            cfg = fe.FrontendConfig(delta_window=window)
            for audio in (_synthesize_segment(window, rng), rng.standard_normal(SEGMENT_SAMPLES),
                          np.zeros(16000)):
                got = fe.compute_features(audio, cfg).values
                want = compute_features_reference(audio, cfg, fe.mel_filterbank(cfg))
                assert got.tobytes() == want.tobytes()


class TestDacfFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        feat = fe.LogMelFeature(rng.standard_normal((3, 28, 49)), CFG.fingerprint())
        path = tmp_path / "x.dacf"
        fe.write_feature(path, feat)
        back = fe.read_feature(path, expected_fingerprint=CFG.fingerprint())
        assert back.fingerprint == feat.fingerprint
        assert np.array_equal(back.values, feat.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.dacf"
        path.write_bytes(b"JUNK" + bytes(64))
        with pytest.raises(DataError, match="DACF"):
            fe.read_feature(path)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        feat = fe.LogMelFeature(np.zeros((3, 2, 2)), "ab" * 16)
        path = tmp_path / "x.dacf"
        fe.write_feature(path, feat)
        with pytest.raises(DataError, match="fingerprint"):
            fe.read_feature(path, expected_fingerprint="cd" * 16)

    def test_truncated_payload_rejected(self, tmp_path):
        feat = fe.LogMelFeature(np.zeros((3, 4, 4)), "ab" * 16)
        path = tmp_path / "x.dacf"
        fe.write_feature(path, feat)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="payload"):
            fe.read_feature(path)

    def test_read_into_out(self, tmp_path):
        rng = np.random.default_rng(9)
        feat = fe.LogMelFeature(rng.standard_normal((3, 4, 5)), "ab" * 16)
        path = tmp_path / "x.dacf"
        fe.write_feature(path, feat)
        out = np.full((2, 3, 4, 5), np.nan)
        back = fe.read_feature(path, "ab" * 16, out=out[1])
        assert np.shares_memory(back.values, out)
        assert np.array_equal(out[1], feat.values) and np.isnan(out[0]).all()
        fe.write_feature(path, fe.LogMelFeature(np.zeros((3, 0, 5)), "ab" * 16))
        assert fe.read_feature(path, out=np.empty((3, 0, 5))).values.shape == (3, 0, 5)

    def test_read_into_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "x.dacf"
        fe.write_feature(path, fe.LogMelFeature(np.ones((3, 4, 5)), "ab" * 16))
        with pytest.raises(DataError, match=r"x\.dacf.*\(3, 4, 5\).*\(3, 4, 6\)"):
            fe.read_feature(path, out=np.empty((3, 4, 6)))

    def test_read_into_short_payload_rejected(self, tmp_path, monkeypatch):
        """A file cut short, or one that shrinks after its header was checked."""
        path = tmp_path / "x.dacf"
        fe.write_feature(path, fe.LogMelFeature(np.ones((3, 4, 5)), "ab" * 16))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError, match="payload"):
            fe.read_feature(path, out=np.empty((3, 4, 5)))
        monkeypatch.setattr(fe.os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
        with pytest.raises(DataError, match="payload ended after 472 of 480 bytes"):
            fe.read_feature(path, out=np.empty((3, 4, 5)))

    @pytest.mark.parametrize("damage", ["magic", "version", "fingerprint", "short", "long"])
    def test_header_check_agrees_with_full_read(self, tmp_path, damage):
        """check_feature raises exactly what read_feature raises, or neither does."""
        path = tmp_path / "x.dacf"
        fe.write_feature(path, fe.LogMelFeature(np.ones((3, 4, 4)), "ab" * 16))
        raw = path.read_bytes()
        path.write_bytes({
            "magic": b"JUNK" + raw[4:],
            "version": raw[:4] + b"\x02" + raw[5:],
            "fingerprint": raw[:5] + bytes.fromhex("cd" * 16) + raw[21:],
            "short": raw[:-8],
            "long": raw + bytes(8),
        }[damage])
        messages = []
        for check in (fe.read_feature, fe.check_feature):
            with pytest.raises(DataError) as info:
                check(path, "ab" * 16)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestWavCodec:
    def test_pcm16_round_trip_channel0(self, tmp_path):
        from dacnet import wav
        rng = np.random.default_rng(4)
        samples = np.clip(rng.standard_normal(1000) * 0.2, -0.9, 0.9)
        path = tmp_path / "a.wav"
        wav.write_wav(path, 16000, samples)
        sr, back = wav.read_wav(path)
        assert sr == 16000
        # quantization plus the 32767/32768 scale asymmetry
        assert np.max(np.abs(back - samples)) <= 1.5 / 32768.0

    def test_float32_read(self, tmp_path):
        from dacnet import wav
        samples = np.linspace(-1, 1, 64)
        path = tmp_path / "f.wav"
        wav.write_wav(path, 16000, samples, fmt="float32")
        sr, back = wav.read_wav(path)
        assert sr == 16000
        assert np.max(np.abs(back - samples)) <= 1e-7

    def test_garbage_rejected(self, tmp_path):
        from dacnet import wav
        path = tmp_path / "g.wav"
        path.write_bytes(b"definitely not a wave file")
        with pytest.raises(DataError):
            wav.read_wav(path)

    @pytest.mark.parametrize("cut", [500, 501])
    def test_truncated_data_chunk_rejected(self, tmp_path, cut):
        """A data chunk shorter than its declared size, even or odd, is a DataError."""
        from dacnet import wav
        path = tmp_path / "t.wav"
        wav.write_wav(path, 16000, np.zeros(1000))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="truncated"):
            wav.read_wav(path)

    def test_partial_sample_rejected(self, tmp_path):
        """A data chunk whose declared size is not whole samples is a DataError."""
        import struct
        from dacnet import wav
        path = tmp_path / "p.wav"
        wav.write_wav(path, 16000, np.zeros(1000))
        raw = bytearray(path.read_bytes()[:-1])
        struct.pack_into("<I", raw, 40, 1999)  # the data chunk's size field
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="whole"):
            wav.read_wav(path)


class _FailingFile:
    """File stand-in that writes the first chunk, then fails like a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        if self.fh.tell():
            raise OSError("no space left on device")
        return self.fh.write(chunk)


class TestCrashSafeWrites:
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_feature_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        from dacnet import fileio
        feature = fe.LogMelFeature(np.ones((3, 28, 49)), CFG.fingerprint())
        path = tmp_path / "x.dacf"
        if existing:
            fe.write_feature(path, feature)
        before = path.read_bytes() if existing else None
        monkeypatch.setattr(fileio, "open", _FailingFile, raising=False)
        with pytest.raises(OSError, match="no space"):
            fe.write_feature(path, feature)
        assert [p.name for p in tmp_path.iterdir()] == (["x.dacf"] if existing else [])
        if existing:
            assert path.read_bytes() == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_wav_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        from dacnet import fileio, wav
        path = tmp_path / "x.wav"
        if existing:
            wav.write_wav(path, 16000, np.zeros(100))
        before = path.read_bytes() if existing else None
        monkeypatch.setattr(fileio, "open", _FailingFile, raising=False)
        with pytest.raises(OSError, match="no space"):
            wav.write_wav(path, 16000, np.ones(100))
        assert [p.name for p in tmp_path.iterdir()] == (["x.wav"] if existing else [])
        if existing:
            assert path.read_bytes() == before
