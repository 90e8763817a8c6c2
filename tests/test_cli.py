"""Command-line surface: pipeline runs, exit codes, help text, quarantine."""

import json

import pytest

from dacnet.cli import main
from dacnet.presets import preset_dict, resolve_run_config

FAST = [
    "--set", "network.stem_channels=4",
    "--set", "network.blocks=[[4,4,2,1,1,2],[4,4,2,2,1,2]]",
    "--set", "network.mse_projection_channels=8",
    "--set", "train.batch_size=8",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "corpus"
    rc = main(["synth-data", "--out", str(root), "--train-per-class", "3",
               "--val-per-class", "1", "--test-per-class", "2", "--seed", "5"])
    assert rc == 0
    return root


class TestHelp:
    def test_top_level_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("synth-data", "features", "train", "eval", "analyze", "ablate"):
            assert name in out

    @pytest.mark.parametrize("cmd", ["synth-data", "features", "train", "eval",
                                     "analyze", "ablate"])
    def test_subcommand_help_shows_flag_defaults(self, cmd, capsys):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        out = capsys.readouterr().out
        assert "--seed" in out and "--workers" in out
        assert "default" in out  # argparse renders every default


class TestPipeline:
    def test_synth_data_layout(self, corpus):
        assert (corpus / "manifest.csv").exists()
        wavs = list((corpus / "audio").glob("*.wav"))
        assert len(wavs) == 9 * 6

    def test_features_then_rerun_hits_cache(self, corpus, capsys):
        args = ["features", "--data", str(corpus), "--workers", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "computed 54" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "computed 0" in second and "reused 54" in second

    def test_train_zero_epochs_checkpoints_initial_weights(self, corpus, tmp_path):
        out = tmp_path / "run0"
        rc = main(["train", "--data", str(corpus), "--out", str(out),
                   "--max-epochs", "0", *FAST])
        assert rc == 0
        assert (out / "checkpoint_last.dacm").exists()
        assert (out / "config.json").exists()
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["network"]["stem_channels"] == 4

    def test_train_eval_round_trip(self, corpus, tmp_path):
        run = tmp_path / "run1"
        rc = main(["train", "--data", str(corpus), "--out", str(run),
                   "--max-epochs", "2", "--seed", "1", *FAST])
        assert rc == 0
        log = (run / "train_log.txt").read_text()
        assert "epoch   1" in log and "val_ca" in log
        ev = tmp_path / "eval1"
        rc = main(["eval", "--model", str(run / "checkpoint_last.dacm"),
                   "--data", str(corpus), "--split", "test", "--out", str(ev), *FAST])
        assert rc == 0
        assert (ev / "confusion.csv").exists()
        assert (ev / "confusion.txt").exists()
        assert "CA" in (ev / "eval.txt").read_text()

    def test_rerun_with_same_seed_reproduces_checkpoint(self, corpus, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["train", "--data", str(corpus), "--out", str(out),
                       "--max-epochs", "1", "--seed", "9", *FAST])
            assert rc == 0
            blobs.append((out / "checkpoint_last.dacm").read_bytes())
        assert blobs[0] == blobs[1]

    def test_rerun_from_echoed_config_reproduces_run(self, corpus, tmp_path):
        first = tmp_path / "orig"
        rc = main(["train", "--data", str(corpus), "--out", str(first),
                   "--max-epochs", "1", "--seed", "3", *FAST])
        assert rc == 0
        replay = tmp_path / "replay"
        rc = main(["train", "--data", str(corpus), "--out", str(replay),
                   "--config", str(first / "config.json"),
                   "--max-epochs", "1", "--seed", "3"])
        assert rc == 0
        assert (replay / "checkpoint_last.dacm").read_bytes() == \
            (first / "checkpoint_last.dacm").read_bytes()


class TestAnalyze:
    def test_analyze_reference_report(self, capsys, tmp_path):
        json_out = tmp_path / "report.json"
        rc = main(["analyze", "--preset", "reference", "--json-out", str(json_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PS = 3,192,745" in out
        assert "MobileNet-v1 based" in out and "ShuffleNet based" in out
        assert "reconstruction" in out
        doc = json.loads(json_out.read_text())
        assert doc["total_params"] == 3_192_745
        assert len(doc["reference_results"]) == 5

    def test_analyze_honors_frames_flag(self, capsys):
        rc = main(["analyze", "--preset", "toy", "--frames", "63"])
        assert rc == 0
        rc2 = main(["analyze", "--preset", "toy", "--frames", "499"])
        assert rc2 == 0

    def test_analyze_frames_default_follows_the_frontend(self, capsys):
        """A 10 s segment at a 10 ms hop has 997 frames, not the 499 of the 20 ms default."""
        hop = ["--set", "frontend.hop_ms=10"]
        reports = []
        for extra in ([], ["--frames", "997"], ["--frames", "499"]):
            assert main(["analyze", "--preset", "toy", *hop, *extra]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] != reports[2]
        assert main(["analyze", "--preset", "toy"]) == 0
        default = capsys.readouterr().out
        assert main(["analyze", "--preset", "toy", "--frames", "499"]) == 0
        assert capsys.readouterr().out == default

    def test_override_reaches_a_field_the_config_file_leaves_out(self, tmp_path, capsys):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({
            "frontend": {}, "network": {"blocks": [[32, 16, 1, 1, 3, 2], [16, 32, 1, 3, 3, 2]]},
            "train": {},
        }))
        overrides = ["frontend.hop_ms=10", "network.num_classes=5", "train.max_epochs=5"]
        run = resolve_run_config(config_path=path, overrides=overrides)
        assert (run.frontend.hop_ms, run.network.num_classes, run.train.max_epochs) == (10, 5, 5)
        json_out = tmp_path / "report.json"
        rc = main(["analyze", "--config", str(path), "--json-out", str(json_out),
                   *[arg for o in overrides for arg in ("--set", o)]])
        assert rc == 0
        assert json.loads(json_out.read_text())["input_shape"] == [1, 3, 28, 997]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        rc = main(["analyze", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_path_is_2(self, capsys):
        rc = main(["analyze", "--set", "network.does_not_exist=1"])
        assert rc == 2

    @staticmethod
    def assert_config_error(rc, capsys, message):
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    def test_unknown_network_key_is_2(self, tmp_path, capsys):
        doc = preset_dict("toy")
        doc["network"]["residual_enabld"] = False
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", "--config", str(path)])
        self.assert_config_error(rc, capsys,
                                 "malformed network config: unknown keys residual_enabld")

    @pytest.mark.parametrize("overrides, message", [
        ([], "run config must be an object, not int"),
        (["--set", "train.max_epochs=1"], "override path 'train.max_epochs' does not exist"),
    ], ids=["bare", "override"])
    def test_config_file_not_an_object_is_2(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "three.json"
        path.write_text("3")
        rc = main(["analyze", "--config", str(path), *overrides])
        self.assert_config_error(rc, capsys, message)

    @pytest.mark.parametrize("override, message", [
        ("train.max_epoch=5", "override path 'train.max_epoch' does not exist"),
        ("training.max_epochs=5", "override path 'training.max_epochs' does not exist"),
        ("network.blocks.stride=2", "override path 'network.blocks.stride' does not exist"),
    ], ids=["unknown-field", "unknown-section", "below-a-field"])
    def test_override_outside_the_schema_is_2(self, tmp_path, capsys, override, message):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"frontend": {}, "network": {"blocks": []}, "train": {}}))
        rc = main(["analyze", "--config", str(path), "--set", override])
        self.assert_config_error(rc, capsys, message)

    @pytest.mark.parametrize("doc, override, message", [
        ({"frontend": {}, "network": {"blocks": [[8, 8, 1, 1, 1, 1]]}}, "train.max_epochs=5",
         "override path 'train.max_epochs' does not exist"),
        ({"frontend": {}, "network": {}, "train": {}}, "train.max_epochs=5",
         "malformed network config: 'blocks'"),
    ], ids=["missing-section", "missing-blocks"])
    def test_override_does_not_fill_a_missing_part(self, tmp_path, capsys, doc, override,
                                                    message):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", "--config", str(path), "--set", override])
        self.assert_config_error(rc, capsys, message)

    def test_manifest_row_naming_a_directory_is_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth-data", "--out", str(corpus), "--train-per-class", "1",
                     "--val-per-class", "0", "--test-per-class", "0", "--seed", "6"]) == 0
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        wav.unlink()
        wav.mkdir()
        capsys.readouterr()
        rc = main(["features", "--data", str(corpus), "--cache-dir", str(tmp_path / "cache")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: 1 feature extraction failures" in err
        assert f"cannot read {wav}: Is a directory" in err
        assert "Traceback" not in err

    def test_data_error_is_3(self, tmp_path, capsys):
        rc = main(["features", "--data", str(tmp_path)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("model, reason", [
        ("missing.dacm", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing", "directory"])
    def test_eval_unreadable_model_is_3(self, corpus, tmp_path, capsys, model, reason):
        path = tmp_path / model
        rc = main(["eval", "--model", str(path), "--data", str(corpus),
                   "--out", str(tmp_path / "eval"), *FAST])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"data error: cannot open model file {path}: {reason}" in err
        assert "Traceback" not in err

    def test_config_directory_is_2(self, tmp_path, capsys):
        rc = main(["analyze", "--config", str(tmp_path)])
        self.assert_config_error(rc, capsys, f"cannot read config file {tmp_path}: Is a directory")

    def test_config_nested_too_deep_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        rc = main(["analyze", "--config", str(path)])
        self.assert_config_error(rc, capsys, f"{path}: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize("damage, message", [
        ("directory", "cannot read manifest {}: Is a directory"),
        ("latin-1", "{}: manifest is not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
    ])
    def test_unreadable_manifest_is_3(self, tmp_path, capsys, damage, message):
        manifest = tmp_path / "manifest.csv"
        if damage == "directory":
            manifest.mkdir()
        else:
            manifest.write_bytes("path,label,split\ncaf\u00e9.wav,Cooking,train\n".encode("latin-1"))
        rc = main(["features", "--data", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"data error: {message.format(manifest)}" in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def test_only_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("test_only") / "corpus"
        rc = main(["synth-data", "--out", str(root), "--train-per-class", "0",
                   "--val-per-class", "0", "--test-per-class", "1", "--seed", "2"])
        assert rc == 0
        return root

    @staticmethod
    def assert_data_error(rc, capsys, out, split):
        assert rc == 3
        err = capsys.readouterr().err
        assert f"data error: manifest has no rows in split {split!r}" in err
        assert "Traceback" not in err
        assert not out.exists() and out.with_name(out.name + ".quarantined").exists()

    @pytest.mark.parametrize("split", ["train", "validation"])
    def test_eval_on_empty_split_is_3(self, corpus, test_only_corpus, tmp_path, capsys, split):
        run = tmp_path / "run"
        rc = main(["train", "--data", str(corpus), "--out", str(run), "--max-epochs", "0", *FAST])
        assert rc == 0
        capsys.readouterr()
        ev = tmp_path / "eval"
        rc = main(["eval", "--model", str(run / "checkpoint_last.dacm"),
                   "--data", str(test_only_corpus), "--split", split, "--out", str(ev), *FAST])
        self.assert_data_error(rc, capsys, ev, split)

    def test_train_without_train_split_is_3(self, test_only_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(test_only_corpus), "--out", str(out), *FAST])
        self.assert_data_error(rc, capsys, out, "train")

    def test_slightly_short_segment_trains_and_stale_entry_is_3(self, tmp_path, capsys):
        """A segment up to one frame short trains; a cache entry of another shape exits 3."""
        import numpy as np
        from dacnet import FrontendConfig, wav
        from dacnet.data import FeatureCache, load_manifest
        from dacnet.frontend import LogMelFeature, write_feature

        corpus, cache_dir = tmp_path / "corpus", tmp_path / "cache"
        assert main(["synth-data", "--out", str(corpus), "--train-per-class", "1",
                     "--val-per-class", "0", "--test-per-class", "1", "--seed", "4"]) == 0
        short = load_manifest(corpus / "manifest.csv").split("train")[0].path
        _, samples = wav.read_wav(corpus / short)
        wav.write_wav(corpus / short, 16000, samples[:159400])
        common = ["--data", str(corpus), "--cache-dir", str(cache_dir)]
        assert main(["features", *common]) == 0
        assert main(["train", *common, "--out", str(tmp_path / "run"),
                     "--max-epochs", "1", *FAST]) == 0

        # the 498-frame entry that the short segment gave before it was padded
        entry = FeatureCache(cache_dir, FrontendConfig()).path_for(short)
        write_feature(entry, LogMelFeature(np.zeros((3, 28, 498)),
                                           FrontendConfig().fingerprint()))
        capsys.readouterr()
        out = tmp_path / "stale"
        rc = main(["train", *common, "--out", str(out), "--max-epochs", "1", *FAST])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"data error: {entry}: feature shape (3, 28, 498) does not match " \
               "expected (3, 28, 499)" in err
        assert "Traceback" not in err
        assert out.with_name("stale.quarantined").exists()

    def test_nonempty_out_dir_is_2(self, corpus, tmp_path, capsys):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        rc = main(["train", "--data", str(corpus), "--out", str(out), *FAST])
        assert rc == 2

    def test_failed_run_quarantined(self, corpus, tmp_path, capsys):
        out = tmp_path / "doomed"
        rc = main(["train", "--data", str(corpus), "--out", str(out),
                   "--set", "network.stem_channels=4",
                   "--set", "network.blocks=[[4,5,1,1,1,1]]",  # taps need 3 instances
                   ])
        assert rc == 2
        assert not out.exists()
        assert out.with_name("doomed.quarantined").exists()


class TestRunDirectory:
    def test_exception_inside_context_quarantines(self, tmp_path, capsys):
        from dacnet.cli import _run_directory
        out = tmp_path / "run"
        for n, target in enumerate(("run.quarantined", "run.quarantined.1")):
            with pytest.raises(RuntimeError, match="boom"):
                with _run_directory(out):
                    (out / "partial.txt").write_text(str(n))
                    raise RuntimeError("boom")
            assert not out.exists()
            assert (tmp_path / target / "partial.txt").read_text() == str(n)
            assert target in capsys.readouterr().err

    def test_failed_text_write_leaves_old_file_and_no_temp(self, tmp_path, monkeypatch):
        import os
        from dacnet import fileio
        from dacnet.cli import _write_text
        path = tmp_path / "eval.txt"
        _write_text(path, "old\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="No space"):
            _write_text(path, "new and longer\n")
        monkeypatch.setattr(fileio.os, "replace", os.replace)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["eval.txt"]


class TestWorkersBitExact:
    def test_feature_files_identical_across_workers(self, corpus, tmp_path):
        from dacnet.data import FeatureCache, load_manifest
        from dacnet import FrontendConfig
        manifest = load_manifest(corpus / "manifest.csv")
        digests = []
        for workers, name in ((1, "w1"), (3, "w3")):
            cache = FeatureCache(tmp_path / name, FrontendConfig())
            cache.ensure(manifest, workers=workers)
            blob = b"".join(
                cache.path_for(r.path).read_bytes() for r in manifest.rows
            )
            digests.append(blob)
        assert digests[0] == digests[1]
