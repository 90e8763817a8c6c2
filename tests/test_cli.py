"""Command-line surface: pipeline runs, exit codes, help text, quarantine."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from dacnet import (BlockSpec, ConfigError, FrontendConfig, NetworkConfig, NumericError,
                    TrainConfig)
from dacnet.cli import main
from dacnet.presets import SECTIONS, preset_dict, resolve_run_config
from dacnet.validation import config_from_dict, config_to_dict

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
        """The echoed config holds the --seed and --max-epochs the run used, so it
        replays the run alone."""
        first = tmp_path / "orig"
        rc = main(["train", "--data", str(corpus), "--out", str(first),
                   "--max-epochs", "1", "--seed", "3", *FAST])
        assert rc == 0
        echoed = json.loads((first / "config.json").read_text())["train"]
        assert (echoed["seed"], echoed["max_epochs"]) == (3, 1)
        replay = tmp_path / "replay"
        rc = main(["train", "--data", str(corpus), "--out", str(replay),
                   "--config", str(first / "config.json")])
        assert rc == 0
        assert (replay / "checkpoint_last.dacm").read_bytes() == \
            (first / "checkpoint_last.dacm").read_bytes()

    def test_config_seed_seeds_the_run(self, corpus, tmp_path):
        """train.seed seeds the run when --seed is unset; --seed replaces it."""
        blobs = {}
        for name, args in (("default", []), ("set", ["--set", "train.seed=5"]),
                           ("both", ["--set", "train.seed=0", "--seed", "5"])):
            out = tmp_path / name
            assert main(["train", "--data", str(corpus), "--out", str(out),
                         "--max-epochs", "1", *FAST, *args]) == 0
            blobs[name] = (out / "checkpoint_last.dacm").read_bytes()
        assert blobs["set"] != blobs["default"]
        assert blobs["set"] == blobs["both"]


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


class TestConfigSchema:
    """The config dataclasses' fields are the schema; Python and JSON configs
    are checked alike."""

    def test_int_where_float_declared_is_kept(self):
        assert type(TrainConfig(learning_rate=1).learning_rate) is int
        run = resolve_run_config("toy", overrides=["train.learning_rate=1"])
        assert '"learning_rate": 1,' in run.to_json()

    @pytest.mark.parametrize("build, message", [
        (lambda: TrainConfig(batch_size=True), "TrainConfig.batch_size must be int, not True"),
        (lambda: FrontendConfig(frame_ms=False),
         "FrontendConfig.frame_ms must be float, not False"),
        (lambda: FrontendConfig(log_floor=None),
         "FrontendConfig.log_floor must be float, not None"),
        (lambda: BlockSpec(8, 8.0), "BlockSpec.out_channels must be int, not 8.0"),
        (lambda: NetworkConfig(blocks=[BlockSpec(8, 8)]),
         r"NetworkConfig.blocks must be tuple\[BlockSpec, ...\], not \["),
    ], ids=["bool-for-int", "bool-for-float", "none", "row", "list"])
    def test_python_configs_are_checked_like_json(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    def test_reader_reads_lists_as_declared_tuples_and_writer_inverts_it(self):
        doc = {"blocks": [[8, 8, 1, 1, 2, 2], [8, 16, 2]], "stem_channels": 8}
        config = config_from_dict(NetworkConfig, doc, "network")
        assert config.blocks == (BlockSpec(8, 8, 1, 1, 2, 2), BlockSpec(8, 16, 2))
        assert config.num_classes == 9
        assert config_to_dict(config)["blocks"] == [[8, 8, 1, 1, 2, 2], [8, 16, 2, 1, 3, 2]]
        assert config_from_dict(NetworkConfig, config_to_dict(config), "network") == config

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_docs_table_lists_each_field_with_its_default(self, section):
        """docs/config-schema.md's table of a section names its dataclass's fields in
        order, each with its default as JSON."""
        text = (Path(__file__).parents[1] / "docs" / "config-schema.md").read_text()
        table = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.MULTILINE)
        want = [(f.name, "(required)" if f.default is dataclasses.MISSING
                 else json.dumps(f.default)) for f in dataclasses.fields(SECTIONS[section])]
        assert [(name, default.strip().strip("`")) for name, default in rows] == want


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        rc = main(["analyze", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth-data", "analyze"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_2(self, tmp_path, capsys, command, workers):
        out = ["--out", str(tmp_path / "corpus")] if command == "synth-data" else []
        rc = main([command, *out, "--workers", workers])
        self.assert_config_error(rc, capsys, f"--workers must be >= 1, got {workers}")
        assert not list(tmp_path.iterdir())

    def test_bad_override_path_is_2(self, capsys):
        rc = main(["analyze", "--set", "network.does_not_exist=1"])
        assert rc == 2

    @staticmethod
    def assert_config_error(rc, capsys, message):
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    def test_analyze_names_the_collapsing_unit(self, capsys):
        rc = main(["analyze", "--preset", "toy", "--frames", "0"])
        self.assert_config_error(
            rc, capsys, "stem: effective kernel extent 3 exceeds padded input width 2")

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

    @pytest.mark.parametrize("command, override, message", [
        ("train", "train.batch_size=2.5",
         "train config: TrainConfig.batch_size must be int, not 2.5"),
        ("train", 'train.learning_rate="abc"',
         "train config: TrainConfig.learning_rate must be float, not 'abc'"),
        ("train", "frontend.mel_bins=28.5",
         "frontend config: FrontendConfig.mel_bins must be int, not 28.5"),
        ("analyze", "network.num_classes=9.5",
         "network config: NetworkConfig.num_classes must be int, not 9.5"),
        ("train", 'network.dilation_enabled="no"',
         "network config: NetworkConfig.dilation_enabled must be bool, not 'no'"),
        ("train", "network.mse_enabled=0",
         "network config: NetworkConfig.mse_enabled must be bool, not 0"),
        ("train", "train.seed=null", "train config: TrainConfig.seed must be int, not None"),
        ("train", "train.learning_rate=NaN",
         "train config: TrainConfig.learning_rate must be float, not nan"),
        ("analyze", "network.num_classes=-1",
         "network config: NetworkConfig.num_classes must be >= 1, got -1"),
        ("analyze", "network.stem_stride=0",
         "network config: NetworkConfig.stem_stride must be >= 1, got 0"),
        ("train", "train.batch_size=0", "train config: TrainConfig.batch_size must be >= 1, got 0"),
        ("train", "train.max_epochs=-1", "train config: max_epochs must be >= 0, got -1"),
        ("train", "train.learning_rate=-1", "train config: learning_rate must be > 0, got -1"),
        ("train", "train.epsilon=0", "train config: epsilon must be > 0, got 0"),
        ("train", "train.beta1=1", "train config: beta1 must be in [0, 1), got 1"),
        ("train", "train.beta2=1.5", "train config: beta2 must be in [0, 1), got 1.5"),
        ("train", "train.weight_decay=-0.1",
         "train config: weight_decay must be >= 0, got -0.1"),
        ("analyze", "frontend.sample_rate=0", "frontend config: frame_ms 40.0 and hop_ms 20.0 "
                                              "must each span 1 to finitely many samples at "
                                              "sample_rate 0"),
        ("analyze", "frontend.hop_ms=0", "frontend config: frame_ms 40.0 and hop_ms 0 must"),
        ("analyze", "frontend.frame_ms=1e306", "frontend config: frame_ms 1e+306 and hop_ms"),
    ], ids=["batch_size", "learning_rate", "mel_bins", "num_classes", "dilation_enabled",
            "bool-from-int", "null", "nan", "negative", "zero-stride", "zero-batch",
            "negative-epochs", "negative-lr", "zero-epsilon", "beta1-one", "beta2-above-one",
            "negative-decay", "zero-rate", "zero-hop", "huge-frame"])
    def test_value_outside_the_schema_is_2(self, corpus, tmp_path, capsys, command, override,
                                           message):
        """A wrongly typed or out-of-range value ends in exit 2 naming the field, before
        the run directory is made."""
        out = ["--data", str(corpus), "--out", str(tmp_path / "run")] if command == "train" else []
        rc = main([command, *out, "--set", override])
        self.assert_config_error(rc, capsys, f"malformed {message}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["features", "train", "ablate"])
    def test_frontend_rate_other_than_the_corpus_is_2(self, corpus, tmp_path, capsys, command):
        """Features are computed at the corpus rate only: 16 kHz audio read as
        8 kHz would give features of the wrong length and meaning. The rate is
        checked before a run directory is made, so no run is left behind."""
        out = ["--out", str(tmp_path / "run")] if command != "features" else []
        rc = main([command, "--data", str(corpus), "--cache-dir", str(tmp_path / "cache"), *out,
                   "--set", "frontend.sample_rate=8000"])
        self.assert_config_error(
            rc, capsys, "frontend sample_rate 8000 Hz does not match the corpus rate of 16000 Hz")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("overrides, message", [
        (["network.stem_channels=4", "network.blocks=[[4,5,1,1,1,1]]"],
         "multi-scale embedding needs at least 3 block instances"),
        (["network.blocks=[[8,16,1,1,1,1],[8,8,1,2,1,1]]"],
         "block 1: in_channels 8 does not chain from previous output 16"),
    ], ids=["too-few-instances", "unchained"])
    def test_network_that_cannot_run_is_2(self, corpus, tmp_path, capsys, command, overrides,
                                          message):
        """A network table that cannot be built is rejected before the run
        directory is made, so nothing is written or quarantined."""
        rc = main([command, "--data", str(corpus), "--cache-dir", str(tmp_path / "cache"),
                   "--out", str(tmp_path / "run"),
                   *(arg for o in overrides for arg in ("--set", o))])
        self.assert_config_error(rc, capsys, message)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("doc, override, message", [
        ({"frontend": {}, "network": {"blocks": [[8, 8, 1, 1, 1, 1]]}}, "train.max_epochs=5",
         "override path 'train.max_epochs' does not exist"),
        ({"frontend": {}, "network": {}, "train": {}}, "train.max_epochs=5",
         "malformed network config: NetworkConfig.__init__() missing 1 required "
         "keyword-only argument: 'blocks'"),
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

    def test_failed_run_quarantined(self, corpus, tmp_path, capsys, monkeypatch):
        from dacnet import cli

        def diverge(*args, **kwargs):
            raise NumericError("loss is not finite")

        monkeypatch.setattr(cli, "train", diverge)
        out = tmp_path / "doomed"
        rc = main(["train", "--data", str(corpus), "--out", str(out), *FAST])
        assert rc == 4
        assert "numeric failure: loss is not finite" in capsys.readouterr().err
        assert not out.exists()
        assert (out.with_name("doomed.quarantined") / "config.json").exists()


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
