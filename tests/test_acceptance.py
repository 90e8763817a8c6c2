"""Acceptance suite: the eight headline criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print. The end-to-end criterion trains three desk-scale models
on a synthetic corpus and dominates the runtime (a few minutes).
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dacnet import (
    BlockSpec,
    ConvSpec,
    FrontendConfig,
    NetworkConfig,
    Tensor,
    analyze_network,
    build_network,
    conv2d_forward,
    count_macs,
    finite_difference_check,
    load_preset,
)
from dacnet import ops
from dacnet.cli import main
from dacnet.complexity import TARGET_MAO, TARGET_PS, deviation_summary
from dacnet.data import DatasetManifest, FeatureCache, load_manifest
from dacnet.network import ablation_variant
from dacnet.training import ConfusionMatrix

from oracles import conv2d_reference
from test_complexity import random_network_config
from test_conv_oracle import random_case


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {title}")
        raise
    print(f"\nACCEPTANCE {num} PASS: {title}")


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """The end-to-end synthetic corpus: 60 train / 20 test per class, seed 0."""
    root = tmp_path_factory.mktemp("acceptance") / "corpus"
    t0 = time.monotonic()
    rc = main(["synth-data", "--out", str(root), "--train-per-class", "60",
               "--val-per-class", "0", "--test-per-class", "20",
               "--seed", "0", "--workers", "2"])
    assert rc == 0
    return root, time.monotonic() - t0


def miniature_network():
    """2 block rows, 8 channels: the end-to-end gradient-check target."""
    return NetworkConfig(
        stem_channels=8,
        blocks=(BlockSpec(8, 8, 1, 1, 2, 2), BlockSpec(8, 8, 1, 2, 2, 2)),
        mse_projection_channels=16,
        num_classes=9,
    )


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        t0 = time.monotonic()
        with criterion(1, "every operation and the 2-block miniature network "
                          "pass finite differences at <= 1e-5 (step 1e-4)"):
            rng = np.random.default_rng(0)
            worst = {}

            def conv_case(name, spec, shape):
                x = Tensor(rng.standard_normal(shape), requires_grad=True)
                k = Tensor(rng.standard_normal(spec.kernel_shape()), requires_grad=True)
                b = Tensor(rng.standard_normal(spec.out_channels), requires_grad=True) \
                    if spec.has_bias else None
                tensors = [x, k] + ([b] if b is not None else [])
                worst[name] = finite_difference_check(
                    lambda: ops.mean_scalar(ops.conv2d(x, k, b, spec)), tensors
                )

            conv_case("conv standard d1 s1",
                      ConvSpec(3, 3, 4, padding=1, has_bias=True), (2, 3, 6, 6))
            conv_case("conv standard d2 s2",
                      ConvSpec(3, 3, 4, stride=2, padding=2, dilation=2), (2, 3, 7, 7))
            conv_case("conv depthwise d1",
                      ConvSpec(3, 3, 3, padding=1, mode="depthwise"), (2, 3, 6, 6))
            conv_case("conv depthwise d2",
                      ConvSpec(3, 3, 3, padding=2, dilation=2, mode="depthwise"),
                      (1, 3, 6, 6))
            conv_case("conv pointwise",
                      ConvSpec(1, 4, 5, mode="pointwise", has_bias=True), (2, 4, 5, 5))

            for training in (True, False):
                x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
                gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
                beta = Tensor(rng.standard_normal(2), requires_grad=True)
                rm, rv = np.zeros(2), np.ones(2)
                worst[f"batchnorm training={training}"] = finite_difference_check(
                    lambda: ops.mean_scalar(ops.batchnorm(
                        x, gamma, beta, rm.copy(), rv.copy(), training=training)),
                    [x, gamma, beta],
                )

            x = Tensor(rng.standard_normal((2, 3, 5, 5)) + 0.2, requires_grad=True)
            worst["relu"] = finite_difference_check(
                lambda: ops.mean_scalar(ops.relu(x)), [x])

            x = Tensor(rng.standard_normal((2, 4, 5, 6)), requires_grad=True)
            worst["global_avg_pool"] = finite_difference_check(
                lambda: ops.mean_scalar(ops.global_avg_pool(x)), [x])

            x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
            w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal(4), requires_grad=True)
            worst["linear"] = finite_difference_check(
                lambda: ops.mean_scalar(ops.linear(x, w, b)), [x, w, b])

            logits = Tensor(rng.standard_normal((4, 9)), requires_grad=True)
            labels = rng.integers(0, 9, 4)
            worst["softmax_cross_entropy"] = finite_difference_check(
                lambda: ops.softmax_cross_entropy(logits, labels)[0], [logits])

            # full DSC block: expansion -> dilated depthwise -> projection
            model = build_network(miniature_network(), 0)
            xb = Tensor(rng.standard_normal((1, 8, 12, 12)) * 0.5, requires_grad=True)
            block = model.blocks[0]
            block_params = [t for u in block.units() for _, t in u.parameters()]
            worst["dsc block"] = finite_difference_check(
                lambda: ops.mean_scalar(block(xb, training=True)),
                [xb] + block_params,
            )

            # miniature network end to end: input and every parameter
            net = build_network(miniature_network(), 0)
            x_in = Tensor(rng.standard_normal((1, 3, 28, 20)) * 0.5, requires_grad=True)
            y_in = rng.integers(0, 9, 1)
            tensors = [x_in] + [t for _, t in net.parameters()]

            def net_loss():
                logits_t, _ = net.forward(x_in, training=True)
                return ops.softmax_cross_entropy(logits_t, y_in)[0]

            worst["miniature network"] = finite_difference_check(net_loss, tensors)

            for name, err in sorted(worst.items()):
                print(f"  {name}: {err:.3e}")
                assert err <= 1e-5, f"{name}: {err:.3e} > 1e-5"
            elapsed = time.monotonic() - t0
            print(f"  runtime {elapsed:.1f}s (budget 120s)")
            assert elapsed < 120.0


class TestCriterion2ConvOracle:
    def test_convolution_oracle_suite(self):
        t0 = time.monotonic()
        with criterion(2, ">= 200 randomized convolutions match the nested-loop "
                          "oracle <= 1e-12; d=1 degeneration; zero-insertion "
                          "equivalence"):
            rng = np.random.default_rng(202)
            cases = 0
            for mode in ("standard", "depthwise", "pointwise"):
                for dilation in (1, 2, 3):
                    for stride in (1, 2):
                        for _ in range(12):
                            x, kernel, bias, spec = random_case(rng, mode, dilation, stride)
                            got = conv2d_forward(x, kernel, bias, spec)
                            want = conv2d_reference(
                                x, kernel, bias, mode=spec.mode, stride=spec.stride,
                                padding=spec.pad, dilation=spec.dilation,
                            )
                            assert np.max(np.abs(got - want)) <= 1e-12
                            cases += 1
            assert cases >= 200

            for _ in range(20):
                x, kernel, bias, spec = random_case(rng, "standard", 1, 2)
                alt = ConvSpec(spec.kernel_size, spec.in_channels, spec.out_channels,
                               stride=spec.stride, padding=spec.padding, dilation=1,
                               mode="standard", has_bias=spec.has_bias)
                d = conv2d_forward(x, kernel, bias, spec) - conv2d_forward(x, kernel, bias, alt)
                assert np.max(np.abs(d)) <= 1e-12

            for _ in range(10):
                x = rng.standard_normal((2, 3, 9, 9))
                k3 = rng.standard_normal((4, 3, 3, 3))
                k5 = np.zeros((4, 3, 5, 5))
                k5[:, :, ::2, ::2] = k3
                dilated = conv2d_forward(x, k3, None, ConvSpec(3, 3, 4, padding=2, dilation=2))
                inserted = conv2d_forward(x, k5, None, ConvSpec(5, 3, 4, padding=2))
                assert np.max(np.abs(dilated - inserted)) <= 1e-12

            elapsed = time.monotonic() - t0
            print(f"  {cases} oracle cases, runtime {elapsed:.1f}s (budget 120s)")
            assert elapsed < 120.0


class TestCriterion3ComplexityExactness:
    def test_complexity_exactness(self):
        t0 = time.monotonic()
        with criterion(3, "analytic MAO == instrumented counter and analytic PS "
                          "== allocated scalars (exact); separable/standard "
                          "ratio exact in rationals"):
            rng = np.random.default_rng(303)
            for _ in range(20):
                config = random_network_config(rng)
                shape = (1, config.input_channels,
                         int(rng.integers(10, 21)), int(rng.integers(12, 29)))
                report = analyze_network(config, shape)
                model = build_network(config, 0)
                assert model.parameter_count() == report.total_params
                with count_macs() as counter:
                    model.forward(Tensor(rng.standard_normal(shape)))
                assert counter.total == report.total_macs

            for preset in ("reference", "toy"):
                config = load_preset(preset).network
                assert build_network(config, 0).parameter_count() == \
                    analyze_network(config).total_params

            from fractions import Fraction
            from dacnet import layer_macs
            for k, m, n, df in [(3, 32, 64, 10), (3, 8, 24, 6), (5, 10, 15, 8)]:
                dw = layer_macs(ConvSpec(k, m, m, mode="depthwise"), (df, df))
                pw = layer_macs(ConvSpec(1, m, n, mode="pointwise"), (df, df))
                std = layer_macs(ConvSpec(k, m, n, mode="standard"), (df, df))
                assert Fraction(dw + pw, std) == Fraction(1, n) + Fraction(1, k * k)
            assert Fraction(233_600, 1_843_200) == Fraction(1, 64) + Fraction(1, 9)

            elapsed = time.monotonic() - t0
            print(f"  runtime {elapsed:.1f}s (budget 60s)")
            assert elapsed < 60.0


class TestCriterion4ReferenceFootprint:
    def test_reference_config_report(self):
        with criterion(4, "reference config at [1,3,28,499]: PS within +/-25% of "
                          "2.67 M, MAO within +/-50% of 0.44 G, deviation and "
                          "cause printed, dilation-toggle PS invariance exact"):
            config = load_preset("reference").network
            report = analyze_network(config, (1, 3, 28, 499))
            summary = deviation_summary(report)
            print("  " + summary.replace("\n", "\n  "))
            assert abs(report.total_params - TARGET_PS) <= 0.25 * TARGET_PS
            assert abs(report.total_macs - TARGET_MAO) <= 0.50 * TARGET_MAO
            assert "reconstruction" in summary and "%" in summary
            toggled = analyze_network(ablation_variant(config, "no_dco"), (1, 3, 28, 499))
            assert toggled.total_params == report.total_params
            assert build_network(ablation_variant(config, "no_dco"), 0).parameter_count() \
                == build_network(config, 0).parameter_count()


class TestCriterion5ToyEndToEnd:
    @pytest.mark.slow
    def test_toy_end_to_end_with_ablations(self, corpus, tmp_path):
        with criterion(5, "synthetic 9-class corpus: full model reaches test CA "
                          ">= 0.90 within 30 epochs in < 15 min; ablation "
                          "margins hold"):
            root, synth_elapsed = corpus
            out = tmp_path / "ablation"
            t0 = time.monotonic()
            rc = main(["ablate", "--data", str(root), "--out", str(out),
                       "--preset", "toy", "--max-epochs", "12",
                       "--seed", "0", "--workers", "2"])
            assert rc == 0
            elapsed = synth_elapsed + (time.monotonic() - t0)
            with open(out / "ablation.csv") as fh:
                rows = {row["variant"]: float(row["ca"]) for row in csv.DictReader(fh)}
            print(f"  CA: full={rows['full']:.4f} no_dco={rows['no_dco']:.4f} "
                  f"no_mse={rows['no_mse']:.4f}; 12 epochs each; "
                  f"synth+features+3 trainings in {elapsed:.0f}s (budget 900s)")
            assert rows["full"] >= 0.90
            assert rows["full"] >= rows["no_dco"] - 0.02
            assert rows["full"] >= rows["no_mse"] - 0.02
            # 15-minute budget for the full model; the measured window covers
            # data synthesis, feature extraction and all three trainings.
            assert elapsed < 900.0


class TestCriterion6FrontendArithmetic:
    def test_frontend_arithmetic_and_determinism(self, corpus, tmp_path):
        with criterion(6, "10 s @ 16 kHz with 40/20 ms framing -> exactly 499 "
                          "frames x 28 mel bins; features bit-identical across "
                          "runs and worker counts"):
            from dacnet.frontend import compute_features, stft_power
            from dacnet.data import load_segment

            config = FrontendConfig()
            root, _ = corpus
            manifest = load_manifest(root / "manifest.csv")
            samples = load_segment(root / manifest.rows[0].path)
            assert samples.size == 160_000
            power = stft_power(samples, config)
            assert power.shape[1] == 499
            feature = compute_features(samples, config)
            assert feature.values.shape == (3, 28, 499)

            subset = DatasetManifest(root=root, rows=manifest.rows[:6])
            blobs = []
            for workers, name in ((1, "w1"), (2, "w2"), (2, "w2b")):
                cache = FeatureCache(tmp_path / name, config)
                cache.ensure(subset, workers=workers)
                blobs.append(b"".join(
                    cache.path_for(r.path).read_bytes() for r in subset.rows
                ))
            assert blobs[0] == blobs[1] == blobs[2]
            print(f"  499 frames x 28 bins confirmed; {len(subset.rows)} feature "
                  f"files byte-identical for workers 1 and 2")


class TestCriterion7MetricDefinitions:
    def test_metric_definitions(self):
        with criterion(7, "CA = trace/total on constructed cases (14/15); "
                          "majority baseline on the published test counts = "
                          "5964/20491"):
            counts = np.array([[5, 0, 0], [1, 4, 0], [0, 0, 5]])
            targets, preds = [], []
            for i in range(3):
                for j in range(3):
                    targets += [i] * counts[i, j]
                    preds += [j] * counts[i, j]
            matrix = ConfusionMatrix.from_predictions(
                np.array(targets), np.array(preds), 3)
            assert np.array_equal(matrix.counts, counts)
            assert matrix.accuracy() == pytest.approx(14 / 15, abs=1e-12)

            test_counts = (5918, 1154, 398, 625, 570, 1069, 241, 5964, 4552)
            targets = np.repeat(np.arange(9), test_counts)
            majority = ConfusionMatrix.from_predictions(
                targets, np.full(targets.shape, 7), 9)
            assert majority.total == 20491
            assert majority.accuracy() == pytest.approx(5964 / 20491, abs=1e-12)
            print(f"  14/15 = {14/15:.4f}; majority baseline = "
                  f"{5964/20491:.4f}")


class TestCriterion8Determinism:
    def test_checkpoints_identical_across_workers(self, tmp_path):
        with criterion(8, "training twice with the same seed and different "
                          "--workers gives bit-identical checkpoints"):
            root = tmp_path / "micro"
            rc = main(["synth-data", "--out", str(root), "--train-per-class", "3",
                       "--val-per-class", "1", "--test-per-class", "1",
                       "--seed", "0", "--workers", "2"])
            assert rc == 0
            blobs = []
            for workers, name in ((1, "w1"), (4, "w4")):
                out = tmp_path / f"run-{name}"
                rc = main(["train", "--data", str(root), "--out", str(out),
                           "--preset", "toy", "--max-epochs", "2",
                           "--seed", "0", "--workers", str(workers)])
                assert rc == 0
                blobs.append((
                    (out / "checkpoint_last.dacm").read_bytes(),
                    (out / "checkpoint_best.dacm").read_bytes(),
                ))
            assert blobs[0][0] == blobs[1][0]
            assert blobs[0][1] == blobs[1][1]
            print(f"  checkpoint_last and checkpoint_best byte-identical "
                  f"({len(blobs[0][0]):,} bytes) for workers 1 vs 4")
