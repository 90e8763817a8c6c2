"""Tests of the benchmark's own checks: each must fail on a deliberately wrong output.

    python3 -m pytest benchmarks/tests -q

Not collected by the package's test suite (``pytest.ini`` limits it to
``tests/``). Runs in a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import PER_LAYER, Tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402

from dacnet import ops, training  # noqa: E402
from dacnet.complexity import analyze_network  # noqa: E402
from dacnet.data import SAMPLE_RATE, _synthesize_segment  # noqa: E402
from dacnet.frontend import FrontendConfig, compute_features  # noqa: E402
from dacnet.network import NetworkConfig, BlockSpec, build_network  # noqa: E402
from dacnet.tensor import GradientTape, Tensor  # noqa: E402
from dacnet.wav import write_wav  # noqa: E402

TINY = NetworkConfig(
    stem_channels=4,
    blocks=(BlockSpec(4, 6, 2, 1, 2, 2), BlockSpec(6, 6, 1, 2, 2, 2)),
    mse_projection_channels=8,
)


def test_macs_exact_passes_and_off_by_one_fails():
    per_sample = analyze_network(TINY, (1, 3, 28, 40)).total_macs
    model = build_network(TINY, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 3, 28, 40))
    with ops.count_macs() as counter:
        model.forward(Tensor(x))
    assert checks.check_macs(counter.total, per_sample, 3) == []
    assert checks.check_macs(counter.total + 1, per_sample, 3)
    assert checks.check_macs(counter.total, per_sample, 2)


def test_accuracy_fails_on_permuted_labels():
    logits = np.eye(9)[np.arange(18) % 9] + 0.1
    labels = np.arange(18) % 9
    assert checks.check_accuracy(1.0, logits, labels) == []
    assert checks.check_accuracy(1.0, logits, np.roll(labels, 1))


def test_batch_independence_fails_on_perturbed_logit():
    logits = np.random.default_rng(1).normal(size=(5, 9))
    assert checks.check_batch_independence(logits, logits.copy()) == []
    wrong = logits.copy()
    wrong[3, 4] += 1e-8
    assert checks.check_batch_independence(logits, wrong)


def test_loss_check_fails_when_loss_rises_or_is_not_finite():
    assert checks.check_loss_falls([2.2, 1.5]) == []
    assert checks.check_loss_falls([1.5, 2.2])
    assert checks.check_loss_falls([2.2, float("nan")])
    assert checks.check_loss_falls([2.2])


def test_cache_check_fails_on_a_warm_pass_that_recomputes():
    assert checks.check_cache_passes((360, 0), (0, 360), 360) == []
    assert checks.check_cache_passes((360, 0), (1, 359), 360)
    assert checks.check_cache_passes((359, 1), (0, 360), 360)


@pytest.fixture(scope="module")
def segment(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "seg.wav"
    write_wav(path, SAMPLE_RATE, _synthesize_segment(3, np.random.default_rng(7)))
    return path


def test_feature_oracle_matches_and_one_perturbed_value_fails(segment):
    config = FrontendConfig()
    sr, samples = checks.read_pcm16(segment)
    reference = checks.logmel_deltas(samples, sr, config.frame_samples, config.hop_samples,
                                     config.fft_size, config.mel_bins, config.delta_window,
                                     config.log_floor)
    from dacnet.data import load_segment

    values = compute_features(load_segment(segment), config).values
    args = (len(samples), config.frame_samples, config.hop_samples)
    assert checks.check_features("seg", values, reference, *args) == []
    perturbed = values.copy()
    perturbed[1, 5, 100] += 1e-6
    assert checks.check_features("seg", perturbed, reference, *args)
    assert checks.check_identical("seg", values, values.copy()) == []
    perturbed = values.copy()
    perturbed[2, 0, 0] = np.nextafter(perturbed[2, 0, 0], np.inf)
    assert checks.check_identical("seg", values, perturbed)
    # a frame count off the (n - frame) // hop + 1 law is caught
    assert checks.check_features("seg", values[..., :-1], reference[..., :-1], *args)


def test_tracer_leaves_results_unchanged_and_reports_every_metric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3, 28, 40))
    y = np.arange(4) % 9

    def one_step():
        model = build_network(TINY, seed=1)
        params = model.parameters()
        model.zero_grad()
        with GradientTape() as tape:
            logits, _ = model.forward(Tensor(x), training=True)
            loss, _ = ops.softmax_cross_entropy(logits, y)
        tape.backward(loss)
        # through the module, as the training loop calls it
        training.adam_step(params, training.AdamState(params), training.TrainConfig(), 1e-3)
        return [p.data.copy() for _, p in params], model.predict_logits(x)

    plain = one_step()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_step()
    finally:
        tracer.uninstall()
    for a, b in zip(plain[0] + [plain[1]], traced[0] + [traced[1]]):
        assert a.tobytes() == b.tobytes()
    metrics = tracer.metrics()
    assert list(metrics) == list(PER_LAYER)
    assert metrics["tensor.records_per_step"]["value"] > 0
    assert metrics["network.depthwise.bwd_ms"]["value"] > 0
    assert metrics["network.classifier.fwd_gmac_per_s"]["value"] > 0
    assert metrics["frontend.stft_power_ms"]["value"] == 0
    assert ops.conv2d.__module__ == "dacnet.ops" and "wrapper" not in ops.conv2d.__qualname__


def test_benchmark_json_names_every_metric_and_workload_the_runs_print():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER


def test_an_operation_that_raises_is_counted_as_failed_and_the_run_goes_on():
    printed = []
    ops_ = workloads.Operations(printed.append)
    seconds = []

    def broken():
        raise ValueError("wrong")

    assert ops_.timed(seconds, lambda: 7) == 7
    assert ops_.timed(seconds, broken) is None
    assert ops_.timed(seconds, lambda: 8) == 8
    assert (ops_.attempted, ops_.failed, len(seconds)) == (3, 1, 2)
    assert printed == ["FAILED broken: ValueError('wrong')"]


def test_hooked_calls_around_each_call_and_restores_the_method():
    class Owner:
        def save(self, path):
            calls.append(("save", path))

    calls = []
    original = Owner.save
    with workloads.hooked(Owner, "save", before=lambda o, p: calls.append(("before", p)),
                          after=lambda o, p: calls.append(("after", p))):
        Owner().save("a")
    Owner().save("b")
    assert calls == [("before", "a"), ("save", "a"), ("after", "a"), ("save", "b")]
    assert Owner.save is original
