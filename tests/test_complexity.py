"""Analytic cost model: formula cases, dual-route equality, exact identities."""

import hashlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from dacnet import (
    ConvSpec,
    NetworkConfig,
    Tensor,
    analyze_network,
    build_network,
    count_macs,
    layer_macs,
    layer_params,
    load_preset,
)
from dacnet.complexity import TARGET_MAO, TARGET_PS, bn_params, deviation_summary, linear_params
from dacnet.network import BlockSpec, ablation_variant, receptive_field


class TestFormulaCases:
    def test_depthwise_pointwise_standard_macs(self):
        df = (10, 10)
        dw = layer_macs(ConvSpec(3, 32, 32, mode="depthwise"), df)
        pw = layer_macs(ConvSpec(1, 32, 64, mode="pointwise"), df)
        std = layer_macs(ConvSpec(3, 32, 64, mode="standard"), df)
        assert dw == 28_800
        assert pw == 204_800
        assert dw + pw == 233_600
        assert std == 1_843_200

    def test_separable_to_standard_ratio_identity(self):
        """(K^2*M + N*M) / (K^2*N*M) = 1/N + 1/K^2 in exact rationals."""
        for k, m, n, df in [(3, 32, 64, 10), (3, 8, 16, 7), (5, 12, 20, 9)]:
            dw = layer_macs(ConvSpec(k, m, m, mode="depthwise"), (df, df))
            pw = layer_macs(ConvSpec(1, m, n, mode="pointwise"), (df, df))
            std = layer_macs(ConvSpec(k, m, n, mode="standard"), (df, df))
            assert Fraction(dw + pw, std) == Fraction(1, n) + Fraction(1, k * k)
        assert Fraction(233_600, 1_843_200) == Fraction(1, 64) + Fraction(1, 9)

    def test_single_mac_case(self):
        assert layer_macs(ConvSpec(1, 1, 1, mode="pointwise"), (1, 1)) == 1

    def test_param_cases(self):
        assert layer_params(ConvSpec(3, 32, 32, mode="depthwise")) == 288
        assert layer_params(ConvSpec(3, 32, 64, mode="standard")) == 18_432
        dsc = layer_params(ConvSpec(3, 32, 32, mode="depthwise")) + \
            layer_params(ConvSpec(1, 32, 64, mode="pointwise"))
        assert dsc == 2_336
        assert 18_432 / dsc == pytest.approx(7.89, abs=0.01)
        assert layer_params(ConvSpec(1, 1, 1, mode="pointwise")) == 1

    def test_bias_and_bn_params(self):
        assert linear_params(32, 9) == 32 * 9 + 9  # convolutions have no bias
        assert bn_params(32) == 64

    def test_stride_and_dilation_affect_shape_only(self):
        base = ConvSpec(3, 8, 8, mode="depthwise", padding=2, dilation=2)
        # same output size as dilation 1 with padding 1, so identical MACs
        plain = ConvSpec(3, 8, 8, mode="depthwise", padding=1, dilation=1)
        h, w = 14, 20
        assert base.output_hw(h, w) == plain.output_hw(h, w)
        assert layer_macs(base, base.output_hw(h, w)) == layer_macs(plain, plain.output_hw(h, w))


def random_network_config(rng) -> NetworkConfig:
    widths = [int(rng.choice([4, 6, 8, 12]))]
    rows = []
    n_rows = int(rng.integers(2, 4))
    for i in range(n_rows):
        out = int(rng.choice([4, 6, 8, 12, 16]))
        repeats = 3 if i == n_rows - 1 else int(rng.integers(1, 3))
        rows.append(BlockSpec(
            in_channels=widths[-1], out_channels=out,
            stride=int(rng.integers(1, 3)), repeats=repeats,
            expansion_factor=int(rng.integers(1, 4)),
            dilation=int(rng.integers(1, 4)),
        ))
        widths.append(out)
    return NetworkConfig(
        input_channels=int(rng.integers(1, 4)),
        stem_channels=widths[0],
        stem_stride=int(rng.integers(1, 3)),
        blocks=tuple(rows),
        mse_projection_channels=int(rng.choice([8, 16, 24])),
        num_classes=9,
    )


class TestDualRoutes:
    def test_instrumented_macs_equal_analytic_on_random_configs(self):
        """Runtime MAC counter vs analytic walk, exact, 20 random configs."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            config = random_network_config(rng)
            h = int(rng.integers(10, 21))
            w = int(rng.integers(12, 29))
            shape = (1, config.input_channels, h, w)
            report = analyze_network(config, shape)
            model = build_network(config, seed=0)
            with count_macs() as counter:
                model.forward(Tensor(rng.standard_normal(shape)))
            assert counter.total == report.total_macs

    @pytest.mark.parametrize("preset,shape", [
        ("toy", (4, 3, 28, 128)),  # block0-3.expand train from the Gram matrix, the rest not
        ("toy", (16, 3, 28, 499)),  # every widening unit does
        ("reference", (3, 3, 28, 499)),  # block0-9.expand do
    ])
    def test_training_forward_macs_equal_analytic_on_presets(self, preset, shape):
        """Training mode tallies the convolutions' analytic MACs times the batch,
        whichever path each unit takes; the Gram statistics are not counted."""
        config = load_preset(preset).network
        model = build_network(config, seed=0)
        x = np.random.default_rng(6).standard_normal(shape)
        with count_macs() as counter:
            model.forward(Tensor(x), training=True)
        assert counter.total == analyze_network(config, (1,) + shape[1:]).total_macs * shape[0]

    def test_training_forward_macs_equal_analytic_on_random_configs(self):
        """The random configs of the eval contract, in training mode at batch 1-4."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            config = random_network_config(rng)
            shape = (int(rng.integers(1, 5)), config.input_channels,
                     int(rng.integers(10, 21)), int(rng.integers(12, 29)))
            report = analyze_network(config, (1,) + shape[1:])
            model = build_network(config, seed=0)
            with count_macs() as counter:
                model.forward(Tensor(rng.standard_normal(shape)), training=True)
            assert counter.total == report.total_macs * shape[0]

    def test_mac_counters_are_per_thread(self):
        """Threads counting at the same time each see only their own MACs."""
        config = load_preset("toy").network
        shape = (2, config.input_channels, 28, 64)
        expected = analyze_network(config, (1,) + shape[1:]).total_macs * shape[0]
        model = build_network(config, seed=0)
        x = np.random.default_rng(5).standard_normal(shape)
        n_threads = 4  # more than the cores of a small test machine
        barrier = threading.Barrier(n_threads, timeout=60)
        totals = [None] * n_threads

        def count(i):
            with count_macs() as counter:
                barrier.wait()
                model.predict_logits(x)
                barrier.wait()
            totals[i] = counter.total

        threads = [threading.Thread(target=count, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert totals == [expected] * n_threads

    def test_analytic_params_equal_allocation_on_random_configs(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            config = random_network_config(rng)
            report = analyze_network(config, (1, config.input_channels, 16, 16))
            assert build_network(config, 0).parameter_count() == report.total_params

    def test_presets_params_equal_allocation(self):
        for preset in ("reference", "toy"):
            config = load_preset(preset).network
            report = analyze_network(config)
            assert build_network(config, 0).parameter_count() == report.total_params


class TestNetworkReport:
    def test_totals_equal_sum_of_rows(self):
        report = analyze_network(load_preset("toy").network)
        assert report.total_params == sum(r.params for r in report.rows)
        assert report.total_macs == sum(r.macs for r in report.rows)
        assert report.params_without_bn == sum(
            r.params for r in report.rows if r.kind != "bn"
        )

    def test_reference_config_within_published_bands(self):
        report = analyze_network(load_preset("reference").network, (1, 3, 28, 499))
        assert abs(report.total_params - TARGET_PS) <= 0.25 * TARGET_PS
        assert abs(report.total_macs - TARGET_MAO) <= 0.50 * TARGET_MAO
        summary = deviation_summary(report)
        assert "reconstruction" in summary

    def test_dilation_toggle_invariance(self):
        config = load_preset("reference").network
        toggled = ablation_variant(config, "no_dco")
        a = analyze_network(config)
        b = analyze_network(toggled)
        assert a.total_params == b.total_params
        # depthwise padding equals dilation, so output shapes and MACs match too
        assert a.total_macs == b.total_macs

    def test_single_block_hand_count_via_analytics(self):
        from dacnet.network import layout
        config = NetworkConfig(stem_channels=4, blocks=(BlockSpec(4, 4, 1, 1, 1, 1),),
                               mse_enabled=False, mse_projection_channels=8)
        expand, depthwise, project = (u.spec for u in layout(config).blocks[0].units())
        total = (layer_params(expand) + layer_params(depthwise) + layer_params(project)
                 + bn_params(4) * 3)
        assert total == 92

    def test_render_formats(self):
        report = analyze_network(load_preset("toy").network)
        text = report.to_text()
        assert "PS =" in text and "MAO =" in text
        doc = report.to_dict()
        assert doc["total_params"] == report.total_params
        assert len(doc["layers"]) == len(report.rows)


# SHA-256 of analyze_network(...).to_json() and .to_text() at (1, 3, 28, 499), and
# receptive_field(config, i) for every block instance i, per preset and ablation.
PINNED_REPORTS = {
    ("toy", "full"): (
        "e65d5959498ee3342840a608e636dbe2bd279376a3cfa38a87736aa1beea1a5d",
        "a357c123dda7264ed2bc1f6ab9d4e96516ebdc0a951f72e958ac914ae6ca4510",
        [11, 27, 59, 91, 155, 219]),
    ("toy", "no_dco"): (
        "e65d5959498ee3342840a608e636dbe2bd279376a3cfa38a87736aa1beea1a5d",
        "a357c123dda7264ed2bc1f6ab9d4e96516ebdc0a951f72e958ac914ae6ca4510",
        [7, 15, 31, 47, 79, 111]),
    ("toy", "no_mse"): (
        "ef22924724df86a7d1d5d216905f33b9b79ca2ce34b25e0c7793edcaa476c240",
        "273a23bf1a50a7f425276de439e93a37d97516df82eb3a1e0a2ba78950e88053",
        [11, 27, 59, 91, 155, 219]),
    ("reference", "full"): (
        "43aace501520cb6783da9672102f182e7be2c57ac16f5fcddef0650f48210612",
        "a194c85f10e2cf254a501f1defd133eabc3a194c4e3d9e633218a86a9b6b8498",
        [11, 19, 35, 51, 83, 115, 147, 179, 211, 243, 275, 307, 371, 435, 499, 563]),
    ("reference", "no_dco"): (
        "43aace501520cb6783da9672102f182e7be2c57ac16f5fcddef0650f48210612",
        "a194c85f10e2cf254a501f1defd133eabc3a194c4e3d9e633218a86a9b6b8498",
        [7, 11, 19, 27, 43, 59, 75, 91, 107, 123, 139, 155, 187, 219, 251, 283]),
    ("reference", "no_mse"): (
        "ec1ed11919226fd4e2e7b955ab0fbc20a176417136db0e5de3e487f5cb0f118c",
        "a5e2e2c315142ba2da6ed4e4940ae78687c92b0db7a886197a3156ce18f9a665",
        [11, 19, 35, 51, 83, 115, 147, 179, 211, 243, 275, 307, 371, 435, 499, 563]),
}


@pytest.mark.parametrize("preset, variant", sorted(PINNED_REPORTS))
def test_report_and_receptive_fields_are_pinned(preset, variant):
    """The analyze report's bytes and every instance's receptive field, fixed."""
    config = ablation_variant(load_preset(preset).network, variant)
    report = analyze_network(config, (1, 3, 28, 499))
    json_sha, text_sha, fields = PINNED_REPORTS[preset, variant]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == json_sha
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_sha
    assert [receptive_field(config, i) for i in range(len(config.instances()))] == fields
