"""Network construction, execution, ablation switches, and serialization."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dacnet import (
    BlockSpec,
    ConfigError,
    GradientTape,
    NetworkConfig,
    ShapeError,
    Tensor,
    ablation_variant,
    build_network,
    load_preset,
)
from dacnet import ops
from dacnet.complexity import analyze_network
from dacnet.network import Model, _ConvUnit, _UnitStep, receptive_field
from dacnet.validation import config_from_dict


def mini_config(**kw):
    """Two block rows, 8 channels, 3 instances (the miniature test network)."""
    defaults = dict(
        stem_channels=8,
        blocks=(BlockSpec(8, 8, 1, 1, 2, 2), BlockSpec(8, 8, 1, 2, 2, 2)),
        mse_projection_channels=16,
        num_classes=9,
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestConstruction:
    def test_reference_param_count_matches_allocation(self):
        config = load_preset("reference").network
        report = analyze_network(config)
        model = build_network(config, seed=0)
        assert model.parameter_count() == report.total_params

    def test_dilation_toggle_keeps_param_count(self):
        config = load_preset("reference").network
        toggled = ablation_variant(config, "no_dco")
        assert build_network(toggled, 0).parameter_count() == \
            build_network(config, 0).parameter_count()

    def test_single_block_hand_count(self):
        """4->4 channels, expansion 1: 36 + 16 + 16 + 24 = 92 parameters."""
        config = NetworkConfig(
            stem_channels=4,
            blocks=(BlockSpec(4, 4, 1, 1, 1, 1),),
            mse_enabled=False,
            mse_projection_channels=8,
        )
        model = build_network(config, 0)
        block_params = sum(t.size for u in model.blocks[0].units() for _, t in u.parameters())
        assert block_params == 92

    def test_channel_chain_break_names_block(self):
        config = NetworkConfig(
            stem_channels=8,
            blocks=(BlockSpec(8, 8, 1, 1), BlockSpec(16, 16, 1, 3)),
        )
        with pytest.raises(ConfigError, match="block 1"):
            build_network(config, 0)

    def test_tap_width_mismatch_rejected(self):
        config = NetworkConfig(
            stem_channels=8,
            blocks=(BlockSpec(8, 8, 1, 2), BlockSpec(8, 12, 1, 1)),
        )
        with pytest.raises(ConfigError, match="tap"):
            build_network(config, 0)

    def test_instances_apply_stride_and_channels_once(self):
        config = mini_config(blocks=(BlockSpec(8, 12, 2, 3, 2, 2),))
        inst = config.instances()
        assert [(i.in_channels, i.out_channels, i.stride) for i in inst] == [
            (8, 12, 2), (12, 12, 1), (12, 12, 1),
        ]

    def test_config_json_round_trip(self):
        config = load_preset("reference").network
        assert NetworkConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("preset, network_sha, run_sha", [
        ("toy", "a709fc3658a9a66ba94aef4d1a779ab6d26e89204372330e866ba447d8dac894",
         "d43771c80a29cae433d86b238b631aa04bf12f3fa3f3d7634a87d60428954d5c"),
        ("reference", "bb3a7e19c197db99fd0be9599e57161d3d9c48f7e6b487abdbea16d03b19b5ca",
         "710fb8c302562a548db97532414d551f2a386e3d6e28a6890ed173470b3960e6"),
    ], ids=["toy", "reference"])
    def test_config_json_bytes_match_preset(self, preset, network_sha, run_sha):
        """A preset's checkpoint config blob and run-config echo keep their bytes:
        a changed default that moves a preset fails here."""
        import hashlib
        run = load_preset(preset)
        assert hashlib.sha256(run.network.to_json().encode()).hexdigest() == network_sha
        assert hashlib.sha256(run.to_json().encode()).hexdigest() == run_sha

    @pytest.mark.parametrize("doc", [
        {},  # no blocks
        {"blocks": [[8, 8, 1, 1, 2, 2, 9, 9]]},  # a block row with too many fields
        ["blocks"],  # a JSON list where an object belongs
    ])
    def test_malformed_config_dict_raises_config_error(self, doc):
        with pytest.raises(ConfigError, match="malformed network config"):
            config_from_dict(NetworkConfig, doc, "network")


class TestForward:
    def test_logits_shape_and_softmax_rows(self):
        model = build_network(mini_config(), 0)
        rng = np.random.default_rng(0)
        logits, _ = model.forward(Tensor(rng.standard_normal((2, 3, 28, 20))))
        assert logits.shape == (2, 9)
        _, probs = ops.softmax_cross_entropy(logits, np.zeros(2, dtype=int))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_embedding_width_follows_mse_flag(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 28, 20))
        wide = build_network(mini_config(), 0)
        _, mse = wide.forward(Tensor(x))
        assert mse.embedding.shape == (1, 48)
        narrow = build_network(mini_config(mse_enabled=False), 0)
        _, sce = narrow.forward(Tensor(x))
        assert sce.embedding.shape == (1, 16)

    def test_reference_embedding_widths(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 28, 63))
        config = load_preset("reference").network
        _, mse = build_network(config, 0).forward(Tensor(x))
        assert mse.embedding.shape == (1, 3840)
        narrow = ablation_variant(config, "no_mse")
        _, sce = build_network(narrow, 0).forward(Tensor(x))
        assert sce.embedding.shape == (1, 1280)

    def test_embedding_thirds_equal_scales_in_order(self):
        model = build_network(mini_config(), 0)
        rng = np.random.default_rng(2)
        _, mse = model.forward(Tensor(rng.standard_normal((2, 3, 28, 20))))
        assert len(mse.scales) == 3
        width = mse.scales[0].shape[1]
        for j in range(3):
            assert np.array_equal(mse.embedding[:, j * width:(j + 1) * width], mse.scales[j])

    def test_duplicated_input_rows_identical_in_eval(self):
        model = build_network(mini_config(), 0)
        rng = np.random.default_rng(3)
        one = rng.standard_normal((1, 3, 28, 20))
        batch = np.concatenate([one, one, one])
        logits, _ = model.forward(Tensor(batch))
        assert np.max(np.abs(logits.data[0] - logits.data[1])) <= 1e-12
        assert np.max(np.abs(logits.data[0] - logits.data[2])) <= 1e-12

    def test_eval_forward_is_pure(self):
        model = build_network(mini_config(), 0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 28, 20))
        a = model.predict_logits(x)
        b = model.predict_logits(x)
        assert a.tobytes() == b.tobytes()

    def test_wrong_channel_count_rejected(self):
        model = build_network(mini_config(), 0)
        with pytest.raises(ShapeError, match="input"):
            model.forward(Tensor(np.zeros((1, 4, 28, 20))))

    def test_spatial_collapse_names_stage(self):
        model = build_network(mini_config(), 0)
        with pytest.raises(ShapeError, match="stem"):
            model.plan(28, 0)


class TestTape:
    def test_toy_forward_records_one_op_per_layer(self, monkeypatch):
        """Each of the 22 units records one op when it trains from its input's
        Gram matrix (at this shape block0.expand and block1.expand) and conv +
        BN(+ReLU) otherwise, then 3 residual adds + 3 pools + concat + linear +
        loss: 2 + 2*20 + 9 = 51."""
        model = build_network(load_preset("toy").network, 0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 28, 64)))
        rule, selected = ops.trains_from_gram, []

        def spy(spec, x_shape):
            selected.append(rule(spec, x_shape))
            return selected[-1]

        monkeypatch.setattr(ops, "trains_from_gram", spy)
        with GradientTape() as tape:
            logits, _ = model.forward(x, training=True)
            ops.softmax_cross_entropy(logits, np.array([0, 1]))
        assert len(selected) == 22 and sum(selected) == 2
        assert len(tape) == 2 * 22 - sum(selected) + 9 == 51

    @pytest.mark.parametrize("preset,batch,selected", [
        ("toy", 32, [f"block{i}.expand" for i in range(6)] + ["head0", "head1", "head2"]),
        ("toy", 16, [f"block{i}.expand" for i in range(6)] + ["head0", "head1", "head2"]),
        ("reference", 3, [f"block{i}.expand" for i in range(10)]),
    ])
    def test_gram_rule_at_the_benchmark_batches(self, monkeypatch, preset, batch, selected):
        """Units that train from their input's Gram matrix on 28x499 segments, at the
        benchmark's batches (toy's last batch of an epoch holds 16). On reference,
        block10-15.expand and the heads have too few positions per input channel."""
        model = build_network(load_preset(preset).network, 0)
        names = {id(unit.kernel): unit.name for unit in model.units()}
        widening = [unit.name for unit in model.units() if unit.spec.mode == "pointwise"
                    and unit.spec.out_channels > unit.spec.in_channels]
        taken = []
        op = ops.pointwise_batchnorm

        def spy(x, kernel, *args, **kwargs):
            taken.append(names[id(kernel)])
            return op(x, kernel, *args, **kwargs)

        monkeypatch.setattr(ops, "pointwise_batchnorm", spy)
        x = np.random.default_rng(1).standard_normal((batch, 3, 28, 499))
        model.forward(Tensor(x), training=True)
        assert taken == selected
        assert set(taken) <= set(widening)

    def test_backward_frees_activations_as_it_replays(self):
        """A toy training step's backward peaks near the forward's live bytes and
        leaves only the parameter gradients behind (numpy reports its buffers to
        tracemalloc). A tape that kept its records until it died would peak at
        about 2.2x the forward's bytes and keep ~8 MB of activations and their
        gradients after backward. The forward holds ~3.13 MB: the four widening
        units that train from their input's Gram matrix store no wide
        pre-normalization activation, which took it to ~3.99 MB."""
        model = build_network(load_preset("toy").network, 0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3, 28, 128)))
        y = rng.integers(0, 9, 4)
        grad_bytes = sum(t.data.nbytes for _, t in model.parameters())

        def step():
            model.zero_grad()
            with GradientTape() as tape:
                logits, _ = model.forward(x, training=True)
                loss, _ = ops.softmax_cross_entropy(logits, y)
            forward_live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            return forward_live, *tracemalloc.get_traced_memory()

        step()  # first-call caches are not the step's memory
        tracemalloc.start()
        try:
            forward_live, after, peak = step()
        finally:
            tracemalloc.stop()
        assert 2 << 20 < forward_live <= 3.5e6  # the activations were traced, y was not
        assert peak <= 1.25 * forward_live
        assert after <= grad_bytes + (64 << 10)

    def test_eval_forward_records_no_convolution_or_batchnorm(self):
        """Eval mode is inference: folded units put nothing on an open tape."""
        model = build_network(load_preset("toy").network, 0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 28, 64)))
        with GradientTape() as tape:
            logits, _ = model.forward(x, training=False)
            loss, _ = ops.softmax_cross_entropy(logits, np.array([0, 1]))
        assert len(tape) == 2  # only the classifier, whose weight requires grad, and the loss
        tape.backward(loss)
        assert model.classifier.grad is not None and model.classifier_bias.grad is not None
        for unit in model.units():
            assert unit.kernel.grad is None
            if unit.bn:
                assert unit.gamma.grad is None and unit.beta.grad is None


def randomize_batchnorm(unit, rng):
    """Non-trivial gamma, beta and running statistics of a unit."""
    c = unit.spec.out_channels
    unit.gamma.data[...] = rng.uniform(0.5, 1.5, c)
    unit.beta.data[...] = rng.standard_normal(c)
    unit.running_mean[...] = rng.standard_normal(c)
    unit.running_var[...] = rng.uniform(0.25, 4.0, c)


def eval_walk(model, x, folded):
    """Eval logits of ``model``, written out apart from its plan: each unit's
    convolution (:func:`~dacnet.ops.conv2d_forward`), either with batch norm
    folded into the kernel and ReLU in place, which is what inference runs, or
    with its raw kernel followed by eval-mode batch norm; then the residual
    adds, pooling, concatenation and the linear layers."""
    def unit(u, a):
        if folded:
            kernel, shift = ops.fold_batchnorm(u.kernel.data, u.gamma.data, u.beta.data,
                                               u.running_mean, u.running_var)
            out = ops.conv2d_forward(a, kernel, shift, u.spec)
            return np.maximum(out, 0.0, out=out) if u.act else out
        out = ops.conv2d_forward(a, u.kernel.data, None, u.spec)
        out, _ = ops.batchnorm_forward(out, u.gamma.data, u.beta.data, u.running_mean.copy(),
                                       u.running_var.copy(), training=False, relu=u.act)
        return out

    out, tapped = unit(model.stem, x), []
    for block in model.blocks:
        y = out
        for u in block.units():
            y = unit(u, y)
        out = y + out if block.residual else y
        tapped.append(out)
    embedding = np.concatenate([unit(head, tapped[t]).mean(axis=(2, 3))
                                for t, head in zip(model.taps, model.heads)], axis=1)
    return embedding @ model.classifier.data + model.classifier_bias.data


def max_relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestFoldedInference:
    """Eval-mode batch norm folded into the kernel equals the unfolded two-step path."""

    @pytest.mark.parametrize("act", [True, False])
    @pytest.mark.parametrize("spec, shape", [
        (ops.ConvSpec(3, 3, 5, stride=2, padding=1), (2, 3, 11, 14)),
        (ops.ConvSpec(3, 6, 6, stride=2, padding=2, dilation=2, mode="depthwise"),
         (2, 6, 13, 12)),
        (ops.ConvSpec(3, 4, 4, stride=1, padding=3, dilation=3, mode="depthwise"),
         (3, 4, 9, 10)),
        (ops.ConvSpec(1, 4, 7, mode="pointwise"), (2, 4, 5, 6)),
    ], ids=["standard", "depthwise-d2-s2", "depthwise-d3", "pointwise"])
    def test_unit_matches_conv_then_batchnorm(self, spec, shape, act):
        rng = np.random.default_rng(20)
        unit = _ConvUnit("unit", spec, act=act)
        unit.kernel.data[...] = rng.standard_normal(spec.kernel_shape())
        randomize_batchnorm(unit, rng)
        x = rng.standard_normal(shape)
        conv = ops.conv2d_forward(x, unit.kernel.data, None, spec)
        want, _ = ops.batchnorm_forward(conv, unit.gamma.data, unit.beta.data,
                                        unit.running_mean.copy(), unit.running_var.copy(),
                                        training=False, relu=act)
        running = (unit.running_mean.copy(), unit.running_var.copy())
        got = _UnitStep(unit, ops.conv_geometry(spec, *shape[2:])).infer(x)
        assert max_relative_error(got, want) <= 1e-12
        assert (got.min() >= 0.0) == act
        # inference leaves the unit's running statistics untouched
        assert np.array_equal(unit.running_mean, running[0])
        assert np.array_equal(unit.running_var, running[1])

    @pytest.mark.parametrize("preset", ["toy", "reference"])
    def test_model_logits_match_unfolded_path(self, preset):
        model = build_network(load_preset(preset).network, 0)
        rng = np.random.default_rng(21)
        for unit in model.units():
            randomize_batchnorm(unit, rng)
        x = rng.standard_normal((2, 3, 28, 64))
        folded = model.predict_logits(x)
        unfolded = eval_walk(model, x, folded=False)
        assert max_relative_error(folded, unfolded) <= 1e-12


class TestInferencePlan:
    """Eval mode runs from a per-input-size plan of the units; these pin it
    against walks and models built apart from it."""

    @pytest.mark.parametrize("preset", ["toy", "reference"])
    @pytest.mark.parametrize("batch,width", [(1, 499), (3, 499), (1, 64), (3, 64)])
    def test_logits_bit_identical_to_the_folded_walk(self, preset, batch, width):
        model = build_network(load_preset(preset).network, 0)
        rng = np.random.default_rng(22)
        for unit in model.units():
            randomize_batchnorm(unit, rng)
        x = rng.standard_normal((batch, 3, 28, width))
        got = model.predict_logits(x)
        assert got.tobytes() == eval_walk(model, x, folded=True).tobytes()
        assert max_relative_error(got, eval_walk(model, x, folded=False)) <= 1e-12

    def test_parameter_writes_take_effect_at_the_next_call(self, tmp_path):
        """Nothing the plan holds goes stale: after each direct write the logits
        equal those of a model loaded from a checkpoint of the written state."""
        model = build_network(load_preset("toy").network, 0)
        rng = np.random.default_rng(23)
        for unit in model.units():
            randomize_batchnorm(unit, rng)
        x = rng.standard_normal((2, 3, 28, 64))
        before = model.predict_logits(x)
        first = before
        unit = model.blocks[2].depthwise
        for i, array in enumerate([unit.gamma.data, unit.running_var, unit.kernel.data,
                                   model.classifier.data]):
            array *= 1.5
            got = model.predict_logits(x)
            model.save(tmp_path / f"{i}.dacm")
            assert got.tobytes() == Model.load(tmp_path / f"{i}.dacm").predict_logits(x).tobytes()
            assert not np.array_equal(got, before) and not np.array_equal(got, first)
            before = got

    def test_input_sizes_in_turn_match_fresh_models(self):
        config = load_preset("toy").network
        model = build_network(config, 0)
        rng = np.random.default_rng(24)
        for width in (64, 40, 64):
            x = rng.standard_normal((2, 3, 28, width))
            assert model.predict_logits(x).tobytes() == \
                build_network(config, 0).predict_logits(x).tobytes()

    @pytest.mark.parametrize("training", [False, True])
    def test_collapsing_input_names_the_stem_and_leaves_the_model_usable(self, training):
        """A 4x4 stem with padding 1 does not fit a width-1 input. The failed call
        changes no state, and the model then runs as one that never saw it."""
        config = mini_config(stem_kernel=4)
        model, fresh = build_network(config, 0), build_network(config, 0)
        x = Tensor(np.random.default_rng(25).standard_normal((2, 3, 28, 20)))
        model.forward(x, training)
        fresh.forward(x, training)
        state = model.arena.copy()
        with pytest.raises(ShapeError, match=r"^stem: effective kernel extent 4 exceeds "
                                             r"padded input width 3$"):
            model.forward(Tensor(x.data[..., :1]), training)
        assert np.array_equal(model.arena, state)
        assert model.forward(x, training)[0].data.tobytes() == \
            fresh.forward(x, training)[0].data.tobytes()

    @pytest.mark.parametrize("training", [False, True])
    def test_collapsing_unit_is_named(self, training):
        """The presets' depthwise units pad by their dilation and fit any input;
        one given a wider kernel span without padding is named when it does not."""
        model = build_network(mini_config(), 0)
        unit = model.blocks[1].depthwise
        unit.spec = replace(unit.spec, padding=0, dilation=6)
        with pytest.raises(ShapeError, match=r"^block1\.depthwise: effective kernel extent 13 "
                                             r"exceeds padded input width 10$"):
            model.forward(Tensor(np.zeros((1, 3, 28, 20))), training)

    def test_geometry_computed_once_per_shape(self, monkeypatch):
        """A second training step and a second eval forward at the same input
        size compute no tap window: forward and backward read cached geometry."""
        model = build_network(load_preset("toy").network, 0)
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((2, 3, 28, 52)))
        y = rng.integers(0, 9, 2)

        def step_and_predict(width_batch):
            model.zero_grad()
            with GradientTape() as tape:
                logits, _ = model.forward(x, training=True)
                loss, _ = ops.softmax_cross_entropy(logits, y)
            tape.backward(loss)
            model.predict_logits(width_batch)

        step_and_predict(x.data[:1])
        calls = []
        tap_slices = ops._tap_slices
        monkeypatch.setattr(ops, "_tap_slices", lambda *args: calls.append(args) or
                            tap_slices(*args))
        step_and_predict(x.data[:1])
        assert calls == []
        model.predict_logits(rng.standard_normal((1, 3, 28, 53)))
        assert calls  # a new input size does compute its windows

    def test_input_types_match_contiguous_float64(self):
        model = build_network(mini_config(), 0)
        rng = np.random.default_rng(27)
        x = rng.standard_normal((2, 3, 28, 40))
        single = x.astype(np.float32)
        assert model.predict_logits(single).tobytes() == \
            model.predict_logits(single.astype(np.float64)).tobytes()
        assert model.predict_logits(x.tolist()).tobytes() == model.predict_logits(x).tobytes()
        for view in (x[..., ::2], x.transpose(0, 1, 3, 2)):
            assert not view.flags.c_contiguous
            assert model.predict_logits(view).tobytes() == \
                model.predict_logits(np.ascontiguousarray(view)).tobytes()


class TestGradientsEndToEnd:
    """Whole-network finite-difference checks.

    ReLU makes the loss piecewise smooth: at unlucky evaluation points some
    pre-activation sits within the difference step of zero and the central
    difference straddles the kink, which shows up as an isolated error on the
    order of 1e-2. A wrong gradient fails at every point (the mutation test
    in test_gradients.py measures ~0.5), so these checks evaluate at the
    first generic point drawn from a fixed seed list.
    """

    def check_generic_point(self, make_inputs, tol=1e-5, seeds=(0, 1, 2, 3, 4)):
        from dacnet import finite_difference_check
        errors = []
        for seed in seeds:
            loss_fn, tensors = make_inputs(seed)
            err = finite_difference_check(loss_fn, tensors)
            errors.append(err)
            if err <= tol:
                return
        raise AssertionError(f"no seed passed {tol}: errors {errors}")

    def test_input_gradient_full_chain(self):
        model = build_network(mini_config(), 0)

        def make(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((1, 3, 14, 10)) * 0.5, requires_grad=True)
            y = rng.integers(0, 9, 1)

            def loss():
                logits, _ = model.forward(x, training=True)
                return ops.softmax_cross_entropy(logits, y)[0]

            return loss, [x]

        self.check_generic_point(make)

    def test_selected_parameter_gradients(self):
        def make(seed):
            model = build_network(mini_config(), seed)
            rng = np.random.default_rng(seed + 100)
            x = Tensor(rng.standard_normal((2, 3, 14, 10)) * 0.5)
            y = rng.integers(0, 9, 2)
            picks = [model.blocks[0].depthwise.kernel, model.heads[0].gamma,
                     model.classifier_bias]

            def loss():
                logits, _ = model.forward(x, training=True)
                return ops.softmax_cross_entropy(logits, y)[0]

            return loss, picks

        self.check_generic_point(make)


class TestAblation:
    def test_full_is_identity(self):
        config = mini_config()
        assert ablation_variant(config, "full") == config

    def test_no_dco_zeroes_dilation_only(self):
        config = load_preset("reference").network
        variant = ablation_variant(config, "no_dco")
        assert all(i.dilation == 1 for i in variant.instances())
        assert variant.blocks == config.blocks
        assert build_network(variant, 0).parameter_count() == \
            build_network(config, 0).parameter_count()

    def test_no_mse_removes_parameters(self):
        config = load_preset("reference").network
        variant = ablation_variant(config, "no_mse")
        full_params = build_network(config, 0).parameter_count()
        narrow_params = build_network(variant, 0).parameter_count()
        # two 1x1 projection heads and the wider classifier rows disappear
        assert narrow_params < full_params

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            ablation_variant(mini_config(), "no_everything")

    def test_receptive_field_shrinks_without_dilation(self):
        config = load_preset("reference").network
        assert receptive_field(ablation_variant(config, "no_dco")) < receptive_field(config)


class TestSerialization:
    def test_model_round_trip_bit_exact(self, tmp_path):
        model = build_network(mini_config(), seed=7)
        rng = np.random.default_rng(8)
        # give the running stats non-default values
        x = rng.standard_normal((4, 3, 28, 20))
        with GradientTape():
            model.forward(Tensor(x), training=True)
        path = tmp_path / "model.dacm"
        model.save(path)
        back = type(model).load(path)
        assert back.config == model.config
        probe = rng.standard_normal((2, 3, 28, 20))
        assert back.predict_logits(probe).tobytes() == model.predict_logits(probe).tobytes()

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        """A checkpoint load builds the units without drawing weights it overwrites."""
        model = build_network(mini_config(), seed=7)
        path = tmp_path / "model.dacm"
        model.save(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        back = Model.load(path)
        assert [t.data.tobytes() for _, t in back.parameters()] == [
            t.data.tobytes() for _, t in model.parameters()
        ]
        back.save(tmp_path / "again.dacm")
        assert (tmp_path / "again.dacm").read_bytes() == path.read_bytes()

    def test_truncated_model_rejected(self, tmp_path):
        from dacnet import DataError
        model = build_network(mini_config(), 0)
        path = tmp_path / "model.dacm"
        model.save(path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataError, match="truncated"):
            type(model).load(path)


    @pytest.mark.parametrize("damage", [
        lambda cfg: cfg.replace(b"{", b"\xff", 1),    # not UTF-8
        lambda cfg: cfg.replace(b"{", b"#", 1),        # not JSON
        lambda cfg: cfg.replace(b'"blocks"', b'"blockz"'),  # JSON, not a config
    ])
    def test_corrupt_config_is_data_error(self, tmp_path, damage):
        import struct
        from dacnet import DataError
        path = tmp_path / "model.dacm"
        build_network(mini_config(), 0).save(path)
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", raw, 5)
        cfg = damage(raw[9:9 + cfg_len])
        assert len(cfg) == cfg_len
        path.write_bytes(raw[:9] + cfg + raw[9 + cfg_len:])
        with pytest.raises(DataError, match="corrupt network config"):
            Model.load(path)

    def test_config_nested_too_deep_is_data_error(self, tmp_path):
        import struct
        from dacnet import DataError
        blob = b"[" * 100000
        path = tmp_path / "model.dacm"
        path.write_bytes(b"DACM" + struct.pack("<BI", 2, len(blob)) + blob)
        with pytest.raises(DataError, match="corrupt network config: maximum recursion depth"):
            Model.load(path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        from dacnet import fileio
        from test_frontend import _FailingFile
        model = build_network(mini_config(), 0)
        path = tmp_path / "model.dacm"
        if existing:
            build_network(mini_config(), 1).save(path)
        before = path.read_bytes() if existing else None
        monkeypatch.setattr(fileio, "open", _FailingFile, raising=False)
        with pytest.raises(OSError, match="no space"):
            model.save(path)
        assert [p.name for p in tmp_path.iterdir()] == (["model.dacm"] if existing else [])
        if existing:
            assert path.read_bytes() == before


def running_statistics(model):
    for unit in model.units():
        yield from (unit.running_mean, unit.running_var)


@pytest.fixture(params=["toy"])
def arena_model(request):
    """A model of the preset ``request.param``, trained for two steps."""
    from dacnet.training import TrainConfig, train
    model = build_network(load_preset(request.param).network, 3)
    assert_in_arena(model)
    x = np.random.default_rng(4).standard_normal((4, 3, 28, 64))
    train(model, x, np.array([0, 1, 2, 3]), TrainConfig(batch_size=2, max_epochs=1))
    return model


def assert_in_arena(model):
    arrays = [t.data for _, t in model.parameters()] + list(running_statistics(model))
    assert all(np.shares_memory(a, model.arena) for a in arrays)


class TestArena:
    """Every parameter and running statistic is a view of ``Model.arena``."""

    def test_views_after_construction_training_and_load(self, arena_model, tmp_path):
        assert_in_arena(arena_model)
        arena_model.save(tmp_path / "model.dacm")
        assert_in_arena(Model.load(tmp_path / "model.dacm"))

    def test_size_is_parameters_and_two_statistics_per_channel(self, arena_model):
        channels = sum(unit.spec.out_channels for unit in arena_model.units())
        assert arena_model.arena.size == arena_model.parameter_count() + 2 * channels

    def test_checkpoint_is_header_parameters_then_statistics(self, arena_model, tmp_path):
        import struct
        path = tmp_path / "model.dacm"
        arena_model.save(path)
        blob = arena_model.config.to_json().encode()
        arrays = [t.data for _, t in arena_model.parameters()]
        arrays += running_statistics(arena_model)
        want = b"DACM" + struct.pack("<BI", 2, len(blob)) + blob
        want += b"".join(a.astype("<f8").tobytes() for a in arrays)
        assert path.read_bytes() == want


class TestCapacity:
    def test_overfit_random_labels(self):
        """200 steps on 32 fixed random samples reach >= 99% train accuracy."""
        from dacnet.training import TrainConfig, AdamState, adam_step
        config = mini_config(
            blocks=(BlockSpec(8, 8, 2, 1, 2, 2), BlockSpec(8, 8, 1, 2, 2, 2)),
        )
        model = build_network(config, seed=0)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((32, 3, 14, 12))
        y = rng.integers(0, 9, 32)
        params = model.parameters()
        state = AdamState(params)
        tc = TrainConfig(learning_rate=0.003, weight_decay=0.0)
        xt = Tensor(x)
        for _ in range(200):
            model.zero_grad()
            with GradientTape() as tape:
                logits, _ = model.forward(xt, training=True)
                loss, _ = ops.softmax_cross_entropy(logits, y)
            tape.backward(loss)
            adam_step(params, state, tc, tc.learning_rate)
        accuracy = (model.predict_logits(x).argmax(axis=1) == y).mean()
        assert accuracy >= 0.99
