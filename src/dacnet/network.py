"""Config-driven construction and execution of the classifier network.

The architecture is: a strided 3x3 input convolution, a chain of
inverted-bottleneck blocks (pointwise expansion -> dilated depthwise 3x3 ->
pointwise projection, each with batch normalization, ReLU on the first two),
per-scale embedding heads (1x1 projection + global average pooling) tapped at
the last three block instances, concatenation into a multi-scale embedding,
and a linear classifier.

:func:`layout` is the single source of architectural truth: it builds every
unit's name, ConvSpec and ReLU flag from a ``NetworkConfig``, in the
network's shape (stem, block instances with their residual flags, taps,
heads). The executable :class:`Model` maps it to units that own parameters,
``Model.plan`` maps those to their convolution geometry at one input size
(:meth:`Layout.at`), and :func:`receptive_field` and the analytic cost walk in
:mod:`dacnet.complexity` fold over it.

``Model.forward`` walks the plan at the input's ``(h, w)``. It is built once
per input size, and only the last size's is kept; building it is the shape
check, which names the first unit the input is too small for. The plan holds
no parameter, statistic or folded kernel, so in eval mode each unit still
folds its batch norm into its kernel on every call, and a parameter written
between calls takes effect at the next one.

Model files ("DACM") are: magic "DACM", a version byte, a little-endian
uint32 length plus that many bytes of config JSON, then ``Model.arena``: every
parameter in declaration order, then every unit's running statistics, float64.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, NamedTuple, Optional

import numpy as np

from . import ops
from .errors import ConfigError, DataError, ShapeError
from .fileio import write_atomic
from .ops import ConvSpec
from .tensor import DTYPE, Tensor
from .validation import check_fields, config_from_dict, config_to_dict

DACM_MAGIC = b"DACM"
DACM_VERSION = 2

ABLATION_VARIANTS = ("full", "no_dco", "no_mse")


@dataclass(frozen=True)
class BlockSpec:
    """One row of the block table; expands to ``repeats`` block instances.

    Only the first instance of a row applies the stride and the channel
    change; the rest run out->out at stride 1. Every instance holds exactly
    three convolution layers.
    """

    in_channels: int
    out_channels: int
    stride: int = 1
    repeats: int = 1
    expansion_factor: int = 3
    dilation: int = 2

    def __post_init__(self):
        check_fields(self, positive=[f.name for f in fields(self)])


@dataclass(frozen=True)
class InstanceSpec:
    """A materialized block instance (after applying the repeat rule)."""

    in_channels: int
    out_channels: int
    stride: int
    expansion_factor: int
    dilation: int

    @property
    def expanded(self) -> int:
        return self.expansion_factor * self.in_channels


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int = 3
    stem_channels: int = 32
    stem_kernel: int = 3
    stem_stride: int = 2
    blocks: tuple[BlockSpec, ...] = field(kw_only=True)  # required
    mse_projection_channels: int = 1280
    num_classes: int = 9
    dilation_enabled: bool = True
    mse_enabled: bool = True

    def __post_init__(self):
        check_fields(self, positive=("input_channels", "stem_channels", "stem_kernel",
                                     "stem_stride", "mse_projection_channels", "num_classes"))

    def instances(self) -> list[InstanceSpec]:
        out: list[InstanceSpec] = []
        prev = self.stem_channels
        for bi, b in enumerate(self.blocks):
            if b.in_channels != prev:
                raise ConfigError(
                    f"block {bi}: in_channels {b.in_channels} does not chain from "
                    f"previous output {prev}"
                )
            dilation = b.dilation if self.dilation_enabled else 1
            for r in range(b.repeats):
                if r == 0:
                    out.append(InstanceSpec(b.in_channels, b.out_channels, b.stride,
                                            b.expansion_factor, dilation))
                else:
                    out.append(InstanceSpec(b.out_channels, b.out_channels, 1,
                                            b.expansion_factor, dilation))
            prev = b.out_channels
        return out

    def tap_indices(self) -> tuple[int, ...]:
        """The block instances feeding the embedding heads: the last three, or
        with ``mse_enabled`` off the last one."""
        instances = self.instances()
        if not self.mse_enabled:
            return (len(instances) - 1,)
        if len(instances) < 3:
            raise ConfigError("multi-scale embedding needs at least 3 block instances")
        taps = tuple(range(len(instances) - 3, len(instances)))
        widths = sorted({instances[t].out_channels for t in taps})
        if len(widths) != 1:
            raise ConfigError(f"tap channel counts differ: {widths}")
        return taps

    def validate(self) -> None:
        if not self.blocks:
            raise ConfigError("network needs at least one block")
        self.tap_indices()  # walks instances() first, so a broken channel chain fails there

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(config_to_dict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "NetworkConfig":
        return config_from_dict(NetworkConfig, json.loads(text), "network")


def ablation_variant(config: NetworkConfig, which: str) -> NetworkConfig:
    """Table-style ablations: disable dilation, disable multi-scale, or neither."""
    if which == "full":
        return config
    if which == "no_dco":
        return replace(config, dilation_enabled=False)
    if which == "no_mse":
        return replace(config, mse_enabled=False)
    raise ConfigError(f"unknown ablation variant {which!r}; choose from {ABLATION_VARIANTS}")


# ---------------------------------------------------------------------------
# Layout: the network's units, built once for the model, its plan and the cost walk
# ---------------------------------------------------------------------------


class Unit(NamedTuple):
    """One convolution of the network, batch norm included, as the config gives it."""

    name: str
    spec: ConvSpec
    act: bool  # ReLU after batch norm


class Instance(NamedTuple):
    """One block instance's three units and whether its input is added to its output."""

    expand: Any
    depthwise: Any
    project: Any
    residual: bool

    def units(self) -> tuple:
        return self.expand, self.depthwise, self.project


class Layout(NamedTuple):
    """The network's units in the shape of the network: the stem, the block
    instances, the tap indices and one head per tap. Each unit is a
    :class:`Unit` in :func:`layout`'s result and whatever :meth:`map` made
    of it after that: a model's :class:`_ConvUnit`, a plan's :class:`_UnitStep`."""

    stem: Any
    blocks: tuple[Instance, ...]
    taps: tuple[int, ...]
    heads: tuple[Any, ...]

    def units(self) -> list:
        """Every unit in declaration order: stem, block units, heads."""
        return [self.stem, *(u for block in self.blocks for u in block.units()), *self.heads]

    def map(self, fn) -> "Layout":
        """The same network with ``fn(unit)`` in place of each unit, applied in
        declaration order."""
        return Layout(fn(self.stem),
                      tuple(Instance(*map(fn, b.units()), b.residual) for b in self.blocks),
                      self.taps, tuple(map(fn, self.heads)))

    def at(self, h: int, w: int) -> "Layout":
        """The plan at input ``(h, w)``: each unit ``u`` as ``_UnitStep(u, geometry)``
        with its convolution's geometry there. Raises ShapeError naming the first
        unit whose kernel outgrows its input."""
        def step(unit) -> _UnitStep:
            nonlocal h, w
            try:
                geometry = ops.conv_geometry(unit.spec, h, w)
            except ShapeError as exc:
                raise ShapeError(f"{unit.name}: {exc}") from exc
            h, w = geometry.out_hw
            return _UnitStep(unit, geometry)

        stem = step(self.stem)
        blocks = tuple(Instance(*map(step, b.units()), b.residual) for b in self.blocks)
        heads = []
        for t, head in zip(self.taps, self.heads):
            h, w = blocks[t].project.geometry.out_hw
            heads.append(step(head))
        return Layout(stem, blocks, self.taps, tuple(heads))

    def run(self, x, unit, add, pool) -> list:
        """Pooled head outputs of ``x``, shallowest first: ``unit(u, a)`` runs unit
        ``u`` on ``a``, ``add(a, b)`` is a residual sum and ``pool(a)`` pools a head."""
        out = unit(self.stem, x)
        tapped = {}
        for i, block in enumerate(self.blocks):
            y = out
            for u in block.units():
                y = unit(u, y)
            out = add(y, out) if block.residual else y
            if i in self.taps:
                tapped[i] = out
        return [pool(unit(head, tapped[t])) for t, head in zip(self.taps, self.heads)]


def layout(config: NetworkConfig) -> Layout:
    """The units of a validated config: the one place their ConvSpecs are built.

    A block instance is a pointwise expansion, a dilated depthwise 3x3 and a
    pointwise projection without ReLU. The depthwise layer carries the
    dilation; its padding equals the dilation so a stride-1 instance preserves
    the spatial extent. Dilation on the 1x1 layers would be a no-op by
    definition. Only an instance that keeps its stride and width adds its input.
    """
    config.validate()
    instances, taps = config.instances(), config.tap_indices()
    stem = ConvSpec(config.stem_kernel, config.input_channels, config.stem_channels,
                    stride=config.stem_stride, padding=(config.stem_kernel - 1) // 2)

    def instance(i: int, inst: InstanceSpec) -> Instance:
        c, d = inst.expanded, inst.dilation
        return Instance(
            Unit(f"block{i}.expand", ConvSpec(1, inst.in_channels, c, mode="pointwise"), True),
            Unit(f"block{i}.depthwise", ConvSpec(3, c, c, stride=inst.stride, padding=d,
                                                  dilation=d, mode="depthwise"), True),
            Unit(f"block{i}.project", ConvSpec(1, c, inst.out_channels, mode="pointwise"), False),
            inst.stride == 1 and inst.in_channels == inst.out_channels)

    head = ConvSpec(1, instances[taps[0]].out_channels, config.mse_projection_channels,
                    mode="pointwise")
    return Layout(Unit("stem", stem, True), tuple(map(instance, range(len(instances)), instances)),
                  taps, tuple(Unit(f"head{j}", head, True) for j in range(len(taps))))


def receptive_field(config: NetworkConfig, upto_instance: Optional[int] = None) -> int:
    """Input extent seen by one output position of a block instance (the deepest
    by default).

    Folds r' = r + (k - 1) * d * jump, jump' = jump * s over the stem and the
    block units up to that instance; pointwise units contribute nothing.
    """
    net = layout(config)
    blocks = net.blocks if upto_instance is None else net.blocks[:upto_instance + 1]
    r, jump = 1, 1
    for _, spec, _ in net._replace(blocks=blocks, heads=()).units():
        r += (spec.kernel_size - 1) * spec.dilation * jump
        jump *= spec.stride
    return r


# ---------------------------------------------------------------------------
# Executable model
# ---------------------------------------------------------------------------


def _he_normal(rng: np.random.Generator, out: np.ndarray, fan_in: int) -> None:
    """Fill ``out`` from N(0, 2 / fan_in) in place, bit-identical to ``rng.normal``."""
    rng.standard_normal(out=out)
    out *= np.sqrt(2.0 / fan_in)


class _ConvUnit:
    """Convolution plus batch norm (and optionally ReLU), owning its parameters.

    The convolution has no bias: batch norm's mean subtraction would cancel it.
    The arrays are allocated uninitialized; the model packs and fills them.
    """

    bn = True  # every unit normalizes; read outside the tests by benchmarks/layertrace.py:253

    def __init__(self, name: str, spec: ConvSpec, act: bool = True):
        self.name = name
        self.spec = spec
        self.act = act
        c = spec.out_channels
        self.kernel = Tensor(np.empty(spec.kernel_shape()), requires_grad=True)
        self.gamma = Tensor(np.empty(c), requires_grad=True)
        self.beta = Tensor(np.empty(c), requires_grad=True)
        self.running_mean = np.empty(c, dtype=DTYPE)
        self.running_var = np.empty(c, dtype=DTYPE)

    def __call__(self, x: Tensor) -> Tensor:
        """Training forward: batch statistics, every operation taped."""
        if ops.trains_from_gram(self.spec, x.shape):
            return ops.pointwise_batchnorm(x, self.kernel, self.gamma, self.beta,
                                           self.running_mean, self.running_var, relu=self.act)
        out = ops.conv2d(x, self.kernel, None, self.spec)
        return ops.batchnorm(out, self.gamma, self.beta, self.running_mean,
                             self.running_var, True, relu=self.act)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.name}.kernel", self.kernel), (f"{self.name}.gamma", self.gamma),
                (f"{self.name}.beta", self.beta)]


@dataclass(frozen=True)
class _UnitStep:
    """One unit at one input size: the unit, whose parameters and statistics are
    read at each call, and its convolution's geometry there."""

    unit: Any
    geometry: ops.ConvGeometry

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval forward: batch norm folded into the kernel
        (:func:`~dacnet.ops.fold_batchnorm`) right before the one convolution."""
        u = self.unit
        kernel, shift = ops.fold_batchnorm(u.kernel.data, u.gamma.data, u.beta.data,
                                           u.running_mean, u.running_var)
        out = ops.conv2d_execute(x, kernel, shift, u.spec, self.geometry)
        if u.act:
            np.maximum(out, 0.0, out=out)
        return out


@dataclass
class MultiScaleEmbedding:
    """Pooled per-scale embeddings and their concatenation.

    ``scales`` is ordered shallowest tap first; ``embedding`` is the
    concatenation in that order.
    """

    scales: list[np.ndarray]
    embedding: np.ndarray


_UNFILLED = object()  # seed of a model whose arena a checkpoint fills: nothing is drawn


class Model:
    """Parameter set plus execution plan for one NetworkConfig; ``arena`` holds the state."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        self.layout = layout(config).map(lambda u: _ConvUnit(*u))
        self.stem, self.blocks, self.taps, self.heads = self.layout
        embed_width = config.mse_projection_channels * len(self.taps)
        self.classifier = Tensor(np.empty((embed_width, config.num_classes)), requires_grad=True)
        self.classifier_bias = Tensor(np.empty(config.num_classes), requires_grad=True)
        self.arena = self._pack()
        self._plan: Optional[tuple[tuple[int, int], Layout]] = None  # the last input size's
        if seed is not _UNFILLED:
            self._initialize(np.random.default_rng(seed))

    def _pack(self) -> np.ndarray:
        """Rebind every parameter, then every running statistic, to a slice of one new array."""
        slots = [(t, "data") for _, t in self.parameters()]
        slots += [(unit, name) for unit in self.units() for name in ("running_mean", "running_var")]
        arrays = [getattr(owner, name) for owner, name in slots]
        arena = np.empty(sum(a.size for a in arrays), dtype="<f8")
        offset = 0
        for (owner, name), a in zip(slots, arrays):
            setattr(owner, name, arena[offset:offset + a.size].reshape(a.shape))
            offset += a.size
        return arena

    def _initialize(self, rng: np.random.Generator) -> None:
        """He-normal weights drawn in declaration order, zero biases, identity batch norm."""
        for unit in self.units():
            # fan-in: the kernel weights feeding one output channel
            _he_normal(rng, unit.kernel.data, unit.kernel.size // unit.spec.out_channels)
            for array, value in ((unit.gamma.data, 1.0), (unit.beta.data, 0.0),
                                 (unit.running_mean, 0.0), (unit.running_var, 1.0)):
                array.fill(value)
        _he_normal(rng, self.classifier.data, self.classifier.shape[0])
        self.classifier_bias.data.fill(0.0)

    # -- parameters ----------------------------------------------------------

    def units(self) -> list[_ConvUnit]:
        return self.layout.units()

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [*(p for unit in self.units() for p in unit.parameters()),
                ("classifier.weight", self.classifier), ("classifier.bias", self.classifier_bias)]

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    # -- execution -----------------------------------------------------------

    def plan(self, h: int, w: int) -> Layout:
        """The units' plan at input ``(h, w)`` (:meth:`Layout.at`), built on the
        first call at a new size; raises ShapeError naming the first unit that
        collapses."""
        if self._plan is None or self._plan[0] != (h, w):
            self._plan = ((h, w), self.layout.at(h, w))
        return self._plan[1]

    def forward(self, x: Tensor, training: bool = False) -> tuple[Tensor, MultiScaleEmbedding]:
        """Logits and multi-scale embedding of a batch.

        ``training=True`` normalizes with batch statistics, updates the
        running statistics and records every operation on an open
        :class:`~dacnet.tensor.GradientTape`. Eval mode is inference: it walks
        the plan on plain arrays, each unit folding its batch norm into its
        kernel (:func:`~dacnet.ops.fold_batchnorm`), and records nothing on a
        tape up to the classifier, so no gradient reaches the convolution
        units' inputs or parameters.
        """
        if x.ndim != 4 or x.shape[1] != self.config.input_channels:
            raise ShapeError(
                f"expected input (B, {self.config.input_channels}, H, W), got {x.shape}"
            )
        plan = self.plan(x.shape[2], x.shape[3])
        if training:
            pooled = plan.run(x, lambda step, a: step.unit(a), ops.add, ops.global_avg_pool)
            embedding = ops.concat(pooled) if len(pooled) > 1 else pooled[0]
            scales = [p.data for p in pooled]
        else:
            scales = plan.run(x.data, _UnitStep.infer, lambda a, b: np.add(a, b, out=a),
                              lambda a: a.mean(axis=(2, 3)))
            embedding = Tensor(np.concatenate(scales, axis=1) if len(scales) > 1 else scales[0])
        logits = ops.linear(embedding, self.classifier, self.classifier_bias)
        return logits, MultiScaleEmbedding(scales=scales, embedding=embedding.data)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(Tensor(x), training=False)
        return logits.data

    # -- serialization ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        config_blob = self.config.to_json().encode()
        header = DACM_MAGIC + struct.pack("<BI", DACM_VERSION, len(config_blob)) + config_blob
        write_atomic(path, [header, self.arena])

    @staticmethod
    def load(path: str | Path) -> "Model":
        """Read a DACM file, each length checked against the file's size first, into an arena."""
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise DataError(f"cannot open model file {path}: {exc.strerror}") from exc
        with fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(9)
            if len(head) < 9 or head[:4] != DACM_MAGIC:
                raise DataError(f"{path}: not a DACM model file")
            version, cfg_len = struct.unpack_from("<BI", head, 4)
            if version != DACM_VERSION:
                raise DataError(f"{path}: unsupported DACM version {version}")
            if 9 + cfg_len > size:
                raise DataError(f"{path}: truncated in the network config")
            try:
                config = NetworkConfig.from_json(fh.read(cfg_len).decode())
                model = Model(config, seed=_UNFILLED)
            except (ValueError, TypeError, RecursionError, ConfigError) as exc:
                raise DataError(f"{path}: corrupt network config: {exc}") from exc
            payload, expected = size - 9 - cfg_len, model.arena.nbytes
            if payload != expected:
                problem = "truncated" if payload < expected else "trailing bytes"
                raise DataError(f"{path}: {problem}: {payload} payload bytes, expected {expected}")
            got = fh.readinto(model.arena)
        if got != expected:
            raise DataError(f"{path}: payload ended after {got} of {expected} bytes")
        return model


def build_network(config: NetworkConfig, seed: int = 0) -> Model:
    """Construct a model with freshly initialized parameters."""
    return Model(config, seed=seed)
