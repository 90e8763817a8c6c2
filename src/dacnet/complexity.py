"""Analytic parameter-size (PS) and multiply-accumulate (MAO) accounting.

Cost model per convolution at output size H' x W' (one sample):

    depthwise:  K * K * M * H' * W'
    pointwise:  N * M * H' * W'
    standard:   K * K * N * M * H' * W'

Note that the depthwise term carries both spatial factors, exactly like the
pointwise term. Dilation and stride affect only the output size, never the
per-position cost. Convention: one fused multiply-add is one MAO (not two
FLOPs); batch norm, ReLU and pooling contribute zero MAO; bias additions are
not multiplies and are likewise excluded. Parameter counts include batch-norm
scale/shift pairs and biases where present; the report also carries a
batch-norm-free subtotal.

Every total here is checked elsewhere against two independent routes: the
model's actually allocated trainable scalars (exact integer equality) and the
runtime instrumentation counter in :mod:`dacnet.ops`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .network import (
    NetworkConfig,
    head_conv_spec,
    instance_conv_specs,
    stem_conv_spec,
)
from .ops import ConvSpec


def layer_params(spec: ConvSpec) -> int:
    """Trainable scalars of one convolution layer (a pointwise layer has K = 1)."""
    k2 = spec.kernel_size ** 2
    if spec.mode == "depthwise":
        count = k2 * spec.in_channels
    else:
        count = k2 * spec.in_channels * spec.out_channels
    if spec.has_bias:
        count += spec.out_channels
    return count


def layer_macs(spec: ConvSpec, output_shape: tuple[int, int]) -> int:
    """Multiply-accumulates of one convolution at the given output size (pointwise: K = 1)."""
    ho, wo = output_shape
    positions = ho * wo
    k2 = spec.kernel_size ** 2
    if spec.mode == "depthwise":
        return k2 * spec.in_channels * positions
    return k2 * spec.out_channels * spec.in_channels * positions


def bn_params(channels: int) -> int:
    return 2 * channels


def linear_params(in_features: int, out_features: int, has_bias: bool = True) -> int:
    return in_features * out_features + (out_features if has_bias else 0)


def linear_macs(in_features: int, out_features: int) -> int:
    return in_features * out_features


@dataclass
class LayerRow:
    name: str
    kind: str  # conv | bn | linear
    params: int
    macs: int
    output_shape: tuple[int, ...]


@dataclass
class ComplexityReport:
    rows: list[LayerRow] = field(default_factory=list)

    def add(self, name, kind, params, macs, output_shape) -> None:
        self.rows.append(LayerRow(name, kind, int(params), int(macs), tuple(output_shape)))

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def params_without_bn(self) -> int:
        return sum(r.params for r in self.rows if r.kind != "bn")

    @property
    def ps_millions(self) -> float:
        return self.total_params / 1e6

    @property
    def mao_billions(self) -> float:
        return self.total_macs / 1e9

    def to_dict(self) -> dict:
        return {
            "layers": [
                {"name": r.name, "kind": r.kind, "params": r.params,
                 "macs": r.macs, "output_shape": list(r.output_shape)}
                for r in self.rows
            ],
            "total_params": self.total_params,
            "total_params_without_bn": self.params_without_bn,
            "total_macs": self.total_macs,
            "ps_millions": self.ps_millions,
            "mao_billions": self.mao_billions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.rows)
        lines = [f"{'layer':<{width}}  {'kind':<6}  {'params':>12}  {'macs':>14}  output"]
        for r in self.rows:
            shape = "x".join(str(d) for d in r.output_shape)
            lines.append(
                f"{r.name:<{width}}  {r.kind:<6}  {r.params:>12,}  {r.macs:>14,}  {shape}"
            )
        lines.append("-" * len(lines[0]))
        lines.append(
            f"{'total':<{width}}  {'':<6}  {self.total_params:>12,}  {self.total_macs:>14,}"
        )
        lines.append(
            f"PS = {self.total_params:,} scalars ({self.ps_millions:.3f} M); "
            f"without batch-norm: {self.params_without_bn:,}"
        )
        lines.append(f"MAO = {self.total_macs:,} ({self.mao_billions:.3f} G) per sample")
        return "\n".join(lines)


def analyze_network(
    config: NetworkConfig, input_shape: tuple[int, int, int, int] = (1, 3, 28, 499)
) -> ComplexityReport:
    """Walk the execution plan accumulating analytic params and MACs.

    MAO is reported per input sample; the batch entry of ``input_shape`` is
    accepted for interface symmetry but does not scale the count.
    """
    config.validate()
    _, c, h, w = input_shape
    if c != config.input_channels:
        raise ConfigError(
            f"input has {c} channels, network expects {config.input_channels}"
        )
    report = ComplexityReport()

    def conv_row(name: str, spec: ConvSpec, h: int, w: int):
        ho, wo = spec.output_hw(h, w)
        report.add(name, "conv", layer_params(spec), layer_macs(spec, (ho, wo)),
                   (spec.out_channels, ho, wo))
        report.add(f"{name}.bn", "bn", bn_params(spec.out_channels), 0,
                   (spec.out_channels, ho, wo))
        return ho, wo

    h, w = conv_row("stem", stem_conv_spec(config), h, w)

    taps = config.tap_indices()
    tap_shapes: dict[int, tuple[int, int]] = {}
    for i, inst in enumerate(config.instances()):
        expand, depthwise, project = instance_conv_specs(inst)
        h0, w0 = h, w
        h0, w0 = conv_row(f"block{i}.expand", expand, h0, w0)
        h0, w0 = conv_row(f"block{i}.depthwise", depthwise, h0, w0)
        h0, w0 = conv_row(f"block{i}.project", project, h0, w0)
        h, w = h0, w0
        if i in taps:
            tap_shapes[i] = (h, w)

    tap_channels = config.instances()[taps[0]].out_channels
    for j, t in enumerate(taps):
        th, tw = tap_shapes[t]
        conv_row(f"head{j}", head_conv_spec(config, tap_channels), th, tw)

    embed_width = config.mse_projection_channels * len(taps)
    classifier_in = embed_width
    if config.literal_fc_head:
        report.add("fc_hidden", "linear",
                   linear_params(embed_width, config.fc_neurons),
                   linear_macs(embed_width, config.fc_neurons), (config.fc_neurons,))
        classifier_in = config.fc_neurons
    report.add("classifier", "linear",
               linear_params(classifier_in, config.num_classes),
               linear_macs(classifier_in, config.num_classes), (config.num_classes,))
    return report


# Published complexity/accuracy figures for lightweight baselines on this
# 9-class domestic-audio task, shipped as reference data for side-by-side
# rendering next to our analytic report.
REFERENCE_RESULTS = (
    ("MobileNet-v1 based", 4.38e6, 0.34e9, 0.800),
    ("MobileNet-v2 based", 3.50e6, 0.33e9, 0.790),
    ("ShuffleNet based", 2.27e6, 0.15e9, 0.819),
    ("multi-scale dilated DSCN (reported)", 2.67e6, 0.44e9, 0.831),
    ("DenseNet based", 14.51e6, 3.33e9, 0.840),
)

# The row our reconstruction is compared against.
TARGET_PS = 2.67e6
TARGET_MAO = 0.44e9

RECONSTRUCTION_CAVEAT = (
    "The published architecture table is not fully recoverable (per-row strides, "
    "repeats and internal block widths are unstated), so this block schedule is a "
    "reconstruction constrained by the published channel list, the 53-layer count "
    "and the three 320-channel embedding taps. Deviations from the reported PS/MAO "
    "stem from that reconstruction, not from the cost model."
)


def reference_table() -> str:
    lines = [f"{'model':<38}  {'PS':>8}  {'MAO':>8}  {'CA':>6}"]
    for name, ps, mao, ca in REFERENCE_RESULTS:
        lines.append(f"{name:<38}  {ps / 1e6:>6.2f} M  {mao / 1e9:>6.2f} G  {ca:>6.3f}")
    return "\n".join(lines)


def deviation_summary(report: ComplexityReport) -> str:
    ps_dev = (report.total_params - TARGET_PS) / TARGET_PS
    mao_dev = (report.total_macs - TARGET_MAO) / TARGET_MAO
    return (
        f"PS {report.ps_millions:.3f} M vs reported {TARGET_PS / 1e6:.2f} M "
        f"({ps_dev:+.1%}); MAO {report.mao_billions:.3f} G vs reported "
        f"{TARGET_MAO / 1e9:.2f} G ({mao_dev:+.1%}).\n{RECONSTRUCTION_CAVEAT}"
    )
