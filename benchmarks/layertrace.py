"""Per-layer tracing of dacnet from outside the package.

``Tracer.install()`` replaces public functions and methods of ``dacnet`` with
wrappers that record a span (name, start, end, parent) around each call:

* ``ops.conv2d``, ``ops.batchnorm``, ``ops.relu`` and the other taped ops,
  which ``network`` and ``training`` call through the ``ops`` module;
* ``GradientTape.record`` (to time each recorded backward closure, labelled
  with the op and unit that recorded it) and ``GradientTape.backward``;
* ``Model.__init__`` / ``forward`` / ``zero_grad`` / ``save`` / ``load``,
  ``build_network``, ``training.adam_step`` and ``training.evaluate``;
* the frontend, WAV, DACF and cache functions ``data`` calls, and the
  ``parallel_map`` that ``FeatureCache.ensure`` runs its items through.

Kernel and gamma tensors are mapped to unit names through ``Model.units()``
(the classifier weight through ``Model.classifier``) whenever a model is
constructed, and each unit's forward MACs come from
``complexity.analyze_network`` at the traced input shape. Bytes are the sizes
of the input, kernel and output arrays of each convolution.

State that changes during a call (the open-span stack, the current training
step or eval batch, the phase) is kept per thread, because ``GradientTape``
keeps its stack in a class attribute that worker threads share. Spans stay in
memory until ``write`` is called at the end of the run. A span's self time is
its duration minus that of its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

UNIT_KINDS = ("stem", "expand", "depthwise", "project", "head", "classifier")
OTHER_OPS = ("add", "global_avg_pool", "concat", "linear", "softmax_cross_entropy")
UNIT_OPS = ("conv2d", "batchnorm", "linear")  # ops whose second argument belongs to a unit

# name -> (unit, better); the order of the per-layer result.
PER_LAYER = {}
for _k in UNIT_KINDS:
    PER_LAYER.update({
        f"network.{_k}.fwd_ms": ("ms", "lower"),
        f"network.{_k}.bwd_ms": ("ms", "lower"),
        f"network.{_k}.eval_ms": ("ms", "lower"),
        f"network.{_k}.fwd_gmac_per_s": ("GMAC/s", "higher"),
        f"network.{_k}.bwd_gmac_per_s": ("GMAC/s", "higher"),
        f"network.{_k}.macs_per_byte": ("MAC/B", "higher"),
    })
PER_LAYER.update({
    "ops.batchnorm.fwd_ms": ("ms", "lower"),
    "ops.batchnorm.bwd_ms": ("ms", "lower"),
    "ops.batchnorm.eval_ms": ("ms", "lower"),
    "ops.relu.fwd_ms": ("ms", "lower"),
    "ops.relu.bwd_ms": ("ms", "lower"),
    "ops.other.fwd_ms": ("ms", "lower"),
    "ops.other.bwd_ms": ("ms", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.backward_self_ms": ("ms", "lower"),
    "tensor.records_per_step": ("count", "lower"),
    "training.step_ms": ("ms", "lower"),
    "training.forward_ms": ("ms", "lower"),
    "training.adam_step_ms": ("ms", "lower"),
    "training.evaluate_s": ("s", "lower"),
    "network.build_ms": ("ms", "lower"),
    "network.save_ms": ("ms", "lower"),
    "network.load_ms": ("ms", "lower"),
    "frontend.stft_power_ms": ("ms", "lower"),
    "frontend.mel_project_log_ms": ("ms", "lower"),
    "frontend.add_deltas_ms": ("ms", "lower"),
    "frontend.write_feature_ms": ("ms", "lower"),
    "frontend.read_feature_ms": ("ms", "lower"),
    "wav.read_wav_ms": ("ms", "lower"),
    "data.ensure_cold_s": ("s", "lower"),
    "data.ensure_warm_s": ("s", "lower"),
    "data.load_split_s": ("s", "lower"),
    "data.bytes_read_mb": ("MB", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "group", "phase", "attrs")

    def __init__(self, name, parent, thread, group, phase, attrs):
        self.name, self.parent, self.thread = name, parent, thread
        self.group, self.phase, self.attrs = group, phase, attrs
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Tracer:
    """Records spans around dacnet's public calls; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.groups: dict[int, dict] = {}  # training steps and eval/infer forwards
        self._local = threading.local()
        self._lock = threading.Lock()
        self._group_ids = itertools.count(1)
        self._units: dict[int, tuple[str, str]] = {}  # id(tensor) -> (kind, name)
        self._macs: dict[tuple, dict[str, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread context ---------------------------------------------------

    def _ctx(self):
        ctx = self._local
        if not hasattr(ctx, "stack"):
            ctx.stack, ctx.group, ctx.phase = [], None, None
            ctx.op, ctx.macs, ctx.evaluating = None, {}, 0
        return ctx

    def _open(self, name, attrs=None) -> Span:
        ctx = self._ctx()
        span = Span(name, ctx.stack[-1] if ctx.stack else None, threading.get_ident(),
                    ctx.group, ctx.phase, attrs)
        ctx.stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._ctx().stack.pop()

    def _new_group(self, kind: str) -> int:
        gid = next(self._group_ids)
        self.groups[gid] = {"kind": kind, "start": time.perf_counter(), "end": None}
        return gid

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original
        wrapper = functools.wraps(func)(make(func))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(original, staticmethod)
                else wrapper)
        self._patches.append((owner, attr, original))

    def _timed(self, name):
        def make(func):
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close(span)
            return wrapper
        return make

    def install(self) -> None:
        from dacnet import cli, data, frontend, network, ops, tensor, training, wav

        for op in ("conv2d", "batchnorm", "relu") + OTHER_OPS:
            self._patch(ops, op, self._op_wrapper(op))
        self._patch(tensor.GradientTape, "record", self._record_wrapper)
        self._patch(tensor.GradientTape, "backward", self._backward_wrapper)
        self._patch(network.Model, "__init__", self._init_wrapper)
        self._patch(network.Model, "forward", self._forward_wrapper)
        self._patch(network.Model, "zero_grad", self._zero_grad_wrapper)
        self._patch(network.Model, "save", self._timed("network.save"))
        self._patch(network.Model, "load", self._timed("network.load"))
        for owner in (network, cli):
            self._patch(owner, "build_network", self._timed("network.build_network"))
        self._patch(training, "adam_step", self._adam_wrapper)
        self._patch(training, "evaluate", self._evaluate_wrapper)
        for name in ("stft_power", "mel_project_log", "add_deltas"):
            self._patch(frontend, name, self._timed(f"frontend.{name}"))
        self._patch(data, "write_feature", self._timed("frontend.write_feature"))
        self._patch(data, "read_feature", self._read_feature_wrapper)
        self._patch(wav, "read_wav", self._timed("wav.read_wav"))
        self._patch(data.FeatureCache, "ensure", self._ensure_wrapper)
        self._patch(data.FeatureCache, "load_split", self._timed("data.load_split"))
        self._patch(data, "parallel_map", self._parallel_map_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------------

    def _op_wrapper(self, op: str):
        def make(func):
            def wrapper(*args, **kwargs):
                attrs = {"op": op}
                # the kernel, weight or gamma tensor names the unit
                unit = self._units.get(id(args[1])) if op in UNIT_OPS else None
                if unit is not None:
                    attrs["unit"] = unit[0]
                    if op != "batchnorm":
                        x = args[0]
                        macs = self._ctx().macs.get(unit[1], 0) * x.shape[0]
                        attrs.update(macs=macs, bwd_macs=macs * (2 if x.needs_grad() else 1))
                ctx = self._ctx()
                outer, ctx.op = ctx.op, attrs
                span = self._open(f"ops.{op}", attrs)
                try:
                    out = func(*args, **kwargs)
                finally:
                    self._close(span)
                    ctx.op = outer
                if "macs" in attrs:
                    attrs["bytes"] = 8 * (args[0].size + args[1].size + out.size)
                return out
            return wrapper
        return make

    def _record_wrapper(self, func):
        def wrapper(tape, output, backward):
            attrs = self._ctx().op

            def timed_backward(gout):
                span = self._open(f"bwd.{attrs['op']}", attrs)
                try:
                    backward(gout)
                finally:
                    self._close(span)

            return func(tape, output, timed_backward if attrs else backward)
        return wrapper

    def _backward_wrapper(self, func):
        def wrapper(tape, loss):
            ctx = self._ctx()
            outer, ctx.phase = ctx.phase, "bwd"
            span = self._open("tensor.backward", {"records": len(tape)})
            try:
                return func(tape, loss)
            finally:
                self._close(span)
                ctx.phase = outer
        return wrapper

    def _init_wrapper(self, func):
        def wrapper(model, *args, **kwargs):
            func(model, *args, **kwargs)
            for unit in model.units():
                kind = unit.name.split(".")[-1].rstrip("0123456789")
                self._units[id(unit.kernel)] = (kind, unit.name)
                if unit.bn:
                    self._units[id(unit.gamma)] = (kind, unit.name)
            self._units[id(model.classifier)] = ("classifier", "classifier")
        return wrapper

    def _forward_wrapper(self, func):
        def wrapper(model, x, training=False):
            from dacnet.complexity import analyze_network

            ctx = self._ctx()
            key = (model.config, x.shape[1:])
            if key not in self._macs:
                report = analyze_network(model.config, (1,) + tuple(x.shape[1:]))
                self._macs[key] = {row.name: row.macs for row in report.rows}
            saved = (ctx.group, ctx.phase, ctx.macs)
            if not training:
                phase = "eval" if ctx.evaluating else "infer"
                ctx.group, ctx.phase = self._new_group(phase), phase
            ctx.macs = self._macs[key]
            span = self._open("network.forward", {"training": training})
            try:
                return func(model, x, training)
            finally:
                self._close(span)
                if not training:
                    self.groups[ctx.group]["end"] = span.end
                    ctx.group, ctx.phase = saved[0], saved[1]
                ctx.macs = saved[2]
        return wrapper

    def _zero_grad_wrapper(self, func):
        def wrapper(model):
            ctx = self._ctx()
            ctx.group, ctx.phase = self._new_group("step"), "fwd"
            return func(model)
        return wrapper

    def _adam_wrapper(self, func):
        def wrapper(*args, **kwargs):
            ctx = self._ctx()
            ctx.phase = "adam"
            span = self._open("training.adam_step")
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)
                if ctx.group in self.groups:
                    self.groups[ctx.group]["end"] = span.end
        return wrapper

    def _evaluate_wrapper(self, func):
        def wrapper(*args, **kwargs):
            ctx = self._ctx()
            ctx.evaluating += 1
            span = self._open("training.evaluate")
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)
                ctx.evaluating -= 1
        return wrapper

    def _read_feature_wrapper(self, func):
        def wrapper(*args, **kwargs):
            span = self._open("frontend.read_feature")
            try:
                feature = func(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs = {"bytes": 33 + feature.values.nbytes}
            return feature
        return wrapper

    def _ensure_wrapper(self, func):
        def wrapper(*args, **kwargs):
            span = self._open("data.ensure")
            try:
                stats = func(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs = {"computed": stats.computed}
            return stats
        return wrapper

    def _parallel_map_wrapper(self, func):
        def wrapper(fn, items, workers=1):
            busy = [0.0]

            def timed(item):
                t0 = time.perf_counter()
                try:
                    return fn(item)
                finally:
                    with self._lock:
                        busy[0] += time.perf_counter() - t0

            attrs = {"workers": min(workers, len(items)), "items": len(items)}
            span = self._open("parallel.map", attrs)
            try:
                return func(timed, items, workers)
            finally:
                self._close(span)
                attrs["busy"] = busy[0]
        return wrapper

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Every metric of ``PER_LAYER``; 0 where the layer did not run."""
        by_group: dict[tuple, float] = {}
        macs: dict[tuple, float] = {}
        nbytes: dict[tuple, float] = {}

        def add(table, key, value):
            table[key] = table.get(key, 0.0) + value

        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                add(children, id(s.parent), s.seconds)
            op = (s.attrs or {}).get("op") if s.name.startswith(("ops.", "bwd.")) else None
            if op is None or s.group is None:
                continue
            phase = "bwd" if s.name.startswith("bwd.") else s.phase
            bucket = op if op in ("batchnorm", "relu") else (
                "other" if op in OTHER_OPS else None)
            if bucket:
                add(by_group, (s.group, phase, f"ops.{bucket}"), s.seconds)
            unit = s.attrs.get("unit")
            if "macs" in s.attrs:
                key = (s.group, phase, f"network.{unit}")
                add(by_group, key, s.seconds)
                add(macs, key, s.attrs["bwd_macs"] if phase == "bwd" else s.attrs["macs"])
                add(nbytes, key, s.attrs.get("bytes", 0))

        steps = [g for g, info in self.groups.items()
                 if info["kind"] == "step" and info["end"] is not None]
        evals = [g for g, info in self.groups.items() if info["kind"] == "eval"]

        def per(groups, phase, bucket, scale=1e3):
            return _median(by_group.get((g, phase, bucket), 0.0) * scale for g in groups)

        def rate(groups, phase, bucket):
            return _median(macs[(g, phase, bucket)] / by_group[(g, phase, bucket)] / 1e9
                           for g in groups if macs.get((g, phase, bucket)))

        out: dict[str, float] = {}
        for k in UNIT_KINDS:
            b = f"network.{k}"
            out[f"{b}.fwd_ms"] = per(steps, "fwd", b)
            out[f"{b}.bwd_ms"] = per(steps, "bwd", b)
            out[f"{b}.eval_ms"] = per(evals, "eval", b)
            out[f"{b}.fwd_gmac_per_s"] = rate(steps, "fwd", b)
            out[f"{b}.bwd_gmac_per_s"] = rate(steps, "bwd", b)
            out[f"{b}.macs_per_byte"] = _median(
                macs[(g, "fwd", b)] / nbytes[(g, "fwd", b)]
                for g in steps if nbytes.get((g, "fwd", b)))
        for bucket, phases in (("batchnorm", ("fwd", "bwd", "eval")),
                               ("relu", ("fwd", "bwd")), ("other", ("fwd", "bwd"))):
            for phase in phases:
                groups = evals if phase == "eval" else steps
                out[f"ops.{bucket}.{phase}_ms"] = per(groups, phase, f"ops.{bucket}")

        def spans(name, pred=None):
            return [s for s in self.spans if s.name == name and (pred is None or pred(s))]

        backward = spans("tensor.backward")
        out["tensor.backward_ms"] = _median(s.seconds * 1e3 for s in backward)
        out["tensor.backward_self_ms"] = _median(
            (s.seconds - children.get(id(s), 0.0)) * 1e3 for s in backward)
        out["tensor.records_per_step"] = _median(s.attrs["records"] for s in backward)
        out["training.step_ms"] = _median(
            (self.groups[g]["end"] - self.groups[g]["start"]) * 1e3 for g in steps)
        out["training.forward_ms"] = _median(
            s.seconds * 1e3 for s in spans("network.forward", lambda s: s.attrs["training"]))
        for metric, name, scale in (
            ("training.adam_step_ms", "training.adam_step", 1e3),
            ("training.evaluate_s", "training.evaluate", 1.0),
            ("network.build_ms", "network.build_network", 1e3),
            ("network.save_ms", "network.save", 1e3),
            ("network.load_ms", "network.load", 1e3),
            ("frontend.stft_power_ms", "frontend.stft_power", 1e3),
            ("frontend.mel_project_log_ms", "frontend.mel_project_log", 1e3),
            ("frontend.add_deltas_ms", "frontend.add_deltas", 1e3),
            ("frontend.write_feature_ms", "frontend.write_feature", 1e3),
            ("frontend.read_feature_ms", "frontend.read_feature", 1e3),
            ("wav.read_wav_ms", "wav.read_wav", 1e3),
            ("data.load_split_s", "data.load_split", 1.0),
        ):
            out[metric] = _median(s.seconds * scale for s in spans(name))
        ensures = spans("data.ensure")
        out["data.ensure_cold_s"] = _median(s.seconds for s in ensures if s.attrs["computed"])
        out["data.ensure_warm_s"] = _median(s.seconds for s in ensures
                                            if not s.attrs["computed"])
        warm = len([s for s in ensures if not s.attrs["computed"]])
        read_bytes = sum(s.attrs["bytes"] for s in spans("frontend.read_feature"))
        out["data.bytes_read_mb"] = read_bytes / 1e6 / warm if warm else 0.0
        pools = spans("parallel.map")
        capacity = sum(s.attrs["workers"] * s.seconds for s in pools)
        out["parallel.efficiency"] = (
            sum(s.attrs["busy"] for s in pools) / capacity if capacity else 0.0)
        return {name: {"value": out[name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}

    def write(self, path) -> dict[str, dict]:
        """Write the metrics and every span as [name, start, end, parent index,
        thread, group, phase, unit]; return the metrics."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, s.start - t0, s.end - t0,
                 index.get(id(s.parent)) if s.parent is not None else None,
                 s.thread, s.group, s.phase, (s.attrs or {}).get("unit")]
                for s in self.spans]
        per_layer = self.metrics()
        with open(path, "w") as fh:
            json.dump({"spans": rows, "per_layer": per_layer}, fh)
            fh.write("\n")
        return per_layer
