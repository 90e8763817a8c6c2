"""One workload in one process: prepare inputs, measure, check, report.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment and ``src`` on ``PYTHONPATH``. Prints human-readable lines, then
one JSON line: ``correct``, ``attempted``, ``failed``, the ``end_to_end``
metrics and, with ``--trace 1``, the ``per_layer`` metrics and the path of
the written trace.

Every workload is a closed loop: each operation starts when the previous one
has returned. Inputs come from ``--seed`` alone: it seeds the synthetic
corpus, the network initialisation and the training shuffle.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import WORKLOADS  # noqa: E402

from dacnet import cli, network, training  # noqa: E402
from dacnet.complexity import analyze_network  # noqa: E402
from dacnet.data import FeatureCache, SyntheticSpec, generate_synthetic, load_manifest  # noqa: E402
from dacnet.data import SPLITS, load_segment  # noqa: E402
from dacnet.frontend import compute_features  # noqa: E402
from dacnet.ops import count_macs  # noqa: E402
from dacnet.presets import resolve_run_config  # noqa: E402
from dacnet.tensor import Tensor  # noqa: E402

MIN_ROUNDS = 5
FEATURE_SETUPS_PER_ROUND = 5
WARM_PASSES_PER_ROUND = 3
LATENCY_PER_ROUND = 10
LATENCY_SEGMENTS = 40
ORACLE_SEGMENTS = 4
EVAL_BATCH = 32


def dacnet_cli(*argv) -> str:
    """Run one ``dacnet`` command in-process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"dacnet {argv[0]} exited with {code}: {out.getvalue()[-500:]}")
    return out.getvalue()


def make_corpus(spec: dict, seed: int, root: Path) -> Path:
    corpus = root / "corpus"
    generate_synthetic(
        SyntheticSpec(train_per_class=spec["train_per_class"],
                      test_per_class=spec["test_per_class"], seed=seed),
        corpus, workers=2,
    )
    return corpus


def flush(root: Path) -> None:
    """fsync every file under ``root``.

    The prepared corpus and cache would otherwise be written back to disk
    about 30 s after they were made, in the middle of the timed phase.
    """
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


@contextlib.contextmanager
def hooked(owner, attr: str, before=None, after=None):
    """Call ``before(*args)`` and ``after(*args)`` around each call of ``owner.attr``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args)
        result = original(*args, **kwargs)
        if after is not None:
            after(*args)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Operations:
    """Counts a run's timed operations.

    An operation that raises is counted as failed, its error is printed and
    the run goes on; a metric left without one successful operation ends the
    run without a result.
    """

    def __init__(self, say):
        self.say = say
        self.attempted = 0
        self.failed = 0

    def timed(self, seconds: list[float], func, *args, **kwargs):
        """Run ``func`` once; append its duration to ``seconds``; None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.say(f"FAILED {getattr(func, '__name__', func)}: {exc!r}")
            return None
        seconds.append(time.perf_counter() - t0)
        return result


def median_p90(name: str, seconds: list[float]) -> str:
    """Median in ms, with the p90 beside it once there are 40 samples."""
    text = f"{name} median {statistics.median(seconds) * 1e3:.3f} ms"
    if len(seconds) >= 40:
        text += f", p90 {statistics.quantiles(seconds, n=10)[-1] * 1e3:.3f} ms"
    return text + f" (n={len(seconds)})"


def train_workload(spec: dict, seed: int, seconds: float, work: Path, say, begin,
                   ops: Operations) -> tuple:
    """``dacnet train`` with a round of set-up, ``evaluate`` and one-segment
    inference after each epoch, then more rounds until the time is up."""
    preset, batch, workers, epochs = spec["preset"], spec["batch"], spec["workers"], spec["epochs"]
    corpus = make_corpus(spec, seed, work)
    cache_root = work / "cache"
    overrides = [f"train.batch_size={batch}"]
    dacnet_cli("features", "--data", corpus, "--cache-dir", cache_root,
               "--preset", preset, "--workers", 2)
    flush(work)

    def set_up():
        manifest = load_manifest(corpus / "manifest.csv")
        run = resolve_run_config(preset, None, overrides)
        cache = FeatureCache(cache_root, run.frontend)
        cache.ensure(manifest, workers=workers)
        train_xy = cache.load_split(manifest, "train")
        test_xy = cache.load_split(manifest, "test")
        return run, train_xy, test_xy, network.build_network(run.network, seed=seed)

    begin()
    start = time.perf_counter()
    deadline = start + seconds
    setup_times, epoch_times, eval_times, infer_times = [], [], [], []
    prepared = ops.timed(setup_times, set_up)
    if prepared is None:
        raise RuntimeError("the first set-up failed; nothing to measure")
    run, (xtr, ytr), (xte, yte), _ = prepared
    state = {"model": None, "ca": None, "rounds": 0, "epoch_start": None}

    def one_round():
        """One set-up, then ``evaluate`` and one-segment inference on ``state["model"]``."""
        model = state["model"]
        ops.timed(setup_times, set_up)
        for _ in range(spec["evals_per_round"]):
            result = ops.timed(eval_times, training.evaluate, model, xte, yte,
                               batch_size=EVAL_BATCH, workers=workers)
            if result is not None:
                state["ca"] = result[0]
        for i in range(spec["infers_per_round"]):
            segment = xte[(state["rounds"] * spec["infers_per_round"] + i) % len(xte)][None]
            ops.timed(infer_times, model.predict_logits, segment)
        state["rounds"] += 1

    # An epoch is timed from its first ``Model.zero_grad`` call (the first
    # epoch) or from the end of the previous round, to the end of the
    # ``checkpoint_last.dacm`` save that ``dacnet train`` makes after every
    # epoch; the round that evaluates that checkpoint runs outside the time.
    def epoch_begins(model):
        if state["epoch_start"] is None:
            state["epoch_start"] = time.perf_counter()

    def checkpoint_saved(model, path):
        if Path(path).name != "checkpoint_last.dacm":
            return
        epoch_times.append(time.perf_counter() - state["epoch_start"])
        state["model"] = network.Model.load(path)
        one_round()
        state["epoch_start"] = time.perf_counter()

    out = work / "run"
    with hooked(network.Model, "zero_grad", before=epoch_begins), \
            hooked(network.Model, "save", after=checkpoint_saved):
        try:
            dacnet_cli("train", "--data", corpus, "--out", out, "--cache-dir", cache_root,
                       "--preset", preset, "--max-epochs", epochs, "--seed", seed,
                       "--workers", workers, "--set", *overrides)
        except Exception as exc:
            say(f"FAILED dacnet train: {exc!r}")
    ops.attempted += epochs
    ops.failed += epochs - len(epoch_times)
    while state["rounds"] < MIN_ROUNDS or time.perf_counter() < deadline:
        one_round()
    measured_s = time.perf_counter() - start

    # -- checks (untimed), on the last checkpoint --
    model, ca = state["model"], state["ca"]
    log = (out / "train_log.txt").read_text()
    losses = [float(v) for v in re.findall(r"train_loss (\S+)", log)]
    errors = checks.check_loss_falls(losses)
    with count_macs() as counter:
        model.forward(Tensor(xtr[:batch]), training=False)
    report = analyze_network(run.network, (1,) + xtr.shape[1:])
    errors += checks.check_macs(counter.total, report.total_macs, batch)
    batched = np.concatenate([model.predict_logits(xte[i:i + EVAL_BATCH])
                              for i in range(0, len(xte), EVAL_BATCH)])
    single = np.concatenate([model.predict_logits(xte[i:i + 1]) for i in range(len(xte))])
    errors += checks.check_batch_independence(batched, single)
    errors += checks.check_accuracy(ca, batched, yte)

    n_train = len(xtr)
    say(f"{preset}: {n_train} train / {len(xte)} test segments, batch {batch}, "
        f"{epochs} epochs, losses {losses}, test CA {ca:.4f}")
    say(f"measured {measured_s:.1f} s: {len(epoch_times)} epochs in "
        f"{sum(epoch_times):.2f} s, {state['rounds']} rounds")
    say(median_p90("one-segment inference", infer_times))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": n_train / statistics.median(epoch_times),
        "sweep_per_s": len(xte) / statistics.median(eval_times),
        "latency_ms": statistics.median(infer_times) * 1e3,
    }
    return metrics, errors


def features_workload(spec: dict, seed: int, seconds: float, work: Path, say, begin,
                      ops: Operations) -> tuple:
    """Rounds of set-up, a cold ``dacnet features`` pass, warm passes and one-segment extraction."""
    preset, workers = spec["preset"], spec["workers"]
    corpus = make_corpus(spec, seed, work)
    cache_root = work / "cache"
    manifest = load_manifest(corpus / "manifest.csv")
    n = len(manifest.rows)
    splits = [s for s in SPLITS if manifest.split(s)]
    position = {row.path: (s, i) for s in splits for i, row in enumerate(manifest.split(s))}
    sample = manifest.rows[::max(1, n // LATENCY_SEGMENTS)][:LATENCY_SEGMENTS]
    run = resolve_run_config(preset)
    flush(work)

    def set_up():
        resolve_run_config(preset)
        load_manifest(corpus / "manifest.csv")
        FeatureCache(cache_root, run.frontend)

    def cold_pass():
        shutil.rmtree(cache_root, ignore_errors=True)
        printed = dacnet_cli("features", "--data", corpus, "--cache-dir", cache_root,
                             "--preset", preset, "--workers", workers)
        return tuple(int(v) for v in re.search(r"computed (\d+), reused (\d+)", printed).groups())

    def warm_pass():
        cache = FeatureCache(cache_root, run.frontend)
        stats = cache.ensure(manifest, workers=workers)
        return (stats.computed, stats.reused), {s: cache.load_split(manifest, s) for s in splits}

    def extract(row):
        return compute_features(load_segment(corpus / row.path), run.frontend).values

    # One round untimed: in a fresh process the first cold pass took ~1.7x
    # as long as the later ones and the first warm passes ~1.6x.
    cold_pass()
    loaded = warm_pass()[1]
    extract(sample[0])

    begin()
    start = time.perf_counter()
    deadline = start + seconds
    setup_times, cold_times, warm_times, latency = [], [], [], []
    errors, rounds = [], 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for _ in range(FEATURE_SETUPS_PER_ROUND):
            ops.timed(setup_times, set_up)
        cold = ops.timed(cold_times, cold_pass)
        for _ in range(WARM_PASSES_PER_ROUND):
            warm = ops.timed(warm_times, warm_pass)
            if warm is None:
                continue
            if cold is not None:
                errors += checks.check_cache_passes(cold, warm[0], n)
            if not all(np.array_equal(loaded[s][0], warm[1][s][0]) for s in splits):
                errors.append("a warm pass loaded features that differ from the pass before it")
            loaded = warm[1]
        for i in range(LATENCY_PER_ROUND):
            row = sample[(rounds * LATENCY_PER_ROUND + i) % len(sample)]
            values = ops.timed(latency, extract, row)
            if values is not None:
                split, j = position[row.path]
                errors += checks.check_identical(f"{row.path} warm vs recomputed",
                                                 loaded[split][0][j], values)
        rounds += 1
    measured_s = time.perf_counter() - start

    # -- checks (untimed) --
    fe = run.frontend
    for row in sample[::len(sample) // ORACLE_SEGMENTS]:
        split, i = position[row.path]
        sr, samples = checks.read_pcm16(corpus / row.path)
        reference = checks.logmel_deltas(
            samples, sr, fe.frame_samples, fe.hop_samples, fe.fft_size,
            fe.mel_bins, fe.delta_window, fe.log_floor)
        errors += checks.check_features(row.path, loaded[split][0][i], reference,
                                        len(samples), fe.frame_samples, fe.hop_samples)

    say(f"features: {n} segments, --workers {workers}, measured {measured_s:.1f} s in "
        f"{rounds} rounds of a cold pass and {WARM_PASSES_PER_ROUND} warm passes")
    say(median_p90("one-segment extraction", latency))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": n / statistics.median(cold_times),
        "sweep_per_s": n / statistics.median(warm_times),
        "latency_ms": statistics.median(latency) * 1e3,
    }
    return metrics, errors


UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "sweep_per_s": "1/s",
         "latency_ms": "ms", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    def say(line: str) -> None:
        print(f"[{args.workload}{' traced' if args.trace else ''}] {line}")

    say(f"seed {args.seed}, BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}, "
        f"--workers {spec['workers']}")
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Operations(say)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    body = train_workload if spec["kind"] == "train" else features_workload
    try:
        # The tracer goes in once the inputs are prepared, so the corpus and
        # the warm cache of a train workload are never part of its trace.
        begin = tracer.install if tracer is not None else (lambda: None)
        metrics, errors = body(spec, args.seed, args.seconds, work, say, begin, ops)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for e in errors:
        say(f"CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "end_to_end": {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS},
    }
    if tracer is not None:
        trace_file = HERE / ".work" / f"trace-{args.workload}-s{args.seed}.json"
        result["per_layer"] = tracer.write(trace_file)
        result["trace_file"] = str(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
