"""Command-line pipeline: synth-data | features | train | eval | analyze | ablate.

All randomness flows from --seed. --workers controls file/batch parallelism;
worker count never changes numeric results (N=1 is the reference behavior
every other N matches bit-exactly). Exit codes: 0 ok, 2 config error,
3 data error, 4 numeric failure. The cache root comes from --cache-dir or
the DACNET_CACHE environment variable.

On failure, anything already written moves to '<out>.quarantined' so partial
artifacts are never mistaken for results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .complexity import (
    REFERENCE_RESULTS,
    analyze_network,
    deviation_summary,
    reference_table,
)
from .data import (
    LABELS,
    SEGMENT_SAMPLES,
    FeatureCache,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
)
from .errors import ConfigError, DacnetError, DataError, NumericError
from .fileio import write_atomic
from .network import ABLATION_VARIANTS, Model, ablation_variant, build_network
from .presets import PRESETS, resolve_run_config
from .training import EpochRecord, evaluate, train


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="file/batch parallelism; never changes results")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=PRESETS, default="toy",
                        help="built-in configuration to start from")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON run-config file (overrides --preset)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path config override, e.g. train.max_epochs=5")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacnet",
        description="Domestic-activity audio classification pipeline",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"dacnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate the synthetic 9-class corpus",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--out", type=Path, required=True, help="corpus output directory")
    p.add_argument("--train-per-class", type=int, default=60)
    p.add_argument("--val-per-class", type=int, default=0)
    p.add_argument("--test-per-class", type=int, default=20)
    _add_common(p)

    p = sub.add_parser("features", help="extract and cache log-Mel features",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", type=Path, required=True,
                   help="corpus directory containing manifest.csv")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help="cache root (default: $DACNET_CACHE or <data>/cache)")
    _add_config(p)
    _add_common(p)

    p = sub.add_parser("train", help="train a model on cached features",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="run output directory")
    p.add_argument("--cache-dir", type=Path, default=None)
    p.add_argument("--max-epochs", type=int, default=None,
                   help="override the configured epoch budget")
    _add_config(p)
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--model", type=Path, required=True, help="DACM checkpoint")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--cache-dir", type=Path, default=None)
    _add_config(p)
    _add_common(p)

    p = sub.add_parser("analyze", help="analytic parameter/MAC report",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--frames", type=int, default=None,
                   help="time frames of the analyzed input; unset, those of one "
                        "10 s segment under the run's frontend")
    p.add_argument("--json-out", type=Path, default=None, help="also write JSON here")
    _add_config(p)
    _add_common(p)

    p = sub.add_parser("ablate", help="train full / no-dilation / single-scale variants",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--cache-dir", type=Path, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    _add_config(p)
    _add_common(p)

    return parser


def _cache_root(args, data_dir: Path) -> Path:
    if args.cache_dir is not None:
        return args.cache_dir
    env = os.environ.get("DACNET_CACHE")
    return Path(env) if env else data_dir / "cache"


def _resolve(args):
    return resolve_run_config(args.preset, args.config, args.overrides)


@contextmanager
def _run_directory(out: Path):
    """Create the empty run directory ``out`` for the ``with`` block.

    If the block raises, everything written so far moves to
    '<out>.quarantined' (or '<out>.quarantined.N' when that exists) and the
    exception propagates.
    """
    if out.exists() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} exists and is not empty")
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except Exception:
        if out.exists():
            target = out.with_name(out.name + ".quarantined")
            n = 1
            while target.exists():
                target = out.with_name(f"{out.name}.quarantined.{n}")
                n += 1
            out.rename(target)
            print(f"partial artifacts quarantined in {target}", file=sys.stderr)
        raise


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all (:func:`write_atomic`)."""
    write_atomic(path, [text.encode()])


def _load_features(args, run, required, optional=()):
    """(features, labels) per split, after filling the feature cache.

    Each ``required`` split must have rows, or ``load_split`` raises
    ``DataError``; each ``optional`` split is loaded only if it has rows.
    """
    manifest = load_manifest(args.data / "manifest.csv")
    cache = FeatureCache(_cache_root(args, args.data), run.frontend)
    cache.ensure(manifest, workers=args.workers)
    return {split: cache.load_split(manifest, split) for split in (*required, *optional)
            if split in required or manifest.split(split)}


def _train_one(run, data, seed, out_dir: Path, log_lines: list[str], max_epochs=None):
    """Shared by train and ablate: fit one model, write checkpoints + log."""
    epochs = {} if max_epochs is None else {"max_epochs": max_epochs}
    train_cfg = replace(run.train, seed=seed, **epochs)

    xtr, ytr = data["train"]
    val = data.get("validation")
    model = build_network(run.network, seed=seed)
    best = {"ca": -1.0, "epoch": 0}

    def log(line: str) -> None:
        log_lines.append(line)
        print(line)

    def on_epoch_end(record: EpochRecord, m: Model) -> None:
        m.save(out_dir / "checkpoint_last.dacm")
        if record.val_ca is not None and record.val_ca > best["ca"]:
            best.update(ca=record.val_ca, epoch=record.epoch)
            m.save(out_dir / "checkpoint_best.dacm")

    history = train(
        model, xtr, ytr, train_cfg,
        val_features=val[0] if val else None,
        val_labels=val[1] if val else None,
        log=log, on_epoch_end=on_epoch_end,
    )
    if not history:  # max_epochs = 0: checkpoint the initial weights, no steps
        model.save(out_dir / "checkpoint_last.dacm")
    if best["epoch"] == 0:
        model.save(out_dir / "checkpoint_best.dacm")
        best["epoch"] = len(history)
    _write_text(out_dir / "train_log.txt", "\n".join(log_lines) + "\n" if log_lines else "")
    return model, history, best


def cmd_synth_data(args) -> None:
    spec = SyntheticSpec(
        train_per_class=args.train_per_class,
        validation_per_class=args.val_per_class,
        test_per_class=args.test_per_class,
        seed=args.seed,
    )
    manifest = generate_synthetic(spec, args.out, workers=args.workers)
    totals = manifest.split_totals()
    print(f"wrote {len(manifest.rows)} segments to {args.out} "
          f"(train {totals['train']}, validation {totals['validation']}, "
          f"test {totals['test']})")


def cmd_features(args) -> None:
    run = _resolve(args)
    manifest = load_manifest(args.data / "manifest.csv")
    cache = FeatureCache(_cache_root(args, args.data), run.frontend)
    stats = cache.ensure(manifest, workers=args.workers)
    print(f"features ready under {cache.root} "
          f"(computed {stats.computed}, reused {stats.reused})")


def cmd_train(args) -> None:
    run = _resolve(args)
    with _run_directory(args.out):
        data = _load_features(args, run, ("train",), ("validation",))
        _write_text(args.out / "config.json", run.to_json() + "\n")
        model, history, best = _train_one(
            run, data, args.seed, args.out, [], max_epochs=args.max_epochs
        )
    if history:
        last = history[-1]
        print(f"finished: last epoch {last.epoch}, train loss {last.train_loss:.6f}")
        if best["ca"] >= 0 and any(r.val_ca is not None for r in history):
            print(f"best validation CA {best['ca']:.4f} at epoch {best['epoch']} "
                  f"(checkpoint_best.dacm); last epoch saved as checkpoint_last.dacm")
    else:
        print("finished: 0 epochs, initial weights checkpointed")


def cmd_eval(args) -> None:
    run = _resolve(args)
    with _run_directory(args.out):
        model = Model.load(args.model)
        features, labels = _load_features(args, run, (args.split,))[args.split]
        ca, matrix = evaluate(model, features, labels, workers=args.workers)
        _write_text(args.out / "config.json", run.to_json() + "\n")
        _write_text(args.out / "confusion.csv", matrix.to_csv(LABELS))
        _write_text(args.out / "confusion.txt", matrix.to_text(LABELS))
        _write_text(args.out / "eval.txt",
                    f"split {args.split}\nsegments {matrix.total}\nCA {ca:.6f}\n")
    print(matrix.to_text(LABELS))
    print(f"CA on {args.split}: {ca:.4f} ({matrix.total} segments)")


def cmd_analyze(args) -> None:
    from .presets import load_preset

    run = _resolve(args)
    frames = run.frontend.n_frames(SEGMENT_SAMPLES) if args.frames is None else args.frames
    input_shape = (1, run.network.input_channels, run.frontend.mel_bins, frames)
    report = analyze_network(run.network, input_shape)
    full_params = build_network(run.network, seed=args.seed).parameter_count()
    if full_params != report.total_params:
        raise NumericError(
            f"analytic parameter count {report.total_params} disagrees with "
            f"allocated {full_params}"
        )
    print(report.to_text())
    print()
    print("reference results on the 9-class task:")
    print(reference_table())
    print()
    reference_blocks = load_preset("reference").network.blocks
    if run.network.blocks == reference_blocks:
        print(deviation_summary(report))
    else:
        print("analyzed configuration is not the reference-scale schedule; "
              "comparison against the reported footprint is not meaningful.")
    if args.json_out is not None:
        doc = report.to_dict()
        doc["input_shape"] = list(input_shape)
        if run.network.blocks == reference_blocks:
            doc["deviation"] = deviation_summary(report)
        doc["reference_results"] = [
            {"model": name, "ps": ps, "mao": mao, "ca": ca}
            for name, ps, mao, ca in REFERENCE_RESULTS
        ]
        _write_text(args.json_out, json.dumps(doc, indent=2) + "\n")
        print(f"JSON report written to {args.json_out}")


def cmd_ablate(args) -> None:
    run = _resolve(args)
    with _run_directory(args.out):
        data = _load_features(args, run, ("train", "test"), ("validation",))
        _write_text(args.out / "config.json", run.to_json() + "\n")
        xte, yte = data["test"]
        results = []
        for variant in ABLATION_VARIANTS:
            vdir = args.out / variant
            vdir.mkdir()
            vrun = replace(run, network=ablation_variant(run.network, variant))
            model, _, _ = _train_one(
                vrun, data, args.seed, vdir, [], max_epochs=args.max_epochs
            )
            ca, matrix = evaluate(model, xte, yte, workers=args.workers)
            _write_text(vdir / "confusion.csv", matrix.to_csv(LABELS))
            results.append((variant, ca))
        names = {
            "full": "dilated convolutions + multi-scale embedding",
            "no_dco": "without dilated convolutions",
            "no_mse": "without multi-scale embedding",
        }
        lines = [f"{'variant':<12} {'CA':>8}   description"]
        for variant, ca in results:
            lines.append(f"{variant:<12} {ca:>8.4f}   {names[variant]}")
        table = "\n".join(lines)
        _write_text(args.out / "ablation.txt", table + "\n")
        _write_text(args.out / "ablation.csv",
                    "variant,ca\n" + "\n".join(f"{v},{ca:.6f}" for v, ca in results) + "\n")
    print(table)


COMMANDS = {
    "synth-data": cmd_synth_data,
    "features": cmd_features,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "ablate": cmd_ablate,
}


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc reuse freed arrays instead of returning them to the kernel.

    By default glibc serves large blocks with fresh mappings and trims the
    heap whenever its free top exceeds 128 KB, so every training step pays
    page faults to map its whole working set in again. A fixed 32 MB mmap
    threshold (glibc's largest) keeps activations on the heap, and a high trim
    threshold keeps the heap mapped between steps. Arrays above 32 MB are
    still mapped and returned individually. Other C libraries lack
    ``mallopt`` or ignore these parameters, so there this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    np.seterr(over="raise", invalid="raise")
    _keep_freed_memory()
    try:
        COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except DacnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:  # console_scripts target
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
