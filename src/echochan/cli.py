"""Command-line pipeline: generate, train, evaluate, sweep, transfer.

Every command is deterministic given the config file, the flags, and the
master seed. Exit codes: 0 success, 2 configuration error, 3 data/file
error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import replace
from typing import Optional

from . import __version__, seeding
from .channelsim import generate_dataset
from .config import RunConfig, parse_config, read_raw_config
from .errors import ConfigError, EchoChanError, NumericError, StoreError
from .evaluation import (
    SWEEP_CSV_HEADER,
    SweepAxis,
    SweepSpec,
    evaluate,
    run_sweep,
    split_indices,
    write_sweep_csv,
)
from .readout import fit
from .reservoir import build, with_seed
from .store import (
    file_fingerprint,
    load_dataset,
    load_model,
    make_artifact,
    save_dataset,
    save_model,
)
from .transfer import direct_transfer_eval, fine_tune, pretrain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

TRANSFER_CSV_HEADER = "mode,alpha,source,target,mape_percent,mse,train_seconds,seed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echochan",
        description="Echo state network channel modeling pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="config file (default: $ECHOCHAN_CONFIG, then the packaged defaults)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="U64", help="override the config master seed"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="max worker threads for training (default: config value, else all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset file")
    p_gen.add_argument("--preset", required=True, help="channel preset name from the config")
    p_gen.add_argument("-n", "--num-sequences", type=int, required=True, help="sequences to generate")
    p_gen.add_argument("-o", "--out", required=True, help="output dataset path (.esd)")

    p_train = sub.add_parser("train", help="train a model on a dataset file")
    p_train.add_argument("data", help="training dataset path")
    p_train.add_argument("-o", "--out", required=True, help="output model path (.esn)")
    p_train.add_argument("--radius", type=float, default=None, help="override reservoir spectral radius")
    p_train.add_argument("--size", type=int, default=None, help="override reservoir size")
    p_train.add_argument("--init", default=None, help="override init method (random|xavier|normalized_xavier|he)")
    p_train.add_argument("--regression", default=None, help="override regression method (ridge|linear|lasso)")

    p_eval = sub.add_parser("evaluate", help="evaluate a model file on a dataset file")
    p_eval.add_argument("model", help="model path")
    p_eval.add_argument("data", help="dataset path")
    p_eval.add_argument("--csv", default=None, metavar="PATH", help="also write the report as CSV")

    p_sweep = sub.add_parser("sweep", help="sweep one hyperparameter axis over datasets")
    p_sweep.add_argument("--axis", required=True, help="init | radius | size | activation | regression")
    p_sweep.add_argument("--data", required=True, nargs="+", help="dataset path(s)")
    p_sweep.add_argument("-o", "--out", required=True, help="output CSV path")
    p_sweep.add_argument("--repeats", type=int, default=None, help="override sweep repeats")

    p_tr = sub.add_parser("transfer", help="pretrain on a source dataset, evaluate/fine-tune on a target")
    p_tr.add_argument("--source", required=True, help="source-domain training dataset")
    p_tr.add_argument("--target-train", required=True, help="target-domain training dataset")
    p_tr.add_argument("--target-test", required=True, help="target-domain test dataset")
    p_tr.add_argument("--mode", choices=("direct", "finetune"), required=True)
    p_tr.add_argument("--alpha", type=float, default=0.0, help="source blend weight for finetune (0..1)")
    p_tr.add_argument("-o", "--out", required=True, help="output CSV path")
    return parser


# Flags that override a config key, by argparse dest. Each value is
# written into the raw config under its key before parse_config runs, so
# a flag is checked exactly like the key it replaces.
_OVERRIDES = {
    "seed": "master_seed",
    "threads": "threads",
    "radius": "reservoir.spectral_radius",
    "size": "reservoir.reservoir_size",
    "init": "reservoir.init",
    "regression": "readout.method",
    "repeats": "sweep.repeats",
}


def _load_run_config(args) -> RunConfig:
    raw = read_raw_config(args.config)
    for dest, key in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        section, _, leaf = key.rpartition(".")
        target = raw.setdefault(section, {}) if section else raw
        if isinstance(target, dict):  # any other section is rejected by parse_config
            target[leaf] = value
    return parse_config(raw)


def _threads(config: RunConfig) -> int:
    return config.threads or os.cpu_count() or 1


def _load_dataset_file(path):
    try:
        return load_dataset(path)
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"dataset file not found: {path}") from exc


def cmd_generate(args, config: RunConfig) -> int:
    chan = config.channel(args.preset)
    if args.num_sequences < 0:
        raise ConfigError(f"--num-sequences must be >= 0, got {args.num_sequences}")
    wave = replace(config.waveform, seed=config.master_seed)
    dataset = generate_dataset(wave, chan, args.num_sequences)
    dataset.meta["preset"] = args.preset
    save_dataset(dataset, args.out)
    snr = dataset.meta["empirical_snr_db"]
    print(
        f"wrote {args.out}: {dataset.num_sequences} sequences, T={dataset.seq_len}, "
        f"preset={args.preset}, empirical SNR={snr:.2f} dB"
    )
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    dataset = _load_dataset_file(args.data)
    train_idx, test_idx = split_indices(
        dataset.num_sequences, config.train_fraction, config.master_seed
    )
    train_ds = dataset.subset(train_idx)
    test_ds = dataset.subset(test_idx)
    reservoir = build(config.reservoir)
    started = time.perf_counter()
    model = fit(reservoir, train_ds, config.readout, threads=_threads(config))
    train_seconds = time.perf_counter() - started
    report = evaluate(reservoir, model, test_ds)
    artifact = make_artifact(
        reservoir,
        model,
        provenance={
            "seed": config.master_seed,
            "dataset_fingerprint": file_fingerprint(args.data),
            "train_sequences": int(train_ds.num_sequences),
            "train_fraction": config.train_fraction,
        },
    )
    save_model(artifact, args.out)
    print(
        f"wrote {args.out}: trained on {train_ds.num_sequences} sequences in "
        f"{train_seconds:.2f}s; held-out MAPE={report.mape_percent:.4f}% "
        f"(mse={report.mse:.6e}, sequences={test_ds.num_sequences})"
    )
    return EXIT_OK


def cmd_evaluate(args, config: RunConfig) -> int:
    try:
        artifact = load_model(args.model)
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"model file not found: {args.model}") from exc
    dataset = _load_dataset_file(args.data)
    reservoir = artifact.to_reservoir()
    model = artifact.to_readout()
    report = evaluate(reservoir, model, dataset)
    print(
        f"MAPE={report.mape_percent:.4f}% mse={report.mse:.6e} "
        f"samples={report.samples_used} excluded={report.samples_excluded}"
    )
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SWEEP_CSV_HEADER.split(","))
            writer.writerow(
                [
                    "evaluate",
                    str(args.model),
                    str(args.data),
                    0,
                    repr(report.mape_percent),
                    repr(report.mse),
                    repr(report.wall_time_seconds),
                    artifact.provenance.get("seed", ""),
                ]
            )
    return EXIT_OK


def cmd_sweep(args, config: RunConfig) -> int:
    try:
        axis = SweepAxis.from_name(args.axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    datasets = tuple((path, _load_dataset_file(path)) for path in args.data)
    settings = config.sweep
    if axis is SweepAxis.INIT:
        values = settings.init_values
    elif axis is SweepAxis.RADIUS:
        values = settings.radius_values
    elif axis is SweepAxis.SIZE:
        values = settings.size_values
    elif axis is SweepAxis.ACTIVATION:
        values = settings.activation_values
    else:
        values = tuple(config.regression(name) for name in settings.regression_values)
    spec = SweepSpec(
        axis=axis,
        values=tuple(values),
        base_config=config.reservoir,
        method=config.readout,
        datasets=datasets,
        repeats=settings.repeats,
        train_fraction=config.train_fraction,
    )
    result = run_sweep(spec, threads=_threads(config))
    write_sweep_csv(result, args.out)
    for line in result.summarize():
        print(
            f"{axis.value}={line['value']} dataset={line['dataset']}: "
            f"MAPE {line['mean_mape_percent']:.4f}% +- {line['std_mape_percent']:.4f} "
            f"(train {line['mean_train_seconds']:.2f}s, errors {line['errors']})"
        )
    print(f"wrote {args.out}: {len(result.rows)} cells")
    return EXIT_OK


def cmd_transfer(args, config: RunConfig) -> int:
    if not 0.0 <= args.alpha <= 1.0:
        raise ConfigError(f"--alpha must be in [0, 1], got {args.alpha}")
    source = _load_dataset_file(args.source)
    target_train = _load_dataset_file(args.target_train)
    target_test = _load_dataset_file(args.target_test)
    seed = seeding.child_seed(config.master_seed, seeding.STREAM_TRANSFER)
    reservoir = build(with_seed(config.reservoir, seed))
    threads = _threads(config)

    started = time.perf_counter()
    model, source_acc = pretrain(reservoir, source, config.readout, threads=threads)
    if args.mode == "finetune":
        model = fine_tune(
            reservoir, source_acc, target_train, args.alpha, config.readout, threads=threads
        )
    train_seconds = time.perf_counter() - started
    report = direct_transfer_eval(reservoir, model, target_test)

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRANSFER_CSV_HEADER.split(","))
        writer.writerow(
            [
                args.mode,
                repr(float(args.alpha)),
                str(args.source),
                str(args.target_test),
                repr(report.mape_percent),
                repr(report.mse),
                repr(train_seconds),
                seed,
            ]
        )
    print(
        f"{args.mode} (alpha={args.alpha}): target-test MAPE={report.mape_percent:.4f}% "
        f"mse={report.mse:.6e}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "transfer": cmd_transfer,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_run_config(args)
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StoreError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EchoChanError as exc:  # any other package error counts as numeric
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
