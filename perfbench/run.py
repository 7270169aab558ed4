"""Benchmark of the echochan CLI: fixed workloads, end-to-end timings,
output checks against an independent reference, and a traced run that
gives per-layer numbers.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Every command runs in this process through ``echochan.cli.main(argv)``,
with the shipped ``default_config.yaml`` (copied into a work directory
under ``.bench_work/`` so the feedback workload can switch one key) and
with ``threads`` and the BLAS thread variables left as users get them.
The benchmark derives each dataset seed from ``--seed``; the program sees
only the generated files. It repeats the workload's commands until
``--seconds`` have passed (at least twice) and reports medians. With
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of ``tracing.py`` instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Machine and build
facts are printed on the line before it. BASELINE.md holds the baseline
numbers and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS_PER_REPETITION = 3  # setup_s is the median of all set-ups in a run
MIN_ITERATIONS = 2  # repetitions of the measured commands per run
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Tolerances of the output checks against reference.py. Evaluating a given
# model differs from the reference only in summation order. A refit goes
# through B + lambda*I with cond(B + lambda*I) around 1e10 at the shipped
# lambda, which amplifies rounding differences in the accumulators.
EVAL_RTOL = 1e-9
FIT_RTOL = 1e-5
PRINTED_MAPE_ATOL = 6e-5  # `train` prints the held-out MAPE with 4 decimals
PRINTED_MSE_RTOL = 1e-6  # ... and the MSE with 7 significant digits

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Scale:
    """Sequence counts per generated file and reservoir sizes."""

    train: tuple = (50, 20)  # data1 train / test
    wide: tuple = (5, 2)  # data2 train / test
    wide_size: int = 1200
    transfer: tuple = (24, 16, 24)  # bellhop_like source, data3 target train / test
    sweep: int = 40  # data2
    reservoir_size: Optional[int] = None  # None keeps the shipped size


FULL = Scale()
TINY = Scale(train=(6, 3), wide=(4, 2), wide_size=40, transfer=(4, 3, 3), sweep=6, reservoir_size=30)


@dataclass
class Plan:
    data: list  # (file, preset, sequences)
    phases: list  # (phase, argv); phase "train" or "eval"
    outputs: list  # files the phases write
    fitted: int  # sequences the phases fit per repetition
    prepare: list = field(default_factory=list)  # argv run once after set-up, untimed
    feedback: bool = False


def make_plan(name: str, scale: Scale) -> Plan:
    from echochan.config import load_config
    from echochan.evaluation import split_indices

    fraction = load_config(None).train_fraction

    def split(sequences):  # sequences the CLI fits out of a file it splits
        return len(split_indices(sequences, fraction, 0)[0])

    if name in ("train", "wide"):
        (train, test), preset = (scale.train, "data1") if name == "train" else (scale.wide, "data2")
        size = ["--size", str(scale.wide_size)] if name == "wide" else []
        return Plan(
            data=[("train.esd", preset, train), ("test.esd", preset, test)],
            phases=[
                ("train", ["train", "train.esd", "-o", "model.esn"] + size),
                ("eval", ["evaluate", "model.esn", "test.esd", "--csv", "eval.csv"]),
            ],
            outputs=["model.esn", "eval.csv"],
            fitted=split(train),
        )
    if name == "transfer-feedback":
        source, target_train, target_test = scale.transfer
        return Plan(
            data=[
                ("source.esd", "bellhop_like", source),
                ("target_train.esd", "data3", target_train),
                ("target_test.esd", "data3", target_test),
            ],
            # `transfer` saves no model, so the closed-loop `evaluate` gets
            # one trained once per run on the target-train file.
            prepare=[["train", "target_train.esd", "-o", "model.esn"]],
            phases=[
                (
                    "train",
                    ["transfer", "--source", "source.esd", "--target-train", "target_train.esd",
                     "--target-test", "target_test.esd", "--mode", "finetune", "--alpha", "0.5",
                     "-o", "transfer.csv"],
                ),
                ("eval", ["evaluate", "model.esn", "target_test.esd", "--csv", "eval.csv"]),
            ],
            outputs=["transfer.csv", "eval.csv"],
            fitted=source + target_train,
            feedback=True,
        )
    if name == "regression-sweep":
        return Plan(
            data=[("sweep.esd", "data2", scale.sweep)],
            phases=[
                ("train", ["sweep", "--axis", "regression", "--data", "sweep.esd",
                           "-o", "sweep.csv", "--repeats", "1"]),
            ],
            outputs=["sweep.csv"],
            fitted=3 * split(scale.sweep),  # ridge, linear and lasso cells
        )
    raise KeyError(name)


WORKLOADS = ("train", "wide", "transfer-feedback", "regression-sweep")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --- running CLI commands ----------------------------------------------------


@dataclass
class Command:
    argv: list
    rc: int
    seconds: float
    stdout: str
    stderr: str


def run_cli(argv: list) -> Command:
    """Run one CLI command in-process, capturing what it prints."""
    from echochan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - started
    return Command(argv, rc, seconds, out.getvalue(), err.getvalue())


class Workdir:
    """The run's private directory inside the checkout, with its config copy."""

    def __init__(self, name: str, seed: int, plan: Plan, scale: Scale):
        self.path = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.seed = seed
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        from echochan.config import default_config_path

        text = default_config_path().read_text()
        edits = {}
        if plan.feedback:
            edits["use_feedback: false"] = "use_feedback: true"
        if scale.reservoir_size is not None:
            edits["reservoir_size: 578"] = f"reservoir_size: {scale.reservoir_size}"
        for old, new in edits.items():
            if text.count(old) != 1:
                raise BenchError(f"shipped config no longer has exactly one {old!r}")
            text = text.replace(old, new)
        self.config = self.path / "config.yaml"
        self.config.write_text(text)

    def __call__(self, name: str) -> Path:
        return self.path / name

    def argv(self, args: list, seed: Optional[int] = None) -> list:
        """Full CLI argv: config copy, optional seed, file names made absolute."""
        head = ["--config", str(self.config)] + ([] if seed is None else ["--seed", str(seed)])
        return head + [str(self(a)) if re.fullmatch(r"\w+\.(esd|esn|csv)", a) else a for a in args]

    def dataset_seed(self, file: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{file}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            self.path.parent.rmdir()


# --- outputs and checks ------------------------------------------------------


def output_digest(path: Path) -> str:
    """sha256 of a model file's bytes, or of a CSV without its timing column."""
    if path.suffix != ".csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index("train_seconds")
    kept = [[cell for i, cell in enumerate(row) if i != drop] for row in rows]
    return hashlib.sha256(json.dumps(kept).encode()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0
        self.deviations: dict[str, float] = {}  # relative difference per comparison

    def expect(self, ok: bool, what: str):
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def close(self, name: str, value: float, expected: float, rtol: float = 0.0, atol: float = 0.0):
        ok = abs(value - expected) <= atol + rtol * abs(expected)
        self.deviations[name] = abs(value - expected) / abs(expected) if expected else abs(value)
        self.expect(ok, f"{name}: {value!r} vs reference {expected!r} (rtol {rtol}, atol {atol})")


_EVAL_LINE = re.compile(r"MAPE=(\S+)% mse=(\S+) samples=(\d+) excluded=(\d+)")
_TRAIN_LINE = re.compile(r"held-out MAPE=(\S+)% \(mse=(\S+), sequences=(\d+)\)")


def check_outputs(name: str, work: Workdir, last: dict, checks: Checks) -> Optional[float]:
    """Compare the last repetition's outputs with reference.py; return mape_percent."""
    from echochan import seeding
    from echochan.evaluation import split_indices
    from echochan.reservoir import build, with_seed
    from echochan.store import load_dataset, load_model

    config = load_config_copy(work)
    if name == "regression-sweep":
        rows = read_csv(work("sweep.csv"))
        checks.expect([r["value"] for r in rows] == ["ridge", "linear", "lasso"], "sweep cells")
        data = load_dataset(work("sweep.esd"))
        master = config.reservoir.seed
        split_seed = seeding.child_seed(master, seeding.STREAM_SWEEP, 0)
        fit_idx, test_idx = split_indices(data.num_sequences, config.train_fraction, split_seed)
        lams = {"ridge": config.readout.lam, "linear": 0.0}  # lasso cells have no reference
        for v_idx, row in enumerate(rows):
            if row["value"] not in lams or row["mape_percent"] == "nan":
                continue
            res = build(with_seed(config.reservoir, seeding.child_seed(master, seeding.STREAM_SWEEP, v_idx, 0, 0)))
            a, b, _ = reference.accumulators(res, data.subset(fit_idx))
            ref = reference.evaluate(res, reference.ridge(a, b, lams[row["value"]]), data.subset(test_idx))
            checks.close(f"sweep {row['value']} mape_percent", float(row["mape_percent"]), ref["mape_percent"], FIT_RTOL)
            checks.close(f"sweep {row['value']} mse", float(row["mse"]), ref["mse"], FIT_RTOL)
        ok = [float(r["mape_percent"]) for r in rows if r["mape_percent"] != "nan"]
        return statistics.fmean(ok) if ok else None

    def check_eval(res, w_out, data, stdout):
        ref = reference.evaluate(res, w_out, data)
        row = read_csv(work("eval.csv"))[0]
        checks.close("evaluate mape_percent", float(row["mape_percent"]), ref["mape_percent"], EVAL_RTOL)
        checks.close("evaluate mse", float(row["mse"]), ref["mse"], EVAL_RTOL)
        match = _EVAL_LINE.search(stdout)
        checks.expect(match is not None, "evaluate printed no MAPE/samples line")
        if match:
            used, excluded = int(match.group(3)), int(match.group(4))
            checks.expect(
                (used, excluded) == (ref["samples_used"], ref["samples_excluded"]),
                f"evaluate samples {used}/{excluded} vs reference "
                f"{ref['samples_used']}/{ref['samples_excluded']}",
            )
            expected = data.num_sequences * data.output_dim * (data.seq_len - res.config.washout)
            checks.expect(used + excluded == expected, f"samples {used}+{excluded} != S*L*T = {expected}")
        return float(row["mape_percent"])

    if name in ("train", "wide"):
        model = load_model(work("model.esn"))
        train, test = load_dataset(work("train.esd")), load_dataset(work("test.esd"))
        fit_idx, held_idx = split_indices(train.num_sequences, config.train_fraction, config.master_seed)
        mape = check_eval(model, model.w_out, test, last["eval"].stdout)
        # the held-out report printed by `train`
        held = reference.evaluate(model, model.w_out, train.subset(held_idx))
        match = _TRAIN_LINE.search(last["train"].stdout)
        checks.expect(match is not None, "train printed no held-out MAPE line")
        if match:
            checks.close("train held-out mape", float(match.group(1)), held["mape_percent"], atol=PRINTED_MAPE_ATOL)
            checks.close("train held-out mse", float(match.group(2)), held["mse"], PRINTED_MSE_RTOL)
        # the fit itself: refit from reference accumulators, compare on the test file
        a, b, samples = reference.accumulators(model, train.subset(fit_idx))
        checks.expect(samples == len(fit_idx) * train.seq_len, "reference fold size")
        refit = reference.evaluate(model, reference.ridge(a, b, model.method.lam), test)
        checks.close("refit test mape", mape, refit["mape_percent"], FIT_RTOL)
        return mape

    # transfer-feedback
    model = load_model(work("model.esn"))
    source, target_train, target_test = (
        load_dataset(work(f)) for f in ("source.esd", "target_train.esd", "target_test.esd")
    )
    check_eval(model, model.w_out, target_test, last["eval"].stdout)
    seed = seeding.child_seed(config.master_seed, seeding.STREAM_TRANSFER)
    res = build(with_seed(config.reservoir, seed))
    a_s, b_s, _ = reference.accumulators(res, source)
    a_t, b_t, _ = reference.accumulators(res, target_train)
    w_out = reference.ridge(0.5 * a_s + 0.5 * a_t, 0.5 * b_s + 0.5 * b_t, config.readout.lam)
    ref = reference.evaluate(res, w_out, target_test)
    row = read_csv(work("transfer.csv"))[0]
    checks.close("transfer mape_percent", float(row["mape_percent"]), ref["mape_percent"], FIT_RTOL)
    checks.close("transfer mse", float(row["mse"]), ref["mse"], FIT_RTOL)
    return float(row["mape_percent"])


# --- facts ---------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy
    from echochan.config import load_config

    sources = sorted((SRC / "echochan").glob("*.py"))
    digest = hashlib.sha256()
    for path in sorted((SRC / "echochan").iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    config_threads = load_config(None).threads
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_thread_env": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        # resolved as the CLI resolves it: config value, else all cores
        "cli_threads": config_threads or os.cpu_count() or 1,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_echochan_loc": sum(len(p.read_text().splitlines()) for p in sources),
    }


# --- the run -------------------------------------------------------------------


def _run_setup(work: Workdir, args_list: list):
    for args, seed in args_list:
        cmd = run_cli(work.argv(args, seed=seed))
        if cmd.rc != 0:
            raise BenchError(f"set-up command failed ({cmd.rc}): {cmd.argv}\n{cmd.stderr}")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL, inject: Optional[list] = None
) -> dict:
    """Set up, measure and check one workload; return the result record.

    ``inject`` is an extra command run after the measured ones in every
    repetition and counted as an operation (the self-test uses a failing one).
    """
    plan = make_plan(name, scale)
    work = Workdir(name, seed, plan, scale)
    checks = Checks()
    tracer = tracing.Tracer()
    try:
        # Set-up: generate the datasets once before the first repetition and,
        # untraced, SETUPS_PER_REPETITION more times after each repetition, so
        # the set-up samples spread over the run like the other samples.
        generate = [
            (["generate", "--preset", preset, "-n", str(count), "-o", file], work.dataset_seed(file))
            for file, preset, count in plan.data
        ]
        setup_times, data_digests = [], set()

        def set_up():
            started = time.perf_counter()
            _run_setup(work, generate)
            setup_times.append(time.perf_counter() - started)
            data_digests.add(tuple(output_digest(work(f)) for f, _, _ in plan.data))

        with tracing.traced(tracer) if trace else contextlib.nullcontext():
            set_up()
        setup_spans = tracer.take()
        _run_setup(work, [(args, None) for args in plan.prepare])

        # Measured repetitions: untraced, or alternating untraced and traced.
        commands = [(phase, args[0], work.argv(args)) for phase, args in plan.phases]
        if inject:
            commands.append(("injected", inject[0], work.argv(inject)))
        samples = {"setup_s": setup_times, **{f"{phase}_s": [] for phase, _ in plan.phases}}
        totals = {False: [], True: []}  # measured seconds per repetition, by traced
        traced_layers, digests, last = [], set(), {}
        attempted = failed = 0
        started = time.perf_counter()
        iteration = 0
        while iteration < MIN_ITERATIONS or time.perf_counter() - started < seconds:
            is_traced = trace and iteration % 2 == 1
            for output in plan.outputs:
                work(output).unlink(missing_ok=True)
            total = 0.0
            with tracing.traced(tracer) if is_traced else contextlib.nullcontext():
                for phase, subcommand, argv in commands:
                    cmd = last[phase] = run_cli(argv)
                    if phase != "injected":
                        total += cmd.seconds
                        if not is_traced:
                            samples[f"{phase}_s"].append(cmd.seconds)
                    if subcommand == "sweep" and cmd.rc == 0:  # a sweep cell is one operation
                        cells = read_csv(work("sweep.csv"))
                        attempted += len(cells)
                        failed += sum(cell["mape_percent"] == "nan" for cell in cells)
                    else:
                        attempted += 1
                        failed += cmd.rc != 0
            totals[is_traced].append(total)
            if is_traced:
                traced_layers.append(tracing.layer_metrics(setup_spans + tracer.take()))
            digests.add(tuple(output_digest(work(f)) if work(f).exists() else None for f in plan.outputs))
            iteration += 1
            for _ in range(0 if trace else SETUPS_PER_REPETITION):
                set_up()
        measured_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Output checks.
        for phase, cmd in last.items():
            if phase != "injected":
                checks.expect(cmd.rc == 0, f"{phase} command exited {cmd.rc}: {cmd.stderr.strip()[-500:]}")
        checks.expect(len(digests) == 1, "repetitions (traced and untraced) wrote different outputs")
        checks.expect(len(data_digests) == 1, "generate wrote different bytes on repeated set-ups")
        mape = check_outputs(name, work, last, checks) if not checks.failures else None
        config = load_config_copy(work)
        seq_len = config.waveform.sequence_length - config.reservoir.washout
        per_sequence = config.reservoir.output_dim * seq_len
        for layers in traced_layers:
            checks.expect(
                layers["readout.samples_seen"] == plan.fitted * seq_len,
                f"readout.samples_seen {layers['readout.samples_seen']} != "
                f"fitted sequences * T = {plan.fitted} * {seq_len}",
            )
            checks.expect(
                layers["evaluation.samples_used"] + layers["evaluation.samples_excluded"]
                == layers["evaluation.sequences"] * per_sequence,
                "evaluation.samples_used + samples_excluded != evaluation.sequences * L * T",
            )

        if trace:
            metrics = {key: statistics.median(m[key] for m in traced_layers) for key in traced_layers[0]}
            metrics["trace.overhead_s"] = statistics.median(totals[True]) - statistics.median(totals[False])
            metrics["ops_failed_ratio"] = failed / attempted
            units = tracing.PER_LAYER_UNITS
        else:
            metrics = {key: statistics.median(values) for key, values in samples.items()}
            metrics["peak_rss_mb"] = peak_rss_mb
            units = END_TO_END_UNITS
        return {
            "workload": name,
            "seed": seed,
            "iterations": iteration,
            "measured_s": measured_s,
            "samples": samples,
            "mape_percent": mape,
            "correct": not checks.failures,
            "checks_passed": checks.passed,
            "check_failures": checks.failures,
            "deviations": checks.deviations,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
            "last": last,
        }
    finally:
        work.remove()


def load_config_copy(work: Workdir):
    from echochan.config import load_config

    return load_config(str(work.config))


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    print(
        f"workload={result['workload']} seed={result['seed']} repetitions={result['iterations']} "
        f"measured={result['measured_s']:.1f}s"
    )
    for key, entry in result["metrics"].items():
        if key == "ops_failed_ratio":
            continue
        values = result["samples"].get(key)
        detail = f"  median of {len(values)}: {', '.join(f'{v:.4f}' for v in values)}" if values else ""
        print(f"  {key:32s} {entry['value']:14.6f} {entry['unit']}{detail}")
    if result["mape_percent"] is not None:
        print(f"  {'mape_percent':32s} {result['mape_percent']:14.6f} %  (checked against the reference)")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_ratio':32s} {ratio:14.6f} ratio  ({result['failed']} of {result['attempted']} attempted)")
    for phase, cmd in result["last"].items():
        if cmd.rc != 0:
            print(f"  {phase} command exited {cmd.rc}: {cmd.stderr.strip()[-300:]}")
    print(f"checks: {result['checks_passed']} passed, {len(result['check_failures'])} failed")
    for name, deviation in result["deviations"].items():
        print(f"  {name}: relative difference from the reference {deviation:.2e}")
    for failure in result["check_failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "echochan" / "__init__.py").is_file():
        print(f"error: no echochan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import echochan

    if Path(echochan.__file__).resolve().parent != (SRC / "echochan").resolve():
        print(f"error: imported echochan from {echochan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    print("facts: " + json.dumps(machine_facts(), sort_keys=True))
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
