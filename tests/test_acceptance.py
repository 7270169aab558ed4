"""Acceptance suite: the release gates for this package.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (run with
``pytest -s tests/test_acceptance.py`` to see them as they complete).
The heavyweight gates (initializer radius bands, full-scale
learnability) take a few minutes combined.
"""

import numpy as np
import pytest

from echochan import seeding
from echochan.channelsim import generate_dataset, generate_sequence, raised_cosine_taps
from echochan.cli import main
from echochan.config import load_config
from echochan.evaluation import (
    SweepAxis,
    SweepSpec,
    evaluate,
    mape,
    run_sweep,
    split_indices,
)
from echochan.numerics import spectral_radius
from echochan.readout import (
    Ridge,
    accumulate,
    accumulate_dataset,
    empty_accumulators,
    fit,
    merge,
    solve,
)
from echochan.reservoir import (
    InitMethod,
    ReservoirConfig,
    StateTrajectory,
    build,
    harvest,
    init_matrix,
    with_seed,
)
from echochan.transfer import direct_transfer_eval, fine_tune


def report(name: str, passed: bool, detail: str) -> None:
    from conftest import record_acceptance

    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {name}: {status} ({detail})"
    print(line, flush=True)
    record_acceptance(line)
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def shipped():
    return load_config()


def test_01_raw_initializer_radius_bands():
    """Mean raw spectral radius per initializer stays in its band."""
    bands = {
        InitMethod.XAVIER: (0.50, 0.70),
        InitMethod.NORMALIZED_XAVIER: (0.92, 1.20),
        InitMethod.HE: (1.33, 1.55),
    }
    sizes = (50, 100, 150, 300, 578, 600, 1200)
    failures = []
    means = {}
    for n in sizes:
        for method, (lo, hi) in bands.items():
            radii = [
                spectral_radius(init_matrix(method, n, n, 1.0, seed=1000 + s))
                for s in range(10)
            ]
            mean = float(np.mean(radii))
            means[(method.value, n)] = mean
            if not lo <= mean <= hi:
                failures.append(f"{method.value}@N={n}: {mean:.3f} not in [{lo}, {hi}]")
    sample = ", ".join(
        f"{m}@578={means[(m, 578)]:.3f}" for m in ("xavier", "normalized_xavier", "he")
    )
    report(
        "raw-initializer-radius-bands",
        not failures,
        "; ".join(failures) if failures else f"all {len(means)} means in band; {sample}",
    )


def test_02_fading_memory_at_full_size():
    """Different initial states converge below 1e-6 within 500 steps."""
    config = ReservoirConfig(
        input_dim=2, reservoir_size=578, output_dim=2, target_spectral_radius=0.5, seed=2024
    )
    r = build(config)
    rng = np.random.default_rng(7)
    inputs = rng.uniform(-1.0, 1.0, size=(2, 500))
    from_zero = harvest(r, inputs)
    from_random = harvest(r, inputs, initial_state=rng.uniform(-1.0, 1.0, size=578))
    diff = np.abs(from_zero.states - from_random.states).max(axis=0)
    converged_at = int(np.argmax(diff < 1e-6)) + 1 if (diff < 1e-6).any() else -1
    final = diff[-1]
    report(
        "fading-memory",
        0 < converged_at <= 500 and final < 1e-6,
        f"below 1e-6 after {converged_at} steps, final diff {final:.2e}",
    )


def ridge_gradient_descent(x, y, lam, tol=1e-10, max_iter=200_000):
    w = np.zeros((y.shape[0], x.shape[0]))
    for _ in range(max_iter):
        residual = y - w @ x
        grad = -2.0 * residual @ x.T + 2.0 * lam * w
        gnorm2 = float(np.sum(grad * grad))
        if np.sqrt(gnorm2) < tol:
            break
        gx = grad @ x
        step = gnorm2 / (2.0 * float(np.sum(gx * gx)) + 2.0 * lam * gnorm2)
        w = w - step * grad
    return w


def test_03_closed_form_against_descent_oracle():
    """Ridge solve matches gradient descent; batch split changes nothing."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal((20, 200))
        y = rng.standard_normal((2, 200))
        oracle = ridge_gradient_descent(x, y, lam=0.1)
        acc = accumulate(empty_accumulators(20, 2), StateTrajectory(x), y)
        closed = solve(acc, Ridge(lam=0.1)).w_out
        worst = max(worst, float(np.abs(closed - oracle).max()))
    oracle_ok = worst < 1e-6

    r = build(ReservoirConfig(input_dim=2, reservoir_size=30, output_dim=2, seed=12))
    inputs = rng.uniform(-1, 1, size=(64, 2, 40))
    targets = rng.uniform(-1, 1, size=(64, 2, 40))
    from echochan.channelsim import SequenceDataset

    dataset = SequenceDataset(inputs=inputs, targets=targets)
    whole = accumulate_dataset(r, dataset)
    by_32 = merge(
        accumulate_dataset(r, dataset.subset(range(32))),
        accumulate_dataset(r, dataset.subset(range(32, 64))),
    )
    by_1 = empty_accumulators(30, 2)
    for i in range(64):
        by_1 = merge(by_1, accumulate_dataset(r, dataset.subset([i])))
    w_whole = solve(whole, Ridge()).w_out
    w_32 = solve(by_32, Ridge()).w_out
    w_1 = solve(by_1, Ridge()).w_out
    split_diff = max(
        float(np.abs(w_whole - w_32).max()), float(np.abs(w_whole - w_1).max())
    )
    split_ok = split_diff < 1e-10
    report(
        "closed-form-readout",
        oracle_ok and split_ok,
        f"oracle max diff {worst:.2e} (<1e-6), batch-split max diff {split_diff:.2e} (<1e-10)",
    )


def test_04_learnability_at_full_scale(shipped):
    """Full-size ESN halves the zero baseline and beats passthrough."""
    from dataclasses import replace

    wave = replace(shipped.waveform, seed=404)
    chan = shipped.channel("data1")
    train_ds = generate_dataset(wave, chan, 1000)
    test_ds = generate_dataset(replace(wave, seed=405), chan, 200)

    r = build(with_seed(shipped.reservoir, 406))
    assert r.config.reservoir_size == 578
    assert r.config.target_spectral_radius == 0.5
    model = fit(r, train_ds, shipped.readout)
    esn = evaluate(r, model, test_ds).mape_percent

    zero_baseline = 100.0
    passthrough = mape(test_ds.targets, test_ds.inputs).mape_percent
    ok = esn <= 0.5 * zero_baseline and esn <= 0.7 * passthrough
    report(
        "end-to-end-learnability",
        ok,
        f"ESN {esn:.2f}% vs zero {zero_baseline:.0f}% (need <=50%) "
        f"and passthrough {passthrough:.2f}% (need <={0.7 * passthrough:.2f}%)",
    )


def test_05_spectral_radius_robustness(shipped):
    """MAPE is flat across the stable range of spectral radii."""
    from dataclasses import replace

    wave = replace(shipped.waveform, seed=505)
    dataset = generate_dataset(wave, shipped.channel("data3"), 120)
    base = ReservoirConfig(
        input_dim=2, reservoir_size=150, output_dim=2, target_spectral_radius=0.5, seed=506
    )
    spec = SweepSpec(
        axis=SweepAxis.RADIUS,
        values=tuple(shipped.sweep.radius_values),
        base_config=base,
        method=shipped.readout,
        datasets=(("data3", dataset),),
        repeats=3,
    )
    result = run_sweep(spec)
    assert all(row.error is None for row in result.rows)
    means = {
        row["value"]: row["mean_mape_percent"] for row in result.summarize()
    }
    ratio = max(means.values()) / min(means.values())
    report(
        "spectral-radius-robustness",
        ratio <= 1.5,
        f"mean MAPE range [{min(means.values()):.2f}%, {max(means.values()):.2f}%], "
        f"max/min {ratio:.3f} (need <=1.5) over rho {sorted(means)}",
    )


def test_06_reservoir_size_trend(shipped):
    """Mean MAPE at N=300 is strictly below N=50 on the benign preset."""
    from dataclasses import replace

    wave = replace(shipped.waveform, seed=606)
    dataset = generate_dataset(wave, shipped.channel("data1"), 120)
    base = ReservoirConfig(
        input_dim=2, reservoir_size=150, output_dim=2, target_spectral_radius=0.5, seed=607
    )
    spec = SweepSpec(
        axis=SweepAxis.SIZE,
        values=(50, 150, 300),
        base_config=base,
        method=shipped.readout,
        datasets=(("data1", dataset),),
        repeats=3,
    )
    result = run_sweep(spec)
    assert all(row.error is None for row in result.rows)
    means = {row["value"]: row["mean_mape_percent"] for row in result.summarize()}
    monotone = means["300"] < means["150"] < means["50"]
    report(
        "reservoir-size-trend",
        means["300"] < means["50"] and monotone,
        f"mean MAPE N=50: {means['50']:.2f}%, N=150: {means['150']:.2f}%, "
        f"N=300: {means['300']:.2f}% (monotone={monotone})",
    )


def test_07_transfer_trend(shipped):
    """Fine-tuning on target data never loses to direct transfer."""
    from dataclasses import replace

    wave = replace(shipped.waveform, seed=707)
    source = generate_dataset(wave, shipped.channel("bellhop_like"), 120)
    target_train = generate_dataset(replace(wave, seed=708), shipped.channel("data3"), 120)
    target_test = generate_dataset(replace(wave, seed=709), shipped.channel("data3"), 40)

    directs, tuneds = [], []
    per_repeat_ok = []
    for seed in (710, 711, 712):
        base = ReservoirConfig(
            input_dim=2, reservoir_size=150, output_dim=2, target_spectral_radius=0.5, seed=seed
        )
        r = build(base)
        model = fit(r, source, shipped.readout)
        direct = direct_transfer_eval(r, model, target_test).mape_percent
        tuned_model = fine_tune(r, source, target_train, 0.0, shipped.readout)
        tuned = evaluate(r, tuned_model, target_test).mape_percent
        directs.append(direct)
        tuneds.append(tuned)
        per_repeat_ok.append(tuned <= direct)
    detail = (
        f"direct {np.mean(directs):.1f}%±{np.std(directs):.1f}, "
        f"fine-tuned {np.mean(tuneds):.1f}%±{np.std(tuneds):.1f}, "
        f"per-repeat {per_repeat_ok}"
    )
    report("transfer-trend", all(per_repeat_ok), detail)


def test_08_mape_unit_values():
    """The worked metric examples hold exactly."""
    ten = mape([100.0, 200.0], [110.0, 180.0])
    perfect = mape(np.array([1.0, -2.0, 3.0]), np.array([1.0, -2.0, 3.0]))
    excl = mape([0.0, 1.0], [5.0, 1.0], epsilon=1e-9)
    ok = (
        abs(ten.mape_percent - 10.0) < 1e-12
        and perfect.mape_percent == 0.0
        and excl.mape_percent == 0.0
        and excl.samples_excluded == 1
    )
    report(
        "mape-unit-values",
        ok,
        f"10%-case={ten.mape_percent}, perfect={perfect.mape_percent}, "
        f"exclusion=({excl.mape_percent}, excluded {excl.samples_excluded})",
    )


def test_09_pipeline_determinism(tmp_path, capsys):
    """generate -> train -> evaluate twice: identical bytes and MAPE; and
    each generated sequence is its own seed's, whatever batch made it."""
    from dataclasses import replace

    import yaml

    config = {
        "master_seed": 909,
        "threads": 1,
        "waveform": {
            "bits_per_sequence": 120,
            "samples_per_symbol": 2,
            "rolloff": 0.35,
            "filter_span": 8,
            "sequence_length": 120,
        },
        "channels": {
            "echo": {
                "kind": "multipath",
                "snr_db": 28.0,
                "taps": [[0, 0.95, 0.1], [1, -0.18, 0.12]],
            }
        },
        "reservoir": {
            "reservoir_size": 60,
            "init": "xavier",
            "spectral_radius": 0.5,
            "activation": "tanh",
        },
        "readout": {"method": "ridge", "ridge_lambda": 1.0e-6},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))

    artifacts = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        data = base / "d.esd"
        model = base / "m.esn"
        assert main(["--config", str(config_path), "generate", "--preset", "echo", "-n", "30", "-o", str(data)]) == 0
        assert main(["--config", str(config_path), "train", str(data), "-o", str(model)]) == 0
        assert main(["--config", str(config_path), "evaluate", str(model), str(data)]) == 0
        out = capsys.readouterr().out
        mape_line = [line for line in out.splitlines() if line.startswith("MAPE=")][-1]
        artifacts.append((data.read_bytes(), model.read_bytes(), mape_line))

    same_data = artifacts[0][0] == artifacts[1][0]
    same_model = artifacts[0][1] == artifacts[1][1]
    same_mape = artifacts[0][2] == artifacts[1][2]

    # round trips are bit-exact
    from echochan.store import load_dataset, load_model, save_dataset, save_model

    ds = load_dataset(tmp_path / "one" / "d.esd")
    save_dataset(ds, tmp_path / "roundtrip.esd")
    rt_data = (tmp_path / "roundtrip.esd").read_bytes() == artifacts[0][0]
    art = load_model(tmp_path / "one" / "m.esn")
    save_model(art, tmp_path / "roundtrip.esn")
    rt_model = (tmp_path / "roundtrip.esn").read_bytes() == artifacts[0][1]

    # the 30 sequences span two batches; sequence i is still the one-sequence
    # triple of child(seed, SEQUENCE, i)
    run = load_config(str(config_path))
    wave = replace(run.waveform, seed=909)
    seeds = (seeding.child_seed(909, seeding.STREAM_SEQUENCE, i) for i in range(ds.num_sequences))
    triples = (generate_sequence(wave, run.channel("echo"), seed) for seed in seeds)
    own_seeds = all(
        np.array_equal(x, tx) and np.array_equal(y, rx)
        for x, y, (tx, _, rx) in zip(ds.inputs, ds.targets, triples)
    )

    report(
        "pipeline-determinism",
        same_data and same_model and same_mape and rt_data and rt_model and own_seeds,
        f"dataset bytes equal={same_data}, model bytes equal={same_model}, "
        f"MAPE line equal={same_mape}, round-trips exact={rt_data and rt_model}, "
        f"sequences from their own seeds={own_seeds}; {artifacts[0][2]}",
    )


def test_10_raised_cosine_analytics():
    """Center tap, Nyquist zeros, and the removable singularity."""
    taps = raised_cosine_taps(0.35, 8, 4)
    center = taps.size // 2
    h0_ok = taps[center] == 1.0

    zero_worst = 0.0
    for beta in (0.25, 0.35, 0.5, 1.0):
        t = raised_cosine_taps(beta, 8, 4)
        c = t.size // 2
        for k in (1, 2, 3, 4):
            zero_worst = max(zero_worst, abs(t[c + 4 * k]), abs(t[c - 4 * k]))
    zeros_ok = zero_worst < 1e-12

    half_symbol = raised_cosine_taps(1.0, 8, 2)
    singular = half_symbol[half_symbol.size // 2 + 1]
    singular_ok = abs(singular - 0.5) < 1e-12

    report(
        "raised-cosine-analytics",
        h0_ok and zeros_ok and singular_ok,
        f"h(0)={taps[center]}, worst Nyquist zero {zero_worst:.2e} (<1e-12), "
        f"beta=1 half-symbol value {float(singular)} (=0.5 within 1e-12)",
    )
