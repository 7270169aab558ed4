"""Readout training tests, including the independent ridge oracle."""

import numpy as np
import pytest

from echochan import numerics
from echochan.channelsim import SequenceDataset
from echochan.errors import RankError, ShapeError
from echochan.numerics import solve_spd
from echochan.readout import (
    Accumulators,
    Lasso,
    Linear,
    ReadoutModel,
    Ridge,
    accumulate,
    accumulate_dataset,
    empty_accumulators,
    fit,
    merge,
    solve,
)
from echochan.reservoir import CHUNK, ReservoirConfig, StateTrajectory, build, harvest


def ridge_gradient_descent(x, y, lam, tol=1e-10, max_iter=200_000):
    """Minimize ||y - w x||_F^2 + lam ||w||_F^2 by exact-line-search descent."""
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


def traj(states):
    return StateTrajectory(states=np.asarray(states, dtype=float), t_offset=0)


class TestAccumulate:
    def test_single_column_outer_products(self):
        acc = accumulate(empty_accumulators(2, 1), traj([[1.0], [2.0]]), [[3.0]])
        np.testing.assert_array_equal(acc.a, [[3.0, 6.0]])
        np.testing.assert_array_equal(acc.b, [[1.0, 2.0], [2.0, 4.0]])
        assert acc.samples_seen == 1

    def test_batching_equals_concatenation(self):
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal((4, 10)), rng.standard_normal((4, 7))
        y1, y2 = rng.standard_normal((2, 10)), rng.standard_normal((2, 7))
        stepwise = accumulate(accumulate(empty_accumulators(4, 2), traj(x1), y1), traj(x2), y2)
        joined = accumulate(
            empty_accumulators(4, 2), traj(np.hstack([x1, x2])), np.hstack([y1, y2])
        )
        assert np.abs(stepwise.a - joined.a).max() < 1e-12
        assert np.abs(stepwise.b - joined.b).max() < 1e-12
        assert stepwise.samples_seen == joined.samples_seen == 17

    def test_zero_states_leave_accumulators_unchanged(self):
        acc = accumulate(empty_accumulators(3, 2), traj(np.zeros((3, 5))), np.zeros((2, 5)))
        assert not np.any(acc.a)
        assert not np.any(acc.b)
        assert acc.samples_seen == 5

    def test_b_stays_symmetric(self):
        rng = np.random.default_rng(1)
        acc = empty_accumulators(6, 2)
        for _ in range(4):
            x = rng.standard_normal((6, 20))
            acc = accumulate(acc, traj(x), rng.standard_normal((2, 20)))
        assert np.abs(acc.b - acc.b.T).max() < 1e-9 * np.abs(acc.b).max()

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            accumulate(empty_accumulators(2, 1), traj(np.ones((2, 3))), np.ones((1, 4)))

    def test_merge_at_default_weights_is_the_plain_sum(self):
        rng = np.random.default_rng(3)
        first, second = (
            Accumulators(
                a=rng.standard_normal((2, 70)), b=rng.standard_normal((70, 70)), samples_seen=s
            )
            for s in (2**40 + 3, 11)
        )
        copies = [(acc.a.copy(), acc.b.copy()) for acc in (first, second)]
        merged = merge(first, second)
        assert merged.a.tobytes() == (first.a + second.a).tobytes()
        assert merged.b.tobytes() == (first.b + second.b).tobytes()
        assert merged.samples_seen == 2**40 + 14
        for acc, (a, b) in zip((first, second), copies):
            assert acc.a.tobytes() == a.tobytes() and acc.b.tobytes() == b.tobytes()


class TestSolve:
    def test_exact_line_linear(self):
        acc = accumulate(empty_accumulators(1, 1), traj([[1.0, 2.0, 3.0]]), [[2.0, 4.0, 6.0]])
        model = solve(acc, Linear())
        assert model.w_out[0, 0] == pytest.approx(2.0)

    def test_scalar_ridge_shrinks(self):
        acc = accumulate(empty_accumulators(1, 1), traj([[1.0]]), [[1.0]])
        model = solve(acc, Ridge(lam=1.0))
        assert model.w_out[0, 0] == pytest.approx(0.5)

    def test_ridge_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 200))
        y = rng.standard_normal((2, 200))
        expected = ridge_gradient_descent(x, y, lam=0.1)
        acc = accumulate(empty_accumulators(20, 2), traj(x), y)
        model = solve(acc, Ridge(lam=0.1))
        assert np.abs(model.w_out - expected).max() < 1e-6

    def test_ridge_stationarity_from_accumulators(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((15, 120))
        y = rng.standard_normal((3, 120))
        acc = accumulate(empty_accumulators(15, 3), traj(x), y)
        lam = 0.5
        w = solve(acc, Ridge(lam=lam)).w_out
        gradient = 2.0 * (w @ acc.b - acc.a) + 2.0 * lam * w
        assert np.abs(gradient).max() < 1e-6

    def test_ridge_adds_lambda_to_the_diagonal_only(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 90))
        acc = accumulate(empty_accumulators(30, 2), traj(x), rng.standard_normal((2, 90)))
        b = acc.b.copy()
        expected = np.ascontiguousarray(solve_spd(b + 0.3 * np.eye(30), acc.a.T).T)
        assert solve(acc, Ridge(lam=0.3)).w_out.tobytes() == expected.tobytes()
        assert acc.b.tobytes() == b.tobytes()  # solved on a copy

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 80))
        y = rng.standard_normal((2, 80))
        acc = accumulate(empty_accumulators(10, 2), traj(x), y)
        norms = [
            np.linalg.norm(solve(acc, Ridge(lam=lam)).w_out)
            for lam in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_singular_linear_advises_ridge(self):
        x = np.zeros((3, 5))
        x[0] = 1.0  # rank one
        acc = accumulate(empty_accumulators(3, 1), traj(x), np.ones((1, 5)))
        with pytest.raises(RankError, match="[Rr]idge"):
            solve(acc, Linear())

    @pytest.mark.parametrize("dpotrf", ["built", None])
    def test_singular_linear_is_a_rank_error_on_both_paths(self, monkeypatch, dpotrf):
        if dpotrf is None:
            monkeypatch.setattr(numerics, "_DPOTRF", None)
        x = np.zeros((3, 5))
        x[0] = 1.0  # rank one
        acc = accumulate(empty_accumulators(3, 1), traj(x), np.ones((1, 5)))
        with pytest.raises(RankError, match="[Rr]idge"):
            solve(acc, Linear())

    def test_lasso_approaches_linear_at_tiny_lambda(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 300))
        y = rng.standard_normal((2, 300))
        acc = accumulate(empty_accumulators(8, 2), traj(x), y)
        linear = solve(acc, Linear()).w_out
        lasso = solve(acc, Lasso(lam=1e-8)).w_out
        assert np.abs(lasso - linear).max() < 1e-3

    def test_lasso_sparsifies_at_large_lambda(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 100))
        y = rng.standard_normal((1, 100))
        acc = accumulate(empty_accumulators(10, 1), traj(x), y)
        small = np.count_nonzero(solve(acc, Lasso(lam=1e-6)).w_out)
        large = np.count_nonzero(solve(acc, Lasso(lam=50.0)).w_out)
        assert large < small


def make_dataset(num_sequences, t, seed, k=2):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1, 1, size=(num_sequences, k, t))
    targets = rng.uniform(-1, 1, size=(num_sequences, k, t))
    return SequenceDataset(inputs=inputs, targets=targets)


def linear_map_dataset(r, num_sequences, t, seed):
    """Targets are a fixed linear map of the harvested states: realizable."""
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal((r.config.output_dim, r.config.reservoir_size))
    inputs = rng.uniform(-1, 1, size=(num_sequences, r.config.input_dim, t))
    targets = np.empty((num_sequences, r.config.output_dim, t))
    for i in range(num_sequences):
        targets[i] = w_true @ harvest(r, inputs[i]).states
    return SequenceDataset(inputs=inputs, targets=targets), w_true


class TestReadoutModel:
    def test_callers_array_stays_writeable_and_unshared(self):
        w_out = np.arange(6.0).reshape(2, 3)
        model = ReadoutModel(w_out=w_out, method=Ridge())
        assert w_out.flags.writeable
        w_out[0, 0] = 9.0
        assert model.w_out[0, 0] == 0.0
        assert not model.w_out.flags.writeable


class TestFit:
    def setup_method(self):
        self.reservoir = build(
            ReservoirConfig(input_dim=2, reservoir_size=40, output_dim=2, seed=11)
        )

    def test_recovers_realizable_linear_map(self):
        from echochan.evaluation import mape

        dataset, w_true = linear_map_dataset(self.reservoir, 8, 60, seed=12)
        model = fit(self.reservoir, dataset, Ridge(lam=1e-10))
        assert np.abs(model.w_out - w_true).max() < 1e-4
        traj0 = harvest(self.reservoir, dataset.inputs[0])
        report = mape(dataset.targets[0], model.w_out @ traj0.states)
        assert report.mape_percent < 0.1

    def test_partition_invariance(self):
        dataset = make_dataset(12, 30, seed=13)
        whole = accumulate_dataset(self.reservoir, dataset)
        first = accumulate_dataset(self.reservoir, dataset.subset(range(5)))
        second = accumulate_dataset(self.reservoir, dataset.subset(range(5, 12)))
        merged = merge(first, second)
        assert np.abs(whole.a - merged.a).max() < 1e-12
        assert np.abs(whole.b - merged.b).max() < 1e-12
        w_whole = solve(whole, Ridge()).w_out
        w_merged = solve(merged, Ridge()).w_out
        assert np.abs(w_whole - w_merged).max() < 1e-10

    @pytest.mark.parametrize("sequences", [CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("use_feedback", [False, True])
    def test_fit_matches_per_sequence_fold(self, sequences, use_feedback):
        # 200 steps cross a time block; CHUNK + 1 sequences cross a chunk
        r = build(
            ReservoirConfig(
                input_dim=2,
                reservoir_size=40,
                output_dim=2,
                use_feedback=use_feedback,
                washout=5,
                seed=11,
            )
        )
        dataset = make_dataset(sequences, 200, seed=18)
        by_hand = empty_accumulators(40, 2)
        for inputs, targets in zip(dataset.inputs, dataset.targets):
            traj = harvest(r, inputs, teacher=targets if use_feedback else None)
            part = accumulate(empty_accumulators(40, 2), traj, targets[:, traj.t_offset :])
            by_hand = merge(by_hand, part)
        acc = accumulate_dataset(r, dataset)
        assert acc.samples_seen == by_hand.samples_seen == sequences * 195
        assert np.abs(acc.a - by_hand.a).max() < 1e-12
        assert np.abs(acc.b - by_hand.b).max() < 1e-12
        w_fit = fit(r, dataset, Ridge()).w_out
        w_hand = solve(by_hand, Ridge()).w_out
        assert np.abs(w_fit - w_hand).max() < 1e-10

    def test_fold_needs_a_dataset_and_a_weight_for_each(self):
        dataset = make_dataset(2, 40, seed=20)
        with pytest.raises(ShapeError, match="no dataset"):
            accumulate_dataset(self.reservoir)
        with pytest.raises(ShapeError, match="1 weights for 2 datasets"):
            accumulate_dataset(self.reservoir, dataset, dataset, weights=(0.5,))

    @pytest.mark.parametrize("use_feedback", [False, True])
    def test_dsyrk_fold_matches_fallback_bytes(self, monkeypatch, use_feedback):
        r = build(
            ReservoirConfig(
                input_dim=2, reservoir_size=40, output_dim=2, use_feedback=use_feedback,
                washout=5, seed=11,
            )
        )
        dataset = make_dataset(CHUNK + 1, 200, seed=19)
        direct = accumulate_dataset(r, dataset)
        monkeypatch.setattr(numerics, "_DSYRK", None)
        fallback = accumulate_dataset(r, dataset)
        assert direct.b.tobytes() == fallback.b.tobytes()
        assert direct.a.tobytes() == fallback.a.tobytes()
        assert np.array_equal(direct.b, direct.b.T)

    def test_heavy_regularization_shrinks_to_zero(self):
        dataset = make_dataset(6, 40, seed=15)
        free = fit(self.reservoir, dataset, Ridge(lam=0.0))
        heavy = fit(self.reservoir, dataset, Ridge(lam=1e6))
        assert np.abs(heavy.w_out).max() < 1e-3 * np.abs(free.w_out).max()

    def test_dimension_mismatch_rejected(self):
        dataset = make_dataset(4, 20, seed=16, k=3)
        with pytest.raises(ShapeError):
            fit(self.reservoir, dataset, Ridge())

    def test_empty_dataset_rejected(self):
        dataset = make_dataset(0, 20, seed=17)
        with pytest.raises(ShapeError):
            fit(self.reservoir, dataset, Ridge())

