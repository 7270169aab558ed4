"""Reservoir construction and dynamics tests."""

from dataclasses import replace

import numpy as np
import pytest

from echochan import reservoir as reservoir_mod
from echochan.errors import NonFiniteError, RescaleError, ShapeError
from echochan.numerics import spectral_radius
from echochan.reservoir import (
    Activation,
    InitMethod,
    Reservoir,
    ReservoirConfig,
    build,
    harvest,
    init_matrix,
    predictions,
    state_blocks,
)


def small_config(**overrides):
    base = dict(input_dim=2, reservoir_size=50, output_dim=2, seed=7)
    base.update(overrides)
    return ReservoirConfig(**base)


class TestInitMatrix:
    def test_xavier_bound(self):
        m = init_matrix(InitMethod.XAVIER, 100, 100, 1.0, seed=1)
        assert np.abs(m).max() <= 0.1

    def test_zero_sparsity_gives_zero_matrix(self):
        for method in InitMethod:
            m = init_matrix(method, 20, 20, 0.0, seed=2)
            assert not np.any(m)

    def test_he_sample_std(self):
        m = init_matrix(InitMethod.HE, 400, 400, 1.0, seed=3)
        expected = np.sqrt(2.0 / 400)
        assert m.std() == pytest.approx(expected, rel=0.10)

    def test_sparsity_fraction(self):
        m = init_matrix(InitMethod.RANDOM, 200, 200, 0.3, seed=4)
        assert np.count_nonzero(m) / m.size == pytest.approx(0.3, abs=0.03)

    def test_deterministic_per_seed(self):
        a = init_matrix(InitMethod.NORMALIZED_XAVIER, 30, 40, 0.5, seed=5)
        b = init_matrix(InitMethod.NORMALIZED_XAVIER, 30, 40, 0.5, seed=5)
        np.testing.assert_array_equal(a, b)
        c = init_matrix(InitMethod.NORMALIZED_XAVIER, 30, 40, 0.5, seed=6)
        assert np.any(a != c)

    def test_raw_radius_bands(self):
        # means over 5 seeds at two sizes; the full table runs in acceptance
        bands = {
            InitMethod.XAVIER: (0.50, 0.70),
            InitMethod.NORMALIZED_XAVIER: (0.92, 1.20),
            InitMethod.HE: (1.33, 1.55),
        }
        for n in (50, 150):
            for method, (lo, hi) in bands.items():
                mean = np.mean(
                    [spectral_radius(init_matrix(method, n, n, 1.0, seed=s)) for s in range(5)]
                )
                assert lo <= mean <= hi, f"{method.value} at N={n}: {mean}"


class TestRescale:
    """Linear rescaling of the recurrent matrix to the target radius in ``build``."""

    def test_scales_down_to_target(self):
        raw = build(small_config(init=InitMethod.RANDOM, reservoir_size=40, allow_unstable=True))
        raw_radius = spectral_radius(raw.w)
        assert raw_radius > 2.0
        r = build(small_config(init=InitMethod.RANDOM, reservoir_size=40))
        assert spectral_radius(r.w) == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(r.w, raw.w * (0.5 / raw_radius), atol=1e-12)

    def test_already_at_target_unchanged(self):
        r = build(small_config(reservoir_size=30, target_spectral_radius=0.7))
        again = r.w * (0.7 / spectral_radius(r.w))
        assert np.abs(again - r.w).max() < 1e-12

    def test_he_raw_radius_then_rescale(self):
        raw = build(small_config(init=InitMethod.HE, reservoir_size=578, allow_unstable=True))
        assert 1.3 < spectral_radius(raw.w) < 1.6
        r = build(small_config(init=InitMethod.HE, reservoir_size=578))
        assert spectral_radius(r.w) == pytest.approx(0.5, abs=1e-4)

    def test_zero_matrix_rejected(self):
        with pytest.raises(RescaleError):
            build(small_config(reservoir_size=5, sparsity=0.0))
        # without rescaling a zero matrix is a valid (if inert) reservoir
        r = build(small_config(reservoir_size=5, sparsity=0.0, allow_unstable=True))
        assert r.achieved_radius == 0.0


class TestBuild:
    def test_deterministic_per_seed(self):
        a = build(small_config())
        b = build(small_config())
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_fb, b.w_fb)

    def test_different_seed_differs(self):
        a = build(small_config(seed=7))
        b = build(small_config(seed=8))
        assert np.any(a.w != b.w)

    def test_achieved_radius_matches_target(self):
        r = build(small_config(target_spectral_radius=0.3))
        assert r.achieved_radius == pytest.approx(0.3, abs=1e-4)
        assert spectral_radius(r.w) == pytest.approx(0.3, abs=1e-4)

    def test_one_eigendecomposition_per_build(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(m):
            calls.append(m.shape)
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        for allow_unstable in (False, True):
            calls.clear()
            build(small_config(allow_unstable=allow_unstable))
            assert calls == [(50, 50)], f"allow_unstable={allow_unstable}"

    def test_allow_unstable_skips_rescale(self):
        r = build(small_config(init=InitMethod.HE, allow_unstable=True))
        assert r.achieved_radius > 1.3

    def test_weights_frozen(self):
        r = build(small_config())
        with pytest.raises(ValueError):
            r.w[0, 0] = 1.0

    def test_callers_arrays_stay_writeable_and_unshared(self):
        r = build(small_config())
        given = {"w_in": r.w_in.copy(), "w": r.w.copy(order="F"), "w_fb": r.w_fb.copy()}
        kept = Reservoir(config=r.config, achieved_radius=r.achieved_radius, **given)
        for name, matrix in given.items():
            assert matrix.flags.writeable, name
            matrix[0, 0] += 1.0
            assert getattr(kept, name)[0, 0] == getattr(r, name)[0, 0], name

    @pytest.mark.parametrize(
        "name, expected", [("w_in", "50 x 2"), ("w", "50 x 50"), ("w_fb", "50 x 2")]
    )
    def test_wrong_matrix_shape_names_it(self, name, expected):
        r = build(small_config())
        matrices = {"w_in": r.w_in, "w": r.w, "w_fb": r.w_fb, name: np.zeros((3, 4))}
        with pytest.raises(ShapeError, match=rf"{name} must be {expected}, got shape \(3, 4\)"):
            Reservoir(config=r.config, achieved_radius=r.achieved_radius, **matrices)

    # N = 100 is one full 64-row band and a partial one: a value in each
    @pytest.mark.parametrize(
        "name, index, value",
        [("w_in", (0, 1), np.nan), ("w", (99, 0), np.inf), ("w", (70, 99), np.nan), ("w_fb", (99, 1), -np.inf)],
    )
    def test_non_finite_matrix_is_refused(self, name, index, value):
        r = build(small_config(reservoir_size=100))
        matrix = np.array(getattr(r, name))
        matrix[index] = value
        with pytest.raises(NonFiniteError, match=f"matrix {name} contains non-finite values"):
            replace(r, **{name: matrix})

    def test_no_feedback_gives_zero_w_fb(self):
        r = build(small_config(use_feedback=False))
        assert not np.any(r.w_fb)

    def test_feedback_w_fb_initialized(self):
        r = build(small_config(use_feedback=True))
        assert np.any(r.w_fb)

    def test_zero_sparsity_cannot_rescale(self):
        with pytest.raises(RescaleError):
            build(small_config(sparsity=0.0))

    def test_bad_radius_rejected_without_allow_unstable(self):
        with pytest.raises(ValueError):
            small_config(target_spectral_radius=1.5)
        small_config(target_spectral_radius=1.5, allow_unstable=True)


class TestUpdateState:
    """The state update rule as ``harvest`` steps it, open and closed loop."""

    def test_zero_inputs_zero_state_tanh(self):
        r = build(small_config(use_feedback=True))
        traj = harvest(r, np.zeros((2, 5)), w_out=np.ones((2, 50)))
        assert not np.any(traj.states)

    def test_scalar_tanh_value(self):
        r = scalar_reservoir(Activation.TANH)
        traj = harvest(r, np.ones((1, 1)))
        assert traj.states[0, 0] == pytest.approx(np.tanh(1.0), abs=1e-9)

    def test_scalar_sigmoid_value(self):
        r = scalar_reservoir(Activation.SIGMOID)
        traj = harvest(r, np.ones((1, 1)))
        assert traj.states[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-9)

    def test_dimension_mismatch(self):
        r = build(small_config())
        with pytest.raises(ShapeError):
            harvest(r, np.zeros((2, 5)), initial_state=np.zeros(49))
        with pytest.raises(ShapeError):
            harvest(r, np.zeros((3, 5)))
        fb = build(small_config(use_feedback=True))
        with pytest.raises(ShapeError):
            harvest(fb, np.zeros((2, 5)), w_out=np.zeros((2, 49)))
        with pytest.raises(ShapeError):
            harvest(fb, np.zeros((2, 5)), teacher=np.zeros((2, 4)))

    @pytest.mark.parametrize("activation", list(Activation))
    def test_closed_loop_matches_hand_stepped_recurrence(self, activation):
        # x(t) = f(u(t) + 0.5 x(t-1) + 0.3 y(t-1)), y(t-1) = 2 x(t-1), y(0) = 0
        r = scalar_reservoir(activation, w=0.5, w_fb=0.3)
        inputs = np.array([[0.4, -1.2, 0.7, 0.1, -0.3, 0.9]])
        f = activation.apply
        x = y = 0.0
        expected = []
        for u in inputs[0]:
            x = float(f(np.float64(u + 0.5 * x + 0.3 * y)))
            y = 2.0 * x
            expected.append(x)
        traj = harvest(r, inputs, w_out=np.array([[2.0]]))
        np.testing.assert_allclose(traj.states[0], expected, rtol=1e-14, atol=0.0)


def scalar_reservoir(activation, w=0.0, w_fb=0.0):
    """1x1 reservoir with w_in = [1]; feedback is enabled when ``w_fb`` != 0."""
    config = ReservoirConfig(
        input_dim=1,
        reservoir_size=1,
        output_dim=1,
        activation=activation,
        use_feedback=w_fb != 0.0,
        seed=0,
        allow_unstable=True,
        target_spectral_radius=0.5,
    )
    return Reservoir(
        config=config,
        w_in=np.array([[1.0]]),
        w=np.array([[w]]),
        w_fb=np.array([[w_fb]]),
        achieved_radius=abs(w),
    )


class TestHarvest:
    def test_zero_input_all_states_zero(self):
        r = build(small_config())
        traj = harvest(r, np.zeros((2, 30)))
        assert not np.any(traj.states)

    def test_washout_trims_columns(self):
        r = build(small_config(washout=5))
        rng = np.random.default_rng(0)
        traj = harvest(r, rng.uniform(-1, 1, size=(2, 20)))
        assert traj.states.shape == (50, 15)
        assert traj.t_offset == 5

    def test_washout_exhausts_sequence(self):
        r = build(small_config(washout=20))
        with pytest.raises(ShapeError):
            harvest(r, np.zeros((2, 20)))

    def test_states_in_activation_range(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-2, 2, size=(2, 100))
        ranges = {
            Activation.TANH: (-1.0, 1.0),
            Activation.RELU: (0.0, np.inf),
            Activation.SIGMOID: (0.0, 1.0),
        }
        for activation in Activation:
            r = build(small_config(activation=activation))
            traj = harvest(r, inputs)
            lo, hi = ranges[activation]
            assert traj.states.min() >= lo
            assert traj.states.max() <= hi

    def test_deterministic(self):
        r = build(small_config())
        rng = np.random.default_rng(2)
        inputs = rng.uniform(-1, 1, size=(2, 50))
        a = harvest(r, inputs)
        b = harvest(r, inputs)
        np.testing.assert_array_equal(a.states, b.states)

    def test_fading_memory_from_different_initial_states(self):
        r = build(small_config(reservoir_size=200, target_spectral_radius=0.5, seed=3))
        rng = np.random.default_rng(4)
        inputs = rng.uniform(-1, 1, size=(2, 200))
        x0 = rng.uniform(-1, 1, size=200)
        a = harvest(r, inputs)
        b = harvest(r, inputs, initial_state=x0)
        diff = np.abs(a.states[:, -1] - b.states[:, -1]).max()
        assert diff < 1e-6

    def test_fading_memory_at_rho_09(self):
        r = build(small_config(reservoir_size=100, target_spectral_radius=0.9, seed=5))
        rng = np.random.default_rng(6)
        inputs = rng.uniform(-1, 1, size=(2, 500))
        x0 = rng.uniform(-1, 1, size=100)
        a = harvest(r, inputs)
        b = harvest(r, inputs, initial_state=x0)
        diff = np.abs(a.states[:, -1] - b.states[:, -1]).max()
        assert diff < 1e-6

    def test_feedback_requires_teacher(self):
        # exactly one source of y(t-1): a teacher or a readout, not neither or both
        r = build(small_config(use_feedback=True))
        with pytest.raises(ShapeError):
            harvest(r, np.zeros((2, 10)))
        with pytest.raises(ShapeError):
            harvest(r, np.zeros((2, 10)), teacher=np.zeros((2, 10)), w_out=np.zeros((2, 50)))

    def test_teacher_forcing_changes_states(self):
        r = build(small_config(use_feedback=True))
        rng = np.random.default_rng(7)
        inputs = rng.uniform(-1, 1, size=(2, 30))
        teacher_a = np.zeros((2, 30))
        teacher_b = rng.uniform(-1, 1, size=(2, 30))
        a = harvest(r, inputs, teacher=teacher_a)
        b = harvest(r, inputs, teacher=teacher_b)
        assert np.any(a.states != b.states)

    def test_first_step_ignores_teacher_y0(self):
        # y(0) = 0: the first harvested state must not depend on teacher[:, -1]
        r = build(small_config(use_feedback=True))
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1, 1, size=(2, 10))
        teacher_a = rng.uniform(-1, 1, size=(2, 10))
        teacher_b = teacher_a.copy()
        teacher_b[:, -1] += 1.0
        a = harvest(r, inputs, teacher=teacher_a)
        b = harvest(r, inputs, teacher=teacher_b)
        np.testing.assert_array_equal(a.states[:, 0], b.states[:, 0])


def stepped(r, inputs, teacher=None, initial_state=None, w_out=None):
    """The recurrence for one K x T sequence, one matrix-vector step at a time."""
    config = r.config
    n = config.reservoir_size
    x = np.zeros(n) if initial_state is None else np.array(initial_state, dtype=float)
    y = np.zeros(config.output_dim)  # y(0) = 0
    states = []
    for t in range(inputs.shape[1]):
        pre = r.w_in @ inputs[:, t] + r.w @ x
        if config.use_feedback:
            pre += r.w_fb @ y
        x = config.activation.apply(pre)
        if teacher is not None:
            y = teacher[:, t]
        elif w_out is not None:
            y = w_out @ x
        states.append(x)
    return np.array(states[config.washout :]).T


def all_states(r, inputs, **kwargs):
    """Every state ``state_blocks`` yields, as S x N x (T - washout)."""
    washout = r.config.washout
    out = np.full((inputs.shape[0], r.config.reservoir_size, inputs.shape[2] - washout), np.nan)
    for first, t0, block in state_blocks(r, inputs, **kwargs):
        rows, start = slice(first, first + block.shape[0]), t0 - washout
        out[rows, :, start : start + block.shape[1]] = block.transpose(0, 2, 1)
    assert not np.isnan(out).any(), "some state was never yielded"
    return out


class TestStateBlocks:
    """One batched call equals one call per sequence, on every path."""

    SEQUENCES, STEPS = 5, 300  # more steps than one BLOCK

    @pytest.fixture(params=["shipped", "small"])
    def chunking(self, request, monkeypatch):
        # small: 3 chunks of (2, 2, 1) sequences and 19 blocks of 16 steps
        if request.param == "small":
            monkeypatch.setattr(reservoir_mod, "CHUNK", 2)
            monkeypatch.setattr(reservoir_mod, "BLOCK", 16)

    def check(self, r, inputs, teacher=None, initial_state=None, w_out=None):
        kwargs = dict(initial_state=initial_state, w_out=w_out)
        batched = all_states(r, inputs, teacher=teacher, **kwargs)
        # the prediction path, on every sequence at once (no teacher, from
        # the zero state): its open-loop readout is any L x N matrix
        readout = np.random.default_rng(41).uniform(-1, 1, size=(2, 50)) if w_out is None else w_out
        predicted = None
        if teacher is None and initial_state is None:
            predicted = predictions(r, inputs, readout)
        for i in range(inputs.shape[0]):
            y = None if teacher is None else teacher[i]
            single = harvest(r, inputs[i], teacher=y, **kwargs)
            assert single.t_offset == r.config.washout
            expected = stepped(r, inputs[i], teacher=y, **kwargs)
            assert np.isfinite(batched[i]).all()
            np.testing.assert_allclose(batched[i], single.states, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batched[i], expected, rtol=0, atol=1e-12)
            if predicted is not None:
                np.testing.assert_allclose(predicted[i], readout @ expected, rtol=0, atol=1e-12)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, size=(self.SEQUENCES, 2, self.STEPS))

    @pytest.mark.parametrize("activation", list(Activation))
    def test_open_loop(self, chunking, activation):
        r = build(small_config(activation=activation))
        self.check(r, self.inputs(30))

    def test_teacher_forced_feedback(self, chunking):
        r = build(small_config(use_feedback=True, washout=7))
        rng = np.random.default_rng(31)
        teacher = rng.uniform(-1, 1, size=(self.SEQUENCES, 2, self.STEPS))
        self.check(r, self.inputs(32), teacher=teacher)

    def test_teacher_forced_washout_longer_than_a_block(self, chunking):
        # each block after the washout starts from teacher[..., t0 - 1]
        r = build(small_config(use_feedback=True, washout=reservoir_mod.BLOCK + 3))
        rng = np.random.default_rng(38)
        teacher = rng.uniform(-1, 1, size=(self.SEQUENCES, 2, self.STEPS))
        self.check(r, self.inputs(39), teacher=teacher)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_closed_loop(self, chunking, activation):
        r = build(small_config(use_feedback=True, activation=activation))
        w_out = np.random.default_rng(33).uniform(-0.02, 0.02, size=(2, 50))
        self.check(r, self.inputs(34), w_out=w_out)

    def test_washout_longer_than_a_block(self, chunking):
        r = build(small_config(washout=reservoir_mod.BLOCK + 3))
        self.check(r, self.inputs(35))

    def test_initial_state(self, chunking):
        r = build(small_config(washout=4))
        x0 = np.random.default_rng(36).uniform(-1, 1, size=50)
        self.check(r, self.inputs(37), initial_state=x0)

    def test_checks_before_stepping(self):
        r = build(small_config(washout=20))
        with pytest.raises(ShapeError, match="length 20 leaves no states after washout 20"):
            state_blocks(r, np.zeros((3, 2, 20)))
        with pytest.raises(ShapeError, match="S x 2 x T"):
            state_blocks(r, np.zeros((2, 30)))
        fb = build(small_config(use_feedback=True))
        with pytest.raises(ShapeError, match="teacher must be 3 x 2 x 30"):
            state_blocks(fb, np.zeros((3, 2, 30)), teacher=np.zeros((2, 2, 30)))
        with pytest.raises(ShapeError, match=r"w_out must be 2 x 50, got shape \(50, 2\)"):
            state_blocks(r, np.zeros((3, 2, 30)), w_out=np.zeros((50, 2)))
        with pytest.raises(ShapeError, match="length 20 leaves no states after washout 20"):
            predictions(r, np.zeros((3, 2, 20)), np.zeros((2, 50)))

    def test_steps_without_copying_w(self):
        from conftest import state_blocks_peak

        r = build(small_config(reservoir_size=300))
        assert r.w.flags.f_contiguous
        assert state_blocks_peak(r) < r.w.nbytes // 2  # no N x N array

    @pytest.mark.parametrize("chunk", [None, 1, 4096])
    def test_empty_stack_yields_nothing(self, chunking, monkeypatch, chunk):
        # at the fixture's chunk width, or at CHUNK = 1 or 4096
        if chunk is not None:
            monkeypatch.setattr(reservoir_mod, "CHUNK", chunk)
        r = build(small_config())
        assert list(state_blocks(r, np.zeros((0, 2, 10)))) == []
        assert predictions(r, np.zeros((0, 2, 10)), np.zeros((2, 50))).shape == (0, 2, 10)

    def test_training_chunks(self, chunking, step_calls):
        r = build(small_config())
        widths = {block.shape[0] for _, _, block in state_blocks(r, self.inputs(40))}
        assert [call[:2] for call in step_calls] == [(reservoir_mod.CHUNK, reservoir_mod.BLOCK)]
        assert max(widths) == min(reservoir_mod.CHUNK, self.SEQUENCES)

    @pytest.mark.parametrize("sequences", [1, 3, 7, 10**6])
    def test_blocks_keep_the_row_budget(self, chunking, step_calls, sequences):
        # an unsplit prediction call (feedback is never split) steps all of
        # its sequences as one chunk of at most the row budget, in blocks
        # shortened to the same budget; a million sequences get 2 steps each
        r = build(small_config(use_feedback=True))
        rows = reservoir_mod.CHUNK * reservoir_mod.BLOCK
        total = self.STEPS if sequences < rows else 2
        inputs = np.broadcast_to(self.inputs(40)[:1, :, :total], (sequences, 2, total))
        predictions(r, inputs, np.full((2, 50), 0.01))
        [(width, steps, blocks)] = step_calls
        assert (width, steps) == (min(sequences, rows), rows // min(sequences, rows))
        assert all(shape[0] * shape[1] <= rows for _, shape in blocks)
        assert max(shape[0] for _, shape in blocks) == width
        assert sorted({t0 for t0, _ in blocks}) == list(range(0, total, steps))
