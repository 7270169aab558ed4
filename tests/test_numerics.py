"""Tests for the dense matrix kernel against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from echochan import numerics
from echochan.errors import (
    ConvergenceError,
    DefinitenessError,
    NonFiniteError,
    ShapeError,
)
from echochan.numerics import add_gram_upper, mirror_upper, solve_spd, spectral_radius


def gaussian_elimination(m, rhs):
    """Reference solve via partial-pivot Gaussian elimination."""
    a = np.hstack([m.astype(float).copy(), rhs.astype(float).copy()])
    n = m.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        a[[col, pivot]] = a[[pivot, col]]
        a[col] = a[col] / a[col, col]
        for row in range(n):
            if row != col:
                a[row] -= a[row, col] * a[col]
    return a[:, n:]


class TestSolveSpd:
    def test_identity_system(self):
        rhs = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(solve_spd(np.eye(3), rhs), rhs)

    def test_diagonal_system(self):
        sol = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(sol, [1.0, 2.0])

    def test_matches_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for n in (4, 9, 17):
            a = rng.standard_normal((n, n))
            m = a.T @ a + np.eye(n)
            rhs = rng.standard_normal((n, 2))
            expected = gaussian_elimination(m, rhs)
            assert np.abs(solve_spd(m, rhs) - expected).max() < 1e-9

    def test_residual_on_random_spd_up_to_600(self):
        rng = np.random.default_rng(5)
        for n in (50, 200, 600):
            a = rng.standard_normal((n, n))
            m = a.T @ a + np.eye(n)
            rhs = rng.standard_normal((n, 3))
            sol = solve_spd(m, rhs)
            residual = np.abs(m @ sol - rhs).max() / np.abs(rhs).max()
            assert residual < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            solve_spd(np.ones((2, 3)), np.ones(2))

    def test_asymmetric_rejected_not_symmetrized(self):
        m = np.array([[2.0, 0.1], [0.0, 2.0]])
        with pytest.raises(DefinitenessError, match="asymmetric"):
            solve_spd(m, np.ones(2))

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            solve_spd(bad, np.ones(2))
        with pytest.raises(NonFiniteError):
            solve_spd(np.eye(2), [1.0, np.inf])
        with pytest.raises(NonFiniteError):
            spectral_radius(bad)

    def test_indefinite_rejected(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DefinitenessError):
            solve_spd(m, np.ones(2))

    def test_one_by_one_system(self):
        sol = solve_spd(np.array([[4.0]]), np.array([2.0]))
        assert sol.shape == (1,)
        np.testing.assert_allclose(sol, [0.5])
        np.testing.assert_allclose(solve_spd([[4.0]], [[2.0, -8.0]]), [[0.5, -2.0]])

    def test_vector_rhs_stays_1d_at_600(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((600, 600))
        m = a.T @ a + np.eye(600)
        rhs = rng.standard_normal(600)
        sol = solve_spd(m, rhs)
        assert sol.shape == (600,)
        assert np.abs(m @ sol - rhs).max() / np.abs(rhs).max() < 1e-8

    def test_one_negative_eigenvalue_rejected(self):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        eigenvalues = np.linspace(1.0, 2.0, 300)
        eigenvalues[150] = -0.5
        m = (q * eigenvalues) @ q.T
        m = (m + m.T) / 2
        with pytest.raises(DefinitenessError, match="positive definite"):
            solve_spd(m, np.ones((300, 2)))

    def test_asymmetry_found_in_every_band(self):
        # the check compares row bands with column bands; a pair far from
        # the diagonal, in the last band, or below it must still be seen
        rng = np.random.default_rng(31)
        a = rng.standard_normal((300, 300))
        spd = a.T @ a + np.eye(300)
        for i, j in ((0, 299), (299, 0), (70, 64), (200, 3), (298, 299)):
            m = spd.copy()
            m[i, j] += 1e-6 * np.abs(spd).max()
            with pytest.raises(DefinitenessError, match="relative asymmetry 1.000e-06"):
                solve_spd(m, np.ones(300))

    def test_ill_conditioned_ridge_system_by_residual(self):
        # B + lambda*I with B positive semidefinite, cond about 1e10
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        b = (q * np.logspace(0.0, -12.0, 300)) @ q.T
        m = (b + b.T) / 2 + 1e-10 * np.eye(300)
        assert 1e9 < np.linalg.cond(m) < 1e11
        rhs = rng.standard_normal((300, 2))
        sol = solve_spd(m, rhs)
        residual = np.abs(m @ sol - rhs).max() / (np.abs(m).max() * np.abs(sol).max())
        assert residual < 1e-12


BUILT_DPOTRF = numerics._DPOTRF


def solve_both_ways(monkeypatch, m, rhs, shift=0.0):
    """``solve_spd`` through ``dpotrf``/``dpotrs`` as built, and with that
    path switched off (``np.linalg.cholesky`` and row substitutions)."""
    sols = []
    for dpotrf in (BUILT_DPOTRF, None):
        monkeypatch.setattr(numerics, "_DPOTRF", dpotrf)
        sols.append(solve_spd(m, rhs, shift=shift))
    return sols


def ridge_like(n=300, seed=29):
    """A B-like positive semidefinite matrix (eigenvalues 1 down to 1e-12),
    a right-hand side, and the shift that puts cond(B + shift * I) near 1e10."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = (q * np.logspace(0.0, -12.0, n)) @ q.T
    return (b + b.T) / 2, rng.standard_normal((n, 2)), 1e-10


class TestSolveSpdPaths:
    def test_dpotrf_found_in_numpy_openblas(self):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas['name']}")
        assert numerics._DPOTRF is not None and numerics._DPOTRS is not None

    def test_paths_agree_on_a_well_conditioned_system(self, monkeypatch):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((200, 200))
        m = a.T @ a + 200.0 * np.eye(200)  # cond about 5
        rhs = rng.standard_normal((200, 3))
        direct, fallback = solve_both_ways(monkeypatch, m, rhs)
        assert np.abs(direct - fallback).max() <= 1e-13 * np.abs(fallback).max()

    def test_paths_agree_at_cond_1e10(self, monkeypatch):
        # both are backward stable, so they may differ by a small multiple
        # of cond * eps (about 2e-6 here); measured 4.4e-15 where numpy's
        # cholesky calls the same dpotrf on the same triangle
        b, rhs, shift = ridge_like()
        m = b + shift * np.eye(300)
        assert 1e9 < np.linalg.cond(m) < 1e11
        direct, fallback = solve_both_ways(monkeypatch, b, rhs, shift)
        assert np.abs(direct - fallback).max() <= 1e-5 * np.abs(fallback).max()
        for sol in (direct, fallback):
            residual = np.abs(m @ sol - rhs).max() / (np.abs(m).max() * np.abs(sol).max())
            assert residual < 1e-12

    def test_shift_is_added_to_the_diagonal(self, monkeypatch):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((40, 40))
        m, rhs = a.T @ a, rng.standard_normal((40, 2))
        shifted = solve_both_ways(monkeypatch, m, rhs, 0.3)
        explicit = solve_both_ways(monkeypatch, m + 0.3 * np.eye(40), rhs)
        for got, expected in zip(shifted, explicit):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "vector"])
    def test_inputs_left_unchanged(self, monkeypatch, layout):
        b, rhs, shift = ridge_like(n=120)
        rhs = rhs[:, 0] if layout == "vector" else np.array(rhs, order=layout)
        m_bytes, rhs_bytes = b.tobytes(), rhs.tobytes()
        for sol in solve_both_ways(monkeypatch, b, rhs, shift):
            assert sol.shape == rhs.shape
        assert b.tobytes() == m_bytes
        assert rhs.tobytes() == rhs_bytes

    @pytest.mark.parametrize("dpotrf", ["built", None])
    def test_indefinite_rejected_on_both_paths(self, monkeypatch, dpotrf):
        if dpotrf is None:
            monkeypatch.setattr(numerics, "_DPOTRF", None)
        b, rhs, _ = ridge_like(n=100)
        with pytest.raises(DefinitenessError, match="not positive definite"):
            solve_spd(b, rhs, shift=-1e-3)
        with pytest.raises(DefinitenessError, match="not positive definite"):
            solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))

    def test_one_working_copy_at_n_300(self):
        # at most one N x N array plus O(N * L): the fallback takes two
        if numerics._DPOTRF is None:
            pytest.skip("numpy's LAPACK has no dpotrf to call")
        b, rhs, shift = ridge_like()
        tracemalloc.start()
        try:
            solve_spd(b, rhs, shift=shift)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= b.nbytes + 8 * rhs.size * 4 + 8192


def factored_buffers(monkeypatch) -> list:
    """Address of every buffer ``dpotrf`` factors during the test."""
    addresses = []

    def recorded(uplo, n, a, lda, info, length):
        addresses.append(a)
        BUILT_DPOTRF(uplo, n, a, lda, info, length)

    monkeypatch.setattr(numerics, "_DPOTRF", recorded)
    return addresses


def with_negative_eigenvalue(n=120, seed=31):
    """An exactly symmetric matrix with eigenvalues 1 .. 0.1 and one -1."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    m = (q * np.r_[np.linspace(1.0, 0.1, n - 1), -1.0]) @ q.T
    return (m + m.T) / 2


@pytest.mark.skipif(BUILT_DPOTRF is None, reason="numpy's LAPACK has no dpotrf to call")
class TestSolveInPlace:
    """An exactly symmetric, writeable, row-major B is factored in place
    and comes back byte for byte; anything else is solved in a copy."""

    def test_same_bytes_as_a_copy_and_b_restored(self, monkeypatch):
        b, rhs, shift = ridge_like()
        before = b.tobytes()
        frozen_b = b.copy()
        frozen_b.flags.writeable = False
        factored = factored_buffers(monkeypatch)
        in_place, copied = solve_spd(b, rhs, shift), solve_spd(frozen_b, rhs, shift)
        assert factored[0] == b.ctypes.data and factored[1] != frozen_b.ctypes.data
        assert in_place.tobytes() == copied.tobytes()
        assert b.tobytes() == before

    def test_b_restored_after_definiteness_error(self, monkeypatch):
        b, rhs, _ = ridge_like(n=100)
        before = b.tobytes()
        factored = factored_buffers(monkeypatch)
        with pytest.raises(DefinitenessError, match="not positive definite"):
            solve_spd(b, rhs, shift=-1e-3)
        assert factored == [b.ctypes.data]
        assert b.tobytes() == before

    def test_b_restored_after_linear_rank_error(self, monkeypatch):
        from echochan.errors import RankError
        from echochan.readout import Accumulators, Linear, solve

        b = with_negative_eigenvalue()
        before = b.tobytes()
        acc = Accumulators(a=np.ones((2, 120)), b=b, samples_seen=1)
        factored = factored_buffers(monkeypatch)
        with pytest.raises(RankError):
            solve(acc, Linear())
        assert factored == [b.ctypes.data]
        assert b.tobytes() == before

    @pytest.mark.parametrize("kind", ["read-only", "F", "asymmetric", "signed-zero"])
    def test_other_inputs_take_a_copy_and_stay_unchanged(self, monkeypatch, kind):
        b, rhs, _ = ridge_like(n=120)
        shift = 0.1  # stays definite with one pair of entries zeroed
        expected = solve_spd(b, rhs, shift)
        if kind == "read-only":
            b.flags.writeable = False
        elif kind == "F":
            b = np.asfortranarray(b)
        elif kind == "asymmetric":  # within SYMMETRY_RTOL, so it is solved
            b[3, 7] = np.nextafter(b[3, 7], np.inf)
        else:  # equal values, different bytes
            b[3, 7], b[7, 3] = 0.0, -0.0
            expected = solve_spd(np.where(b == 0.0, 0.0, b), rhs, shift)
        before = b.tobytes(order="A")
        factored = factored_buffers(monkeypatch)
        sol = solve_spd(b, rhs, shift)
        assert len(factored) == 1 and factored[0] != b.ctypes.data
        assert b.tobytes(order="A") == before
        if kind != "asymmetric":
            assert sol.tobytes() == expected.tobytes()


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_triangular_reads_diagonal(self):
        m = np.array([[0.2, 5.0, -3.0], [0.0, -0.9, 2.0], [0.0, 0.0, 0.5]])
        assert spectral_radius(m) == pytest.approx(0.9)

    def test_rotation_matrix_complex_pair(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_radius(m) == pytest.approx(1.0)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((20, 20))
        base = spectral_radius(m)
        for c in (-2.0, 0.5, 3.0):
            assert spectral_radius(c * m) == pytest.approx(abs(c) * base, rel=1e-6)

    def test_random_triangular_matches_max_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = np.triu(rng.standard_normal((12, 12)))
            assert spectral_radius(m) == pytest.approx(np.abs(np.diag(m)).max(), rel=1e-6)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            spectral_radius(np.ones((2, 3)))

    def test_lapack_failure_reports_no_iteration_budget(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            spectral_radius(np.eye(2))
        assert info.value.iterations is None
        assert "iterations" not in str(info.value)


def gram_both_ways(monkeypatch, n, blocks, weight=1.0):
    """B folded from ``blocks`` at ``weight`` by ``add_gram_upper`` as
    built, and with the ``dsyrk`` path switched off, each mirrored once."""
    folded = []
    for dsyrk in (numerics._DSYRK, None):
        monkeypatch.setattr(numerics, "_DSYRK", dsyrk)
        b = np.zeros((n, n))
        for x in blocks:
            add_gram_upper(b, x, weight)
        mirror_upper(b)
        folded.append(b)
    return folded


class TestAddGramUpper:
    def test_dsyrk_found_in_numpy_openblas(self):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas['name']}")
        assert numerics._DSYRK is not None

    @pytest.mark.parametrize("k", [1, 7, 200])  # K = 1, K < N, K > N
    def test_dsyrk_and_fallback_byte_identical(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        blocks = [rng.standard_normal((k, 40)) for _ in range(5)]
        direct, fallback = gram_both_ways(monkeypatch, 40, blocks)
        expected = np.zeros((40, 40))
        for x in blocks:
            expected += x.T @ x
        assert direct.tobytes() == fallback.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 7, 200])
    def test_weighted_dsyrk_and_fallback_agree(self, monkeypatch, k):
        # at a weight other than 1, dsyrk and the fallback round the scaled
        # product differently: 1.8e-15 relative measured
        rng = np.random.default_rng(k + 10)
        blocks = [rng.standard_normal((k, 40)) for _ in range(5)]
        direct, fallback = gram_both_ways(monkeypatch, 40, blocks, weight=0.3)
        scale = np.abs(fallback).max()
        np.testing.assert_allclose(direct, fallback, rtol=0, atol=1e-14 * scale)
        unweighted, _ = gram_both_ways(monkeypatch, 40, blocks)
        np.testing.assert_allclose(fallback, 0.3 * unweighted, rtol=0, atol=1e-14 * scale)

    def test_row_views_of_a_block_buffer(self, monkeypatch):
        # state blocks are views past a washout into a larger buffer
        buffer = np.random.default_rng(3).standard_normal((4, 130, 40))
        blocks = [x for x in buffer[:, 5:]]
        direct, fallback = gram_both_ways(monkeypatch, 40, blocks)
        assert direct.tobytes() == fallback.tobytes()

    @pytest.mark.parametrize("dsyrk", ["present", "absent"])
    def test_row_slices_of_a_time_major_buffer(self, monkeypatch, dsyrk):
        # a sequence's states in a time-major (steps, C, N) block are rows
        # C * N apart: past a washout at K > N, and a block at K < N
        if dsyrk == "absent":
            monkeypatch.setattr(numerics, "_DSYRK", None)
        buffer = np.random.default_rng(6).standard_normal((130, 4, 40))
        blocks = [buffer[5:, c] for c in range(4)] + [buffer[:20, c] for c in range(4)]
        assert not any(x.flags.c_contiguous for x in blocks)
        folded = []
        for xs in (blocks, [np.ascontiguousarray(x) for x in blocks]):
            b = np.zeros((40, 40))
            for x in xs:
                add_gram_upper(b, x)
            folded.append(b)
        assert folded[0].tobytes() == folded[1].tobytes()

    @pytest.mark.parametrize("dsyrk", ["present", "absent"])
    def test_overlapping_rows_are_rejected(self, monkeypatch, dsyrk):
        if dsyrk == "absent":
            monkeypatch.setattr(numerics, "_DSYRK", None)
        x = np.lib.stride_tricks.as_strided(np.zeros(200), shape=(5, 20), strides=(80, 8))
        b = np.ones((20, 20))
        with pytest.raises(ValueError, match="row stride of at least N"):
            add_gram_upper(b, x)
        assert (b == 1.0).all()

    @pytest.mark.parametrize("dsyrk", ["present", "absent"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: np.asfortranarray(x),
            lambda x: np.repeat(x, 2, axis=1)[:, ::2],
            lambda x: x.astype(np.float32),
        ],
        ids=["column-major", "column-strided", "float32"],
    )
    def test_other_layouts_are_rejected(self, monkeypatch, make, dsyrk):
        # one contract on every BLAS: no layout is folded by another path
        calls = []
        monkeypatch.setattr(
            numerics, "_DSYRK", (lambda *args: calls.append(args)) if dsyrk == "present" else None
        )
        x = make(np.random.default_rng(5).standard_normal((30, 20)))
        b = np.ones((20, 20))
        with pytest.raises(ValueError, match="states must be a C-contiguous, aligned float64 array"):
            add_gram_upper(b, x)
        assert not calls
        assert (b == 1.0).all()

    @pytest.mark.parametrize("dsyrk", ["present", "absent"])
    def test_gram_outside_the_contract_is_rejected(self, monkeypatch, dsyrk):
        if dsyrk == "absent":
            monkeypatch.setattr(numerics, "_DSYRK", None)
        x = np.ones((3, 4))
        with pytest.raises(ValueError, match="gram must be a C-contiguous"):
            add_gram_upper(np.zeros((4, 4), order="F"), x)
        read_only = np.zeros((4, 4))
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="gram must be writeable"):
            add_gram_upper(read_only, x)

    def test_only_the_upper_triangle_is_written(self):
        if numerics._DSYRK is None:
            pytest.skip("numpy's BLAS has no dsyrk to call")
        b = np.zeros((6, 6))
        add_gram_upper(b, np.arange(12.0).reshape(2, 6))
        assert not np.tril(b, -1).any()
        assert b[np.triu_indices(6)].all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            add_gram_upper(np.zeros((5, 5)), np.ones((3, 4)))

    def test_mirror_upper(self):
        m = np.arange(16.0).reshape(4, 4)
        mirror_upper(m)
        upper = np.triu(np.arange(16.0).reshape(4, 4))
        np.testing.assert_array_equal(m, upper + np.triu(upper, 1).T)
