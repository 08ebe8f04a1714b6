import math
import sys

import numpy as np
import pytest

from satfuse.errors import SolverError, ValidationError
from satfuse.nnls import kkt_residuals, nnls
from satfuse.spectral import (
    default_camera,
    evenly_spaced_camera,
    gaussian_design_matrix,
    synthetic_vnir_srf,
)

# the package re-exports the `nnls` function under the module's name
nnls_module = sys.modules["satfuse.nnls"]


def pgd_nnls(A, b, max_steps=10**6):
    """Projected-gradient oracle: fixed 1/L step, at most `max_steps` iterations."""
    AtA = A.T @ A
    Atb = A.T @ b
    L = float(np.linalg.eigvalsh(AtA).max())
    step = 1.0 / L
    x = np.zeros(A.shape[1])
    for _ in range(max_steps):
        x_new = np.maximum(0.0, x - step * (AtA @ x - Atb))
        # stop on numerical stationarity (one ulp of the iterate scale)
        if np.max(np.abs(x_new - x)) < 1e-15 * max(1.0, float(np.max(np.abs(x_new)))):
            return x_new
        x = x_new
    return x


def assert_kkt(A, b, x, tol=1e-10):
    scale = float(np.max(np.abs(A.T @ A).sum(axis=1)))
    stat, feas = kkt_residuals(A, b, x)
    assert stat <= tol * scale + 1e-12
    assert feas >= -(tol * scale + 1e-12)


class TestNnlsBasics:
    def test_exactly_representable_column(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.1, 1.0, size=(20, 6))
        b = A[:, 3].copy()
        x = nnls(A, b)
        assert np.linalg.norm(A @ x - b) < 1e-10
        expected = np.zeros(6)
        expected[3] = 1.0
        assert np.allclose(x, expected, atol=1e-8)
        assert_kkt(A, b, x)

    def test_negative_direction_gives_zero(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(0.1, 1.0, size=(15, 4))
        b = -A @ np.ones(4)
        x = nnls(A, b)
        assert np.array_equal(x, np.zeros(4))

    def test_objective_never_worse_than_origin(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = rng.standard_normal((12, 5))
            b = rng.standard_normal(12)
            x = nnls(A, b)
            assert np.linalg.norm(A @ x - b) <= np.linalg.norm(b) + 1e-12
            assert (x >= 0).all()
            assert_kkt(A, b, x)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((40, 8))
            x_true = np.where(rng.uniform(size=8) < 0.5, rng.uniform(0.2, 2.0, 8), 0.0)
            b = A @ x_true
            x = nnls(A, b)
            x_ref = pgd_nnls(A, b)
            assert np.max(np.abs(x - x_ref)) < 1e-6
            assert_kkt(A, b, x)

    def test_validation(self):
        with pytest.raises(ValidationError):
            nnls(np.zeros((3,)), np.zeros(3))
        with pytest.raises(ValidationError):
            nnls(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused_at_entry(self, where, bad, capfd):
        # a NaN in A used to reach LAPACK, which printed a DLASCL line on
        # stderr and raised LinAlgError; an infinite b raised a bare ValueError
        A = np.eye(3)
        b = np.ones(3)
        (A if where == "A" else b)[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            nnls(A, b)
        assert capfd.readouterr().err == ""

    def test_iteration_budget_carries_best_iterate(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        with pytest.raises(SolverError) as e:
            nnls(A, b, max_iter=1)
        assert e.value.best_x is not None
        assert e.value.best_x.shape == (10,)
        assert (e.value.best_x >= 0).all()


def lawson_hanson_lstsq(A, b, tol=1e-10):
    """Oracle: Lawson-Hanson with every passive set solved by lstsq on A[:, P]."""
    AtA = A.T @ A
    Atb = A.T @ b
    n = A.shape[1]
    scale = float(np.max(np.abs(AtA).sum(axis=1)))
    kkt_eps = tol * scale if scale > 0 else tol
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    while True:
        w = Atb - AtA @ x
        candidates = ~passive
        if not candidates.any():
            break
        w_masked = np.where(candidates, w, -np.inf)
        j = int(np.argmax(w_masked))
        if w_masked[j] <= kkt_eps:
            break
        passive[j] = True
        while True:
            cols = np.flatnonzero(passive)
            z = np.zeros(n)
            z[cols], *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if z[cols].min() > 0:
                x = z
                break
            blocking = passive & (z <= 0)
            alpha = np.min(x[blocking] / (x[blocking] - z[blocking]))
            x = x + alpha * (z - x)
            hit_zero = passive & (x <= 1e-12 * max(1.0, float(np.max(np.abs(x)))))
            passive[hit_zero] = False
            x[~passive] = 0.0
            if not passive.any():
                break
    return x


def band_problems(camera):
    """The (A, b) pair `fit_band_weights` solves for each synthetic VNIR band."""
    for wl, resp in synthetic_vnir_srf().bands.values():
        grid = np.arange(math.ceil(wl[0]), math.floor(wl[-1]) + 1.0, 1.0)
        yield gaussian_design_matrix(camera, grid), np.interp(grid, wl, resp)


def random_problems(seed, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(3, 40)), int(rng.integers(1, 30))
        yield rng.standard_normal((m, n)), rng.standard_normal(m)


class TestNnlsMatchesLstsqOracle:
    """The Gram-matrix search plus the lstsq polish returns the oracle's bits."""

    @pytest.mark.parametrize("camera", [
        default_camera(), evenly_spaced_camera(24), evenly_spaced_camera(400),
        evenly_spaced_camera(100, 20.0),
    ], ids=["default", "even24", "even400", "even100-fwhm20"])
    def test_band_fits_identical(self, camera):
        for A, b in band_problems(camera):
            assert np.array_equal(nnls(A, b), lawson_hanson_lstsq(A, b))

    @pytest.mark.parametrize("factor", [1e-100, 1e100])
    def test_scaled_band_fits_take_the_same_path(self, factor, monkeypatch):
        # phase 1 solves a copy of the Gram matrix without its tiny entries;
        # "tiny" is relative to ||A^T A||, so a scaled fit still solves its
        # passive sets from the Gram matrix and polishes once, like the
        # unscaled fit
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(nnls_module.np.linalg, "lstsq", counting_lstsq)
        for A, b in band_problems(default_camera()):
            calls.clear()
            nnls(A, b)
            polishes = len(calls)
            calls.clear()
            A, b = factor * A, factor * b
            x = nnls(A, b)
            assert len(calls) == polishes
            assert np.array_equal(x, lawson_hanson_lstsq(A, b))

    def test_random_problems_identical(self):
        for A, b in random_problems(5):
            assert np.array_equal(nnls(A, b), lawson_hanson_lstsq(A, b))

    def test_zero_and_duplicate_columns_identical(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(0.1, 1.0, size=(25, 6))
        b = A @ np.array([0.5, 0.0, 1.0, 0.2, 0.0, 0.3]) + 0.01 * rng.standard_normal(25)
        zero_col = A.copy()
        zero_col[:, 2] = 0.0
        twin_cols = A.copy()
        twin_cols[:, 4] = twin_cols[:, 0]
        for design in (zero_col, twin_cols):
            assert np.array_equal(nnls(design, b), lawson_hanson_lstsq(design, b))

    @pytest.mark.parametrize("fail_on_call", [1, 3])
    def test_singular_gram_solve_hands_over_to_lstsq(self, monkeypatch, fail_on_call):
        calls = []
        solve = np.linalg.solve

        def failing_solve(*args):
            calls.append(1)
            if len(calls) >= fail_on_call:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(*args)

        monkeypatch.setattr(nnls_module.np.linalg, "solve", failing_solve)
        for A, b in band_problems(evenly_spaced_camera(60)):
            calls.clear()
            assert np.array_equal(nnls(A, b), lawson_hanson_lstsq(A, b))
        assert calls

    def test_non_finite_gram_solve_hands_over_to_lstsq(self, monkeypatch):
        monkeypatch.setattr(nnls_module.np.linalg, "solve",
                            lambda M, v: np.full(v.shape, np.nan))
        for A, b in random_problems(7, count=10):
            assert np.array_equal(nnls(A, b), lawson_hanson_lstsq(A, b))

    def test_wrong_gram_solves_are_corrected_after_the_polish(self, monkeypatch):
        # a phase 1 that returns a positive but wrong z stops at the wrong
        # passive set; the polish and the lstsq phase must still reach KKT
        monkeypatch.setattr(nnls_module.np.linalg, "solve", lambda M, v: np.ones(v.shape))
        for A, b in random_problems(8, count=20):
            x = nnls(A, b)
            assert (x >= 0).all()
            assert_kkt(A, b, x)
