import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import panelcause as pc
from panelcause.scm import (_active_set_polish, _cv_lambda, _donor_gram,
                            _gap_scale, _gram, _leave_outs, _ridge_augment,
                            _rmspe_ratio, BATCH_CHUNK, LAMBDA_GRID,
                            SOLVER_MAX_ITER, SOLVER_TOL, solve_simplex_lsq)
from panelcause.simharness import DgpConfig, simulate_panel
from helpers import build_panel, one_x_panel
from oracles import (exhaustive_simplex_min, grid_simplex_min,
                     nnls_simplex_min, placebo_p)


def err(fn, *args, **kw):
    with pytest.raises(pc.PanelCauseError) as ei:
        fn(*args, **kw)
    return ei.value


def uniform_point(blocks):
    return np.concatenate([np.full(s.stop - s.start, 1.0 / (s.stop - s.start))
                           for s in blocks])


def allowance(A, b, blocks):
    """SOLVER_TOL times the certificate's scale, as the solver forms it:
    the solver stops at gap < allowance, and f(w) - f* <= gap."""
    AtA, Atb, bb = _gram(A, b, blocks)
    return SOLVER_TOL * _gap_scale((AtA, Atb[:, None], np.array([bb])),
                                   uniform_point(blocks)[None])[0]


class TestSolver:
    def test_exact_representation(self):
        rng = np.random.default_rng(100)
        X0 = rng.normal(size=(3, 6))                 # donors × features
        x1 = 0.5 * X0[0] + 0.5 * X0[1]
        w, obj, iters, gap = solve_simplex_lsq(X0.T, x1)
        np.testing.assert_allclose(w, [0.5, 0.5, 0.0], atol=1e-8)
        assert obj <= 1e-14

    def test_beats_exhaustive_three_donor_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            X0 = rng.normal(size=(3, 5))
            x1 = rng.normal(size=5)
            w, obj, *_ = solve_simplex_lsq(X0.T, x1)
            w_ref, obj_ref = exhaustive_simplex_min(X0, x1)
            assert obj <= obj_ref + 1e-10
            np.testing.assert_allclose(w, w_ref, atol=2e-3)  # grid step 1e-3

    def test_beats_coarse_to_fine_grid_five_donors(self):
        rng = np.random.default_rng(102)
        for _ in range(3):
            X0 = rng.normal(size=(5, 7))
            x1 = rng.normal(size=7)
            _, obj, *_ = solve_simplex_lsq(X0.T, x1)
            _, obj_ref = grid_simplex_min(X0, x1)
            assert obj <= obj_ref + 1e-10

    def test_block_constraints_solve_independently(self):
        # block-diagonal objective: stacked solve == two separate solves
        rng = np.random.default_rng(103)
        A1, b1 = rng.normal(size=(4, 3)), rng.normal(size=4)
        A2, b2 = rng.normal(size=(5, 2)), rng.normal(size=5)
        A = np.zeros((9, 5))
        A[:4, :3] = A1
        A[4:, 3:] = A2
        b = np.concatenate([b1, b2])
        w, obj, *_ = solve_simplex_lsq(A, b,
                                       blocks=[slice(0, 3), slice(3, 5)])
        w1, o1, *_ = solve_simplex_lsq(A1, b1)
        w2, o2, *_ = solve_simplex_lsq(A2, b2)
        assert w[:3].sum() == pytest.approx(1.0, abs=1e-9)
        assert w[3:].sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(w, np.concatenate([w1, w2]), atol=1e-7)
        assert obj == pytest.approx(o1 + o2, abs=1e-9)

    def test_unattainable_tolerance_raises(self):
        rng = np.random.default_rng(104)
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        e = err(solve_simplex_lsq, A, b, tol=0.0, max_iter=3)
        assert e.code == "NO_CONVERGENCE"

    def test_restart_rule(self, monkeypatch):
        # a pass stopped short restarts from the vertex at its iterate's
        # heaviest weight off its start and reaches the same minimiser, also
        # when it stopped at its first admission, still at its start
        rng = np.random.default_rng(1)
        A, b = rng.normal(size=(20, 30)), rng.normal(size=20)
        w0, *_ = solve_simplex_lsq(A, b)
        for n in (3, 1):
            monkeypatch.undo()
            stop_admission(monkeypatch, n)
            w, _, passes, _ = solve_simplex_lsq(A, b)
            assert passes == 2
            np.testing.assert_allclose(w, w0, rtol=0, atol=1e-12)

    def test_restart_after_any_early_stop(self, monkeypatch):
        # the k-th admission (k = 2..7) of 60 problems stops once: every
        # one of the 316 solves that reach the stop restarts and reaches
        # the unperturbed minimiser
        reached = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            A, b = rng.normal(size=(20, 30)), rng.normal(size=20)
            monkeypatch.undo()
            w0, *_ = solve_simplex_lsq(A, b)
            for n in range(2, 8):
                monkeypatch.undo()
                stop_admission(monkeypatch, n)
                w, _, passes, _ = solve_simplex_lsq(A, b)
                reached += passes == 2
                np.testing.assert_allclose(w, w0, rtol=0, atol=1e-12)
        assert reached == 316

    def test_restart_of_one_problem_in_a_batch(self, monkeypatch):
        # problem t of a leave-one-out batch stops short at its 3rd
        # admission: it restarts and reaches its minimiser, and no other
        # problem of the batch moves. Problem 2's heaviest weight has left
        # its start by then; problem 0's has not, and its restart takes the
        # heaviest weight off its start
        rng = np.random.default_rng(2)
        G = _donor_gram(rng.normal(size=(25, 12)))
        J = len(G)

        def batch():
            return _active_set_polish(G, G, np.diag(G).copy(),
                                      ~np.eye(J, dtype=bool), [slice(0, J)],
                                      SOLVER_TOL, SOLVER_MAX_ITER)

        W0, passes0, _ = batch()
        assert (passes0 == 1).all()
        for t in (2, 0):
            monkeypatch.undo()
            stop_admission(monkeypatch, 3, row_of=lambda B: B == G[:, t])
            W, passes, _ = batch()
            assert passes[t] == 2
            assert (np.delete(passes, t) == 1).all()
            np.testing.assert_allclose(W[t], W0[t], rtol=0, atol=1e-12)
            # the others only see t's support size, through the padding of
            # the stacked KKT systems: rounding level at most
            np.testing.assert_allclose(np.delete(W, t, axis=0),
                                       np.delete(W0, t, axis=0), rtol=0,
                                       atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(2, 8))
    def test_solution_feasible_and_stationary(self, seed, J, F):
        rng = np.random.default_rng(seed)
        X0 = rng.normal(size=(J, F))
        x1 = rng.normal(size=F)
        w, obj, _, gap = solve_simplex_lsq(X0.T, x1)
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert (w >= -1e-10).all()
        # Frank-Wolfe gap certifies optimality within tolerance
        assert gap <= allowance(X0.T, x1, [slice(0, J)])

    @pytest.mark.parametrize("seed", range(20))
    def test_far_apart_donors(self, seed):
        # donors at ±3000 and the target at their midpoint: the gradient's
        # rounding (eps·max|AᵀA| ≈ 2e-8) exceeds 1e-10 times the objective
        rng = np.random.default_rng(seed)
        A = np.column_stack([3000.0 + rng.normal(size=12),
                             -3000.0 + rng.normal(size=12)])
        b = A.mean(axis=1) + rng.normal(0.0, 0.1, size=12)
        w, obj, _, gap = solve_simplex_lsq(A, b)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0).all()
        tol = allowance(A, b, [slice(0, 2)])
        assert gap < tol
        _, obj_ref = nnls_simplex_min(A, b, [slice(0, 2)])
        assert float(np.sum((A @ w - b) ** 2)) <= obj_ref + tol


def stop_admission(monkeypatch, n, row_of=None):
    """Make the n-th admission stop short, as rounding can: scm._admit gives
    NaN for that round. With row_of (the round's linear terms Aᵀb times each
    problem's unit, 1 at the scales used here, one row per problem -> bool
    per coordinate), only the problem whose row it matches counts
    admissions."""
    admit = pc.scm._admit
    seen = []

    def flaky(K, R, W, new, ki):
        out = admit(K, R, W, new, ki)
        rows = np.arange(len(W)) if row_of is None else \
            np.flatnonzero(row_of(R[:, :W.shape[1]]).all(axis=1))
        if len(rows):
            seen.append(1)
            if len(seen) == n:
                out[rows[0]] = np.nan
        return out
    monkeypatch.setattr(pc.scm, "_admit", flaky)


def random_blocks(rng, J, n_blocks):
    """n_blocks contiguous non-empty slices covering 0..J."""
    n_blocks = min(n_blocks, J)
    cuts = np.sort(rng.choice(np.arange(1, J), n_blocks - 1, replace=False))
    edges = [0, *cuts.tolist(), J]
    return [slice(edges[i], edges[i + 1]) for i in range(n_blocks)]


class TestSolverManyDonors:
    """More donors than features, one to three blocks: the regime of the
    placebo and ridge-CV refits and of the staggered pooled fit."""

    def check(self, A, b, blocks):
        w, obj, _, gap = solve_simplex_lsq(A, b, blocks=blocks)
        k = A.shape[1]
        for s in blocks:
            assert w[s].sum() == pytest.approx(1.0, abs=1e-8)
        assert (w >= -1e-10).all()
        # Frank-Wolfe certificate, recomputed from A and b
        tol = allowance(A, b, blocks)
        g = 2.0 * A.T @ (A @ w - b)
        fw = sum(float(w[s] @ g[s] - g[s].min()) for s in blocks)
        assert gap <= tol
        assert fw <= tol + 1e-2 * tol
        # no worse than the independent NNLS route
        w_ref, obj_ref = nnls_simplex_min(A, b, blocks)
        got = float(np.sum((A @ w - b) ** 2))
        # the certificate bounds f(w) - f* by the gap, below the allowance
        assert got <= obj_ref + tol
        assert obj == pytest.approx(got, abs=10.0 * tol)
        # a unique minimiser when the columns both supports use, with the
        # block sums, have full rank: then the weights must agree
        used = np.flatnonzero((w > 1e-12) | (w_ref > 1e-12))
        C = np.zeros((len(blocks), k))
        for i, s in enumerate(blocks):
            C[i, s] = 1.0
        M = np.vstack([A[:, used], C[:, used]])
        if np.linalg.matrix_rank(M) == len(used):
            np.testing.assert_allclose(w, w_ref, atol=1e-6)

    def test_large_outcome_scale(self):
        # at outcome × 1e8 the AᵀA entries (~1e17) reach the rounding level
        # of the KKT systems' unit constraint entries unless they are
        # rescaled; 7 of these 30 draws stopped short without that
        for seed in range(30):
            rng = np.random.default_rng(seed)
            A, b = rng.normal(size=(6, 16)), rng.normal(size=6)
            self.check(1e8 * A, 1e8 * b, [slice(0, 8), slice(8, 16)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(4, 16),
           st.integers(1, 3))
    def test_gaussian_features(self, seed, J, F, n_blocks):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(F, J))
        b = rng.normal(size=F)
        self.check(A, b, random_blocks(rng, J, n_blocks))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(4, 16),
           st.integers(1, 3), st.booleans())
    @example(seed=13, J=17, F=13, n_blocks=3, inside=False)
    def test_panel_like_features(self, seed, J, F, n_blocks, inside):
        # donor series share a level and two factors; the target is either a
        # convex combination (a zero minimum, often many minimisers) or an
        # independent draw (usually outside the hull)
        rng = np.random.default_rng(seed)
        A = 10.0 + rng.normal(size=(F, 2)) @ rng.normal(size=(2, J)) \
            + 0.3 * rng.normal(size=(F, J))
        if inside:
            b = A @ rng.dirichlet(np.ones(J))
        else:
            b = 10.0 + rng.normal(size=F)
        self.check(A, b, random_blocks(rng, J, n_blocks))


def _features_of(panel):
    """Donor pre-period outcomes (donors × periods) of a one-treated panel."""
    g = pc.derive_adoption(panel).adoption_time[panel.units[0]]
    return panel.outcome_matrix()[1:, :g]


def thirty_donor_panel(seed):
    """One unit adopting at t=10 against 30 never-treated donors, 16 periods.

    With 10 pre periods and 30 donors the simplex problems have more donors
    than features, as in real SCM use, so the solver's active set matters.
    """
    cfg = DgpConfig(n_units=31, n_periods=16, cohorts={10: 1},
                    effect={"kind": "dynamic", "base": 1.0, "slope": 0.1},
                    intercept_sd=3.0, ar_coef=0.5, seed=seed)
    return simulate_panel(cfg, 0)[0]


def leave_out_gram(G, i):
    """(pool, gram) of donor i fitted alone on every other donor."""
    pool = np.delete(np.arange(len(G)), i)
    return pool, (G[np.ix_(pool, pool)], G[pool, i], float(G[i, i]))


def objective(gram, w):
    AtA, Atb, bb = gram
    return float(w @ AtA @ w - 2.0 * Atb @ w + bb)


class TestLeaveOuts:
    """The leave-one-donor-out fits of placebo inference and ridge CV, solved
    in lockstep, against each fit solved alone on its deleted sub-Gram."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.integers(2, 16),
           st.sampled_from(["gaussian", "panel", "ties", "collinear"]))
    def test_batch_matches_solo(self, seed, J, F, kind):
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            X0 = rng.normal(size=(J, F))
        else:
            X0 = 10.0 + rng.normal(size=(J, 2)) @ rng.normal(size=(2, F)) \
                + 0.3 * rng.normal(size=(J, F))
        if kind in ("ties", "collinear"):
            for d in rng.integers(0, J, rng.integers(1, J)):
                a, b = rng.choice(J, 2, replace=False)
                t = 1.0 if kind == "ties" else rng.uniform()
                X0[d] = t * X0[a] + (1.0 - t) * X0[b]
        G = _donor_gram(X0)
        W = _leave_outs(G)
        assert (np.diag(W) == 0).all()
        # identical donors tie exactly, and rounding picks among them: they
        # are compared as one donor carrying their total weight
        _, first, group = np.unique(X0, axis=0, return_index=True,
                                    return_inverse=True)
        group = group.ravel()
        for i in range(J):
            pool, gram = leave_out_gram(G, i)
            w, obj, _, gap = solve_simplex_lsq(None, None, gram=gram)
            tol = SOLVER_TOL * _gap_scale(
                (gram[0], gram[1][:, None], np.array([gram[2]])),
                np.full((1, J - 1), 1.0 / (J - 1)))[0]
            assert abs(objective(gram, W[i, pool]) - obj) <= 10.0 * tol
            got = np.bincount(group[pool], W[i, pool], len(first))
            want = np.bincount(group[pool], w, len(first))
            # within 1e-12, or within the forward error of the KKT system
            # on the union of both supports (collinear donors make it
            # ill-conditioned), whichever is larger
            used = np.flatnonzero((got > 0) | (want > 0))
            Xd = X0[first[used]] - X0[i]
            kkt = np.ones((len(used) + 1, len(used) + 1))
            kkt[:-1, :-1] = Xd @ Xd.T
            kkt[-1, -1] = 0.0
            atol = max(1e-12, np.linalg.cond(kkt) * np.finfo(float).eps)
            np.testing.assert_array_equal(got > atol, want > atol)
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    def test_each_problem_certified_on_its_own_pool(self):
        # the batch's certificate scales equal the solo ones on each deleted
        # sub-Gram; the maximum |AᵀA| leaves the pool of the donors it sits on
        rng = np.random.default_rng(3)
        G = _donor_gram(rng.normal(size=(9, 5)) * np.arange(1.0, 10.0)[:, None])
        J = len(G)
        off = ~np.eye(J, dtype=bool)
        got = _gap_scale((G, G, np.diag(G)), off / (J - 1.0))
        for i in range(J):
            _, (AtA, Atb, bb) = leave_out_gram(G, i)
            want = _gap_scale((AtA, Atb[:, None], np.array([bb])),
                              np.full((1, J - 1), 1.0 / (J - 1)))[0]
            assert got[i] == pytest.approx(want, rel=1e-12, abs=0)

    def test_problems_with_different_units(self):
        # donors at a scale whose Gram exceeds 2^30, one of them half as
        # large again: the leave-out that drops it rescales its KKT weight
        # rows by another power of two than the rest (and fits on three
        # donors), and each problem still matches its solo solve
        rng = np.random.default_rng(6)
        X0 = 1e5 * rng.normal(size=(12, 5))
        X0[0] *= 1.5
        G = _donor_gram(X0)
        diag = np.where(~np.eye(len(G), dtype=bool), np.diag(G), 0.0)
        exponent = np.minimum(0, 30 - np.frexp(diag.max(axis=1))[1])
        assert len(np.unique(exponent)) > 1
        W, passes, _ = _active_set_polish(
            G, G, np.diag(G), ~np.eye(len(G), dtype=bool),
            [slice(0, len(G))], SOLVER_TOL, SOLVER_MAX_ITER)
        for i in range(len(G)):
            pool, gram = leave_out_gram(G, i)
            w, _, solo_passes, _ = solve_simplex_lsq(None, None, gram=gram)
            assert passes[i] == solo_passes == 1
            np.testing.assert_array_equal(W[i, pool] > 0, w > 0)
            np.testing.assert_allclose(W[i, pool], w, rtol=0, atol=1e-12)

    def test_singular_kkt_stops_only_its_row(self):
        # two identical coordinates in one support make that KKT system
        # singular: its row comes back NaN, and the rest of the stack solves
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
        b = np.array([1.0, 2.0, 0.0])
        K = np.zeros((4, 4))
        K[:3, :3] = A.T @ A
        K[3, :3] = K[:3, 3] = 1.0
        R = np.tile(np.append(A.T @ b, 1.0), (2, 1))
        S = np.array([[True, True, False], [True, False, True]])
        Z = pc.scm._kkt_solve(K[None], R, S, np.zeros(2, dtype=int))
        assert np.isnan(Z[0]).all()
        assert np.isnan(pc.scm._kkt_solve(K[None], R[:1], S[:1],
                                          np.zeros(1, dtype=int))).all()
        sub = K[np.ix_([0, 2, 3], [0, 2, 3])]
        want = np.linalg.solve(sub, R[1, [0, 2, 3]])[:2]
        np.testing.assert_allclose(Z[1], [want[0], 0.0, want[1]], rtol=0,
                                   atol=1e-12)

    def test_unattainable_tolerance_raises_through_placebo(self, monkeypatch):
        # the treated unit's own fit as it is; the leave-out batch at tol=0,
        # max_iter=3
        polish = pc.scm._active_set_polish

        def strict(AtA, Atb, bb, mask, blocks, tol, max_iter):
            if len(mask) > 1:
                tol, max_iter = 0.0, 3
            return polish(AtA, Atb, bb, mask, blocks, tol, max_iter)
        monkeypatch.setattr(pc.scm, "_active_set_polish", strict)
        p = donor_panel(n_donors=6, combo=(0.4, 0.3, 0.3), donor_noise=0.1,
                        treated_noise=0.15, T=12)
        assert err(pc.placebo_inference, p, "tr").code == "NO_CONVERGENCE"

    @pytest.mark.parametrize("X0", [
        _features_of(thirty_donor_panel(0)), _features_of(thirty_donor_panel(4)),
        np.random.default_rng(9).normal(size=(12, 6)),
        np.random.default_rng(10).normal(size=(40, 6))])
    def test_cv_scores_match_fold_loop(self, X0):
        # each fold solved alone and augmented on its own, in one loop; at
        # 40 donors the stacked SVDs come in more than one chunk
        J, F = X0.shape
        assert J < 40 or BATCH_CHUNK < len(LAMBDA_GRID) * J * J
        fit, last = X0[:, :F - 1], X0[:, F - 1]
        G = _donor_gram(fit)
        scores = np.zeros(len(LAMBDA_GRID))
        for j in range(J):
            pool, gram = leave_out_gram(G, j)
            w, *_ = solve_simplex_lsq(None, None, gram=gram)
            w_aug = _ridge_augment(fit[pool], fit[j], w, LAMBDA_GRID)
            scores += (last[j] - w_aug @ last[pool]) ** 2
        want = LAMBDA_GRID[np.flatnonzero(scores <= scores.min())[-1]]
        lam, got = _cv_lambda(X0)
        np.testing.assert_allclose(list(got.values()), scores, rtol=1e-12,
                                   atol=0)
        assert lam == want

    def test_cv_scores_match_fold_loop_below_the_floor(self):
        # 6 donors, 11 fit features: each fold's 5 centred donors have rank
        # 4, so a zero singular value sits under the floor at lam = 0
        X0 = np.random.default_rng(11).normal(size=(6, 12))
        grid = np.array([0.0, 1e-4, 1.0])
        fit, last = X0[:, :-1], X0[:, -1]
        G = _donor_gram(fit)
        scores = np.zeros(len(grid))
        for j in range(len(X0)):
            pool, gram = leave_out_gram(G, j)
            w, *_ = solve_simplex_lsq(None, None, gram=gram)
            w_aug = _ridge_augment(fit[pool], fit[j], w, grid)
            scores += (last[j] - w_aug @ last[pool]) ** 2
        lam, got = _cv_lambda(X0, grid=grid)
        got = np.array(list(got.values()))
        np.testing.assert_allclose(got[[0, 2]], scores[[0, 2]], rtol=1e-12,
                                   atol=0)
        # at lam = 1e-4 the zero direction passes the floor; both sides drop
        # it as past the pool's rank (before that, the loop carried its
        # rounding times 1 / lam, up to 4e-10 off on random draws)
        np.testing.assert_allclose(got[1], scores[1], rtol=1e-12, atol=0)
        assert lam == grid[np.flatnonzero(scores <= scores.min())[-1]]

    def test_augmented_weights_sum_to_one_with_few_donors(self):
        # n donors centre to rank n - 1: with no more donors than features
        # the last singular value is rounding, and a correction along it
        # would move the sum by about eps·s₁·|r| / lam
        drift = []
        for seed in range(24):
            rng = np.random.default_rng(seed)
            J, F = rng.integers(6, 9), rng.integers(12, 31)
            X0, x1 = rng.normal(size=(J, F)), rng.normal(size=F)
            w = rng.dirichlet(np.ones(J))
            w_aug = _ridge_augment(X0, x1, w, [1e-4])[0]
            drift.append(abs(w_aug.sum() - 1.0))
        assert max(drift) <= 1e-13


def donor_panel(effect=2.0, T=10, g=6, treated_noise=0.0, seed=110,
                n_donors=3, combo=(0.5, 0.5), donor_noise=0.0):
    """Treated unit = convex combo of the first donors, plus a post jump.

    Donors mix three shared factors, so each donor is itself (nearly)
    representable by the others — placebo refits need a matchable pool.
    """
    rng = np.random.default_rng(seed)
    factors = np.vstack([1.0 + 0.3 * np.arange(T),
                         np.sin(np.arange(T) / 2.0),
                         rng.normal(0, 1.0, T)])
    load = rng.dirichlet(4.0 * np.ones(3), size=n_donors)
    donors = {f"d{j}": load[j] @ factors + rng.normal(0, donor_noise, T)
              for j in range(n_donors)}
    tr = sum(c * donors[f"d{j}"] for j, c in enumerate(combo))
    tr = tr + effect * (np.arange(T) >= g)
    if treated_noise:
        tr = tr + rng.normal(0, treated_noise, T)
    paths = {u: v.tolist() for u, v in donors.items()}
    paths["tr"] = tr.tolist()
    units = ["tr"] + sorted(donors)
    return build_panel(units, T, {"tr": g}, paths)


MATCH_ENTRY_POINTS = [pc.fit_scm, functools.partial(pc.fit_ascm, lam=1.0),
                      pc.placebo_inference]
MATCH_ENTRY_IDS = ["fit_scm", "fit_ascm", "placebo_inference"]


class TestFitScm:
    def test_exact_combo_recovery(self):
        p = donor_panel()
        est = pc.fit_scm(p, "tr")
        assert est.att == pytest.approx(2.0, abs=1e-7)
        assert est.adoption_time == 6
        assert est.donors == ("d0", "d1", "d2")
        w = est.weights.weights
        assert w["d0"] == pytest.approx(0.5, abs=1e-6)
        assert w["d1"] == pytest.approx(0.5, abs=1e-6)
        assert w["d2"] == pytest.approx(0.0, abs=1e-6)
        assert est.weights.pre_period_rmspe < 1e-6
        assert not est.weights.negative_allowed
        assert set(est.gaps) == {6, 7, 8, 9}
        for t, gap in est.gaps.items():
            assert gap == pytest.approx(2.0, abs=1e-6)
        assert est.info["iterations"] >= 1

    def test_weights_on_simplex_for_noisy_target(self):
        p = donor_panel(treated_noise=1.0, seed=111, n_donors=5,
                        combo=(0.3, 0.3, 0.4))
        est = pc.fit_scm(p, "tr")
        w = est.weights.as_array(est.donors)
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert (w >= -1e-10).all()

    # every single-treated entry point validates its match alike
    @pytest.mark.parametrize("fit", MATCH_ENTRY_POINTS, ids=MATCH_ENTRY_IDS)
    def test_error_codes(self, fit):
        p = donor_panel()
        assert err(fit, p, "nope").code == "CONFIG_ERROR"
        assert err(fit, p, "d0").code == "CONFIG_ERROR"
        assert err(fit, p, "tr", donors=["d0", "zzz"]).code == "CONFIG_ERROR"
        assert err(fit, p, "tr", donors=["d0"]).code == "TOO_FEW_DONORS"
        p2 = build_panel(["a", "b", "c"], 6, {"a": 3, "b": 4},
                         {u: list(range(6)) for u in "abc"})
        assert err(fit, p2, "a", donors=["b", "c"]).code == "TREATED_DONOR"
        p3 = donor_panel(g=1, T=6)
        assert err(fit, p3, "tr").code == "TOO_FEW_PERIODS"

    @pytest.mark.parametrize("fit", MATCH_ENTRY_POINTS, ids=MATCH_ENTRY_IDS)
    def test_missing_cells(self, fit):
        p = donor_panel()
        y = p.outcome.copy()
        y[3] = np.nan
        import panelcause.panel as pp
        p2 = pp.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                             y, p.policy, p.covariates)
        e = err(fit, p2, "tr")
        assert e.code == "MISSING_CELLS"

    @pytest.mark.parametrize("fit", MATCH_ENTRY_POINTS, ids=MATCH_ENTRY_IDS)
    def test_missing_covariate_cells(self, fit):
        # a blank pre-period covariate cell is named before the solver runs
        px = one_x_panel()
        px.covariates["x"][3] = np.nan
        e = err(fit, px, "u000", covariates=("x",))
        assert e.code == "MISSING_CELLS" and "covariate 'x'" in str(e)

    def test_covariate_features_used(self):
        # covariate pre-means enter the feature vector: exact match still holds
        p0 = donor_panel()
        z = {u: np.linspace(0, 1, 10).tolist() for u in p0.units}
        p = build_panel(list(p0.units), 10, {"tr": 6},
                        {u: p0.outcome_matrix()[i].tolist()
                         for i, u in enumerate(p0.units)},
                        covariates={"z": z})
        est = pc.fit_scm(p, "tr", covariates=("z",))
        assert est.att == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("fit", [pc.fit_scm, pc.fit_ascm, pc.placebo_inference])
def test_unknown_covariate_is_a_config_error(fit, monkeypatch):
    # PanelDataset.covariate_matrix names it, before the solver is reached
    import panelcause.scm as scm_module
    monkeypatch.setattr(scm_module, "solve_simplex_lsq", None)
    monkeypatch.setattr(scm_module, "_active_set_polish", None)
    p = simulate_panel(DgpConfig(12, 10, cohorts={5: 1}, seed=2), 0)[0]
    e = err(fit, p, "u000", covariates=("ghost",))
    assert e.code == "CONFIG_ERROR" and "unknown covariate 'ghost'" in str(e)


class TestPlacebo:
    def make(self, n_donors=6, effect=8.0, seed=112):
        return donor_panel(effect=effect, T=12, g=6, treated_noise=0.15,
                           seed=seed, n_donors=n_donors,
                           combo=(0.4, 0.3, 0.3), donor_noise=0.1)

    def test_rank_one_floor(self):
        p = self.make()
        res = pc.placebo_inference(p, "tr")
        assert res.excluded == ()
        assert len(res.placebo_ratios) == 6
        assert res.treated_rank == 1
        assert res.p_value == pytest.approx(1 / 7)

    def test_p_matches_rank_recount(self):
        p = self.make(effect=0.5, seed=113)  # weak effect: rank not forced
        res = pc.placebo_inference(p, "tr")
        want = placebo_p(res.treated_ratio, list(res.placebo_ratios.values()))
        assert res.p_value == pytest.approx(want, abs=1e-12)
        n_ge = sum(1 for r in res.placebo_ratios.values()
                   if r >= res.treated_ratio)
        assert res.treated_rank == n_ge + 1

    def test_poorly_fit_donor_excluded(self):
        p0 = self.make()
        Y = {u: p0.outcome_matrix()[i].tolist()
             for i, u in enumerate(p0.units)}
        rng = np.random.default_rng(114)
        Y["d5"] = (rng.normal(0, 50.0, 12)).tolist()  # unmatchable series
        p = build_panel(list(p0.units), 12, {"tr": 6}, Y)
        res = pc.placebo_inference(p, "tr")
        assert "d5" in res.excluded
        assert "d5" not in res.placebo_ratios
        assert res.exclusion_cutoff == 5.0

    def test_all_excluded(self):
        # treated is exactly representable (pre-RMSPE ~ 0) while donors are
        # mutually unmatchable: every placebo fails the 5x pre-fit rule
        rng = np.random.default_rng(115)
        T, g = 10, 6
        d = {f"d{j}": rng.normal(0, 5.0, T) for j in range(4)}
        tr = 0.5 * d["d0"] + 0.5 * d["d1"] + 3.0 * (np.arange(T) >= g)
        paths = {u: v.tolist() for u, v in d.items()}
        paths["tr"] = tr.tolist()
        p = build_panel(["tr"] + sorted(d), T, {"tr": g}, paths)
        assert err(pc.placebo_inference, p, "tr").code == "ALL_EXCLUDED"

    def test_needs_three_donors(self):
        p = donor_panel(n_donors=2, combo=(0.5, 0.5))
        assert err(pc.placebo_inference, p, "tr").code == "TOO_FEW_DONORS"

    def test_base_must_be_the_classic_fit(self):
        # an ASCM base hands over the classic fit it augmented; a base of
        # another donor pool or covariates, or an augmented one without its
        # classic weights, is refused
        p = self.make()
        ascm = pc.fit_ascm(p, "tr", lam=1.0)
        assert pc.placebo_inference(p, "tr", base=ascm) == pc.placebo_inference(p, "tr")
        del ascm.info["scm_weights"]
        pool = ["d0", "d1", "d2", "d3"]
        for base in (ascm, pc.fit_ascm(p, "tr", donors=pool, lam=1.0),
                     pc.fit_scm(p, "tr", donors=pool)):
            assert err(pc.placebo_inference, p, "tr", base=base).code == \
                "CONFIG_ERROR"
        # matched without x, the base gave treated_ratio 0.41488 where the
        # placebo on x gives 0.41519
        px, x = one_x_panel(), ("x",)
        for fit in (pc.fit_scm, pc.fit_ascm):
            assert pc.placebo_inference(px, "u000", covariates=x,
                                        base=fit(px, "u000", covariates=x)) == \
                pc.placebo_inference(px, "u000", covariates=x)
            assert err(pc.placebo_inference, px, "u000", covariates=x,
                       base=fit(px, "u000")).code == "CONFIG_ERROR"

    def test_ratio_conventions(self):
        assert _rmspe_ratio(0.0, 0.0) == 0.0
        assert _rmspe_ratio(0.0, 1.0) == float("inf")
        assert _rmspe_ratio(2.0, 1.0) == 0.5


class TestAscm:
    def test_degenerate_when_fit_is_exact(self):
        p = donor_panel()
        scm = pc.fit_scm(p, "tr")
        ascm = pc.fit_ascm(p, "tr", lam=1.0)
        assert ascm.att == pytest.approx(scm.att, abs=1e-8)
        got = ascm.weights.as_array(ascm.donors)
        want = scm.weights.as_array(scm.donors)
        np.testing.assert_allclose(got, want, atol=1e-7)
        assert ascm.weights.negative_allowed

    def test_large_lambda_recovers_scm(self):
        p = donor_panel(treated_noise=1.0, seed=116, n_donors=4,
                        combo=(0.6, 0.4))
        scm = pc.fit_scm(p, "tr")
        ascm = pc.fit_ascm(p, "tr", lam=1e12)
        assert ascm.att == pytest.approx(scm.att, abs=1e-6)
        assert ascm.info["scm_att"] == scm.att

    def test_weights_sum_to_one_with_signed_corrections(self):
        rng = np.random.default_rng(117)
        T, g = 9, 5
        paths = {f"d{j}": rng.normal(0, 1.0, T).tolist() for j in range(6)}
        paths["tr"] = (rng.normal(0, 1.0, T) + 4.0).tolist()  # outside hull
        p = build_panel(["tr"] + sorted(paths)[:-1], T, {"tr": g}, paths)
        est = pc.fit_ascm(p, "tr", lam=0.5)
        w = est.weights.as_array(est.donors)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert (w < 0).any()  # the correction is allowed to go negative

    def test_augmentation_improves_pre_fit(self):
        rng = np.random.default_rng(118)
        T, g = 10, 6
        paths = {f"d{j}": rng.normal(0, 1.0, T).tolist() for j in range(8)}
        paths["tr"] = (rng.normal(0, 1.0, T) + 2.0).tolist()
        p = build_panel(["tr"] + [f"d{j}" for j in range(8)], T, {"tr": g},
                        paths)
        scm = pc.fit_scm(p, "tr")
        ascm = pc.fit_ascm(p, "tr", lam=1e-8)
        assert ascm.weights.pre_period_rmspe <= \
            scm.weights.pre_period_rmspe + 1e-12

    def test_cv_selects_from_grid(self):
        p = donor_panel(treated_noise=0.6, seed=119, n_donors=5,
                        combo=(0.5, 0.5))
        est = pc.fit_ascm(p, "tr")  # lam="cv" default
        assert est.info["lambda"] in LAMBDA_GRID.tolist()
        assert len(est.info["cv_scores"]) == len(LAMBDA_GRID)

    def test_cv_tie_breaks_to_larger_lambda(self):
        rng = np.random.default_rng(120)
        X0 = rng.normal(size=(4, 5))
        lam, scores = _cv_lambda(X0, grid=np.array([3.0, 3.0]))
        assert lam == 3.0 and len(scores) == 1  # same key, last index wins
        # identical donors: every penalty scores (essentially) zero, and the
        # ambiguity resolves to the largest grid value
        X_same = np.tile(rng.normal(size=5), (4, 1))
        lam2, _ = _cv_lambda(X_same)
        assert lam2 == LAMBDA_GRID[-1]

    def test_cv_needs_three_donors(self):
        p = donor_panel(n_donors=2, combo=(0.5, 0.5))
        assert err(pc.fit_ascm, p, "tr").code == "TOO_FEW_DONORS"
        est = pc.fit_ascm(p, "tr", lam=1.0)  # fixed penalty still fine
        assert est.att == pytest.approx(2.0, abs=1e-6)


def staggered_panel(seed=130, sizes=(1, 1), gs=(4, 6), n_donors=4, T=10,
                    effects=(2.0, 3.0), donor_sd=1.0):
    rng = np.random.default_rng(seed)
    paths, units, adopt = {}, [], {}
    donors = [f"d{j}" for j in range(n_donors)]
    for d in donors:
        paths[d] = (rng.normal() + 0.3 * np.arange(T)
                    + rng.normal(0, donor_sd, T)).tolist()
    dmap = dict(zip(gs, effects))
    for g, n in zip(gs, sizes):
        for i in range(n):
            u = f"g{g}u{i}"
            units.append(u)
            adopt[u] = g
            base = 0.5 * np.array(paths[donors[0]]) \
                + 0.5 * np.array(paths[donors[1]])
            eff = dmap[g] * (np.arange(T) >= g)
            paths[u] = (base + eff + rng.normal(0, 0.2, T)).tolist()
    return build_panel(units + donors, T, adopt, paths)


class TestStaggeredAscm:
    def test_nu_zero_matches_single_unit_ascm(self):
        p = staggered_panel()
        est = pc.fit_staggered_ascm(p, nu=0.0, lam=1.0)
        for g, unit in [(4, "g4u0"), (6, "g6u0")]:
            solo = pc.fit_ascm(p, unit, lam=1.0)
            assert est.per_cohort[g].att == pytest.approx(solo.att, abs=1e-9)

    def test_single_cohort_invariant_in_nu(self):
        p = staggered_panel(sizes=(2,), gs=(5,), effects=(2.0,))
        atts = [pc.fit_staggered_ascm(p, nu=v, lam=0.0).att
                for v in (0.0, 0.5, 1.0)]
        assert atts[0] == pytest.approx(atts[1], abs=1e-8)
        assert atts[1] == pytest.approx(atts[2], abs=1e-8)

    def test_overall_is_size_weighted(self):
        p = staggered_panel(sizes=(3, 1))
        est = pc.fit_staggered_ascm(p, nu=0.5, lam=1.0)
        assert est.cohort_weights == {4: pytest.approx(0.75),
                                      6: pytest.approx(0.25)}
        want = sum(est.cohort_weights[g] * est.per_cohort[g].att
                   for g in est.per_cohort)
        assert est.att == pytest.approx(want, abs=1e-12)
        assert est.nu_mode == "fixed"
        assert np.isfinite(est.se)  # 4 donors -> jackknife defined

    def test_recovers_effects(self):
        p = staggered_panel(seed=131, sizes=(2, 2), n_donors=5)
        est = pc.fit_staggered_ascm(p, nu=0.0, lam=0.1)
        assert est.per_cohort[4].att == pytest.approx(2.0, abs=0.3)
        assert est.per_cohort[6].att == pytest.approx(3.0, abs=0.3)

    def test_auto_follows_documented_rule(self):
        p = staggered_panel(seed=132, sizes=(2, 2), donor_sd=2.0)
        est = pc.fit_staggered_ascm(p)  # nu="auto"
        assert est.nu_mode == "auto"
        ref = pc.fit_staggered_ascm(p, nu=1.0).pooled_rmspe
        chosen = 1.0
        for cand, r in est.nu_trace:
            fixed = pc.fit_staggered_ascm(p, nu=cand).pooled_rmspe
            assert r == pytest.approx(fixed, abs=1e-10)
            if r <= 1.10 * ref:
                chosen = cand
                break
        assert est.nu == chosen

    def test_jackknife_needs_three_donors(self):
        p = staggered_panel(n_donors=2)
        est = pc.fit_staggered_ascm(p, nu=0.0, lam=1.0)
        assert np.isnan(est.se)

    def test_error_codes(self):
        rng = np.random.default_rng(133)
        flat = {u: rng.normal(0, 1, 8).tolist() for u in "abcd"}
        no_treat = build_panel(list("abcd"), 8, {}, flat)
        assert err(pc.fit_staggered_ascm, no_treat).code == "NO_VARIATION"
        all_treat = build_panel(list("abcd"), 8,
                                {u: 3 + i for i, u in enumerate("abcd")}, flat)
        assert err(pc.fit_staggered_ascm, all_treat).code == "NO_NEVER_TREATED"
        one_donor = build_panel(list("abcd"), 8,
                                {"a": 3, "b": 4, "c": 5}, flat)
        assert err(pc.fit_staggered_ascm, one_donor).code == "TOO_FEW_DONORS"
        early = build_panel(list("abcd"), 8, {"a": 1, "b": 4}, flat)
        assert err(pc.fit_staggered_ascm, early, nu=0.0).code == \
            "TOO_FEW_PERIODS"
        p = staggered_panel()
        assert err(pc.fit_staggered_ascm, p, nu=1.5).code == "CONFIG_ERROR"
        # a fixed nu is checked before the data: a missing cell raises only
        # when nu is valid
        y = p.outcome.copy()
        y[5] = np.nan
        gap = pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                              y, p.policy)
        assert err(pc.fit_staggered_ascm, gap, nu=1.5).code == "CONFIG_ERROR"
        assert err(pc.fit_staggered_ascm, gap).code == "MISSING_CELLS"

    def test_missing_cells(self):
        p = staggered_panel()
        y = p.outcome.copy()
        y[5] = np.nan
        import panelcause.panel as pp
        p2 = pp.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                             y, p.policy, p.covariates)
        assert err(pc.fit_staggered_ascm, p2, nu=0.0).code == "MISSING_CELLS"

    def test_dropped_folds_warn_and_give_nan(self):
        # 3 donors: each fold keeps 2, too few for ridge CV
        p = simulate_panel(DgpConfig(9, 10, cohorts={4: 3, 6: 3}, seed=3), 0)[0]
        with pytest.warns(pc.PanelCauseWarning) as ws:
            est = pc.fit_staggered_ascm(p, nu=0.5, lam="cv")
        assert [str(w.message) for w in ws] == [
            "JACKKNIFE_FOLDS_DROPPED: 3 of 3 jackknife folds raised and were "
            "left out (first: TOO_FEW_DONORS)"]
        assert np.isnan(est.se)


# fit_staggered_ascm on STAGGERED_PIN_CONFIG: (nu, lam) -> (chosen nu, trace,
# ATT, SE). At nu = 1, 2 × 20 donor weights nearly match the 8 pooled rows,
# so no smaller nu comes within 10% and the auto scan ends on the nu = 1 fit.
STAGGERED_PIN_CONFIG = DgpConfig(40, 12, cohorts={4: 10, 8: 10}, ar_coef=0.5,
                                 seed=17, effect={"kind": "constant", "delta": 1.0})
STAGGERED_AUTO_TRACE = [
    (0.0, 0.2137343398292215), (0.1, 0.2087988587204413),
    (0.2, 0.20338378746198346), (0.30000000000000004, 0.19735662681666988),
    (0.4, 0.1905090746630591), (0.5, 0.1824896149644265),
    (0.6000000000000001, 0.17265124127147433),
    (0.7000000000000001, 0.15966178004685572), (0.8, 0.14031008011941046),
    (0.9, 0.10617099309204722), (1.0, 0.003388942027881233)]


@pytest.mark.parametrize("nu,lam,chosen,trace,att,se", [
    ("auto", 0.0, 1.0, STAGGERED_AUTO_TRACE, -0.42680039900395184, 2.1971223938017617),
    ("auto", 1.0, 1.0, STAGGERED_AUTO_TRACE, -0.24987287307927086, 2.0988978523514907),
    (0.5, 0.0, 0.5, [], -0.36587335180659186, 0.6326311669936068),
    (0.5, 1.0, 0.5, [], -0.1477069497484353, 0.5454577090198717),
    (1.0, 0.0, 1.0, [], -0.42680039900395184, 2.1971223938017617),
    (1.0, 1.0, 1.0, [], -0.24987287307927086, 2.0988978523514907),
])
def test_staggered_ascm_pinned(nu, lam, chosen, trace, att, se):
    est = pc.fit_staggered_ascm(simulate_panel(STAGGERED_PIN_CONFIG, 0)[0],
                                nu=nu, lam=lam)
    assert (est.nu, est.nu_trace, est.att, est.se) == (chosen, trace, att, se)


class TestPinnedOutputs:
    """Placebo and ridge-CV outputs recorded before the active-set rewrite.

    The rank, p-value, donor sets and chosen penalty must match exactly;
    floats to 1e-10. Any solver change that moves them changes results.
    """

    @pytest.mark.parametrize("seed,p,ratio,excluded,lam,att", [
        (0, 1 / 30, 7.684011712738572, ("u012",), 316.2277660168379,
         2.534884707552371),
        (4, 0.4, 2.502230401915963, ("u015",), 3.1622776601683795,
         0.46224809320503696),
    ])
    def test_placebo_and_cv_pinned(self, seed, p, ratio, excluded, lam, att):
        panel = thirty_donor_panel(seed)
        res = pc.placebo_inference(panel, "u000")
        assert res.p_value == p
        assert res.treated_ratio == pytest.approx(ratio, abs=1e-10)
        assert res.excluded == excluded
        assert set(res.placebo_ratios) == \
            set(panel.units[1:]) - set(excluded)
        est = pc.fit_ascm(panel, "u000")
        assert est.info["lambda"] == lam
        assert est.att == pytest.approx(att, abs=1e-10)
