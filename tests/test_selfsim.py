"""Tests for the line-profile solver and the coercivity decomposition."""

import math
import tracemalloc

import numpy as np
import pytest

from eulerlab import presets
from eulerlab import selfsim as ss


@pytest.fixture(scope="module")
def problem_512():
    return ss.ProfileProblem(n=512, L=20.0)


@pytest.fixture(scope="module")
def problem_1024():
    return ss.ProfileProblem(n=1024, L=20.0)


class TestLineOperators:
    def test_hilbert_matrix_matches_closed_form(self, problem_512, problem_1024):
        for pb, bound in ((problem_512, 2e-7), (problem_1024, 1e-7)):
            w = ss.closed_form_profile(pb.x)
            h = ss.closed_form_hilbert(pb.x)
            assert np.max(np.abs(pb.hilbert_matrix @ w - h)) < bound

    def test_derivative_matrix_matches_closed_form(self, problem_512, problem_1024):
        for pb, bound in ((problem_512, 2e-6), (problem_1024, 1e-10)):
            x = pb.x
            w = ss.closed_form_profile(x)
            dw = -4.0 * (1.0 - 4.0 * x ** 2) / (1.0 + 4.0 * x ** 2) ** 2
            assert np.max(np.abs(pb.deriv_matrix @ w - dw)) < bound

    def test_grid_is_uniform_and_centered(self, problem_512):
        # the unknowns are the nodes h, 2h, ..., L of the odd extension,
        # whose grid is centered on its zero sample at X = 0
        x = problem_512.x
        assert x.shape == (problem_512.n // 2,) == (problem_512.size,)
        assert np.allclose(np.diff(x), problem_512.h)
        assert x[0] == problem_512.h and x[-1] == problem_512.L

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="even"):
            ss.ProfileProblem(n=63, L=20.0)
        with pytest.raises(ValueError, match="at least 10"):
            ss.ProfileProblem(n=128, L=5.0)


def _row_fsums(terms):
    return np.array([math.fsum(row) for row in terms])


def _reference_matrices(pb, keep=32):
    """The odd-fold operators entry by entry.

    Row i (X_i = i h > 0) of the full-line rule meets node j and its mirror
    -j, which carries the negated sample; the tail nodes (size + t) h carry
    the decay model and their mirrors its odd image.  Every tail term is
    spelled out from x_i and the node and each row of terms is summed with
    math.fsum (correctly rounded).  The far integral of each side starts one
    step past the last node that the row's parity-skip sum reaches.
    """
    size, h, x = pb.size, pb.h, pb.x
    i = np.arange(1, size + 1)
    minus = i[:, None] - i[None, :]
    diff = np.where(minus == 0, 1.0, x[:, None] - x[None, :])
    hm = (np.where(minus % 2 == 1, (2.0 * h / math.pi) / diff, 0.0)
          - (2.0 * h / math.pi) / (x[:, None] + x[None, :]) * (minus % 2 == 1))
    sign = np.where(minus % 2 == 0, 1.0, -1.0)
    dm = (np.where(minus != 0, sign / (h * np.where(minus == 0, 1, minus)), 0.0)
          - sign / (h * (i[:, None] + i[None, :])))
    nodes = pb._tail_nodes
    t = np.arange(1, nodes.size + 1)
    sides = []
    for node, jg in ((nodes, size + t), (-nodes, -(size + t))):
        kd = i[:, None] - jg[None, :]
        hk = np.where(kd % 2 == 1, (2.0 * h / math.pi) / (x[:, None] - node[None, :]), 0.0)
        dk = np.where(kd % 2 == 0, 1.0, -1.0) / (h * kd)
        sides.append((node, hk, dk))
    reached = np.where((size + t[None, :] - i[:, None]) % 2 == 1, nodes[None, :], 0.0)
    cut = reached.max(axis=1) + h
    mm = np.arange(10)
    head = nodes.size - keep
    for p, row in zip(ss._TAIL_POWERS, pb._edge_fit):
        far = np.array([math.fsum(-xi ** m * c ** -(p + m) / (p + m)
                                  + (-1.0) ** p * (-xi) ** m * c ** -(p + m) / (p + m)
                                  for m in mm) for xi, c in zip(x, cut)]) / math.pi
        hterms = np.concatenate([hk * node ** (-p) for node, hk, _ in sides], axis=1)
        hvec = _row_fsums(hterms) + far
        dterms = [dk * node ** (-p) for node, _, dk in sides]
        partials = np.stack(
            [_row_fsums(np.concatenate([d[:, :head + j + 1] for d in dterms], axis=1))
             for j in range(keep)], axis=1)
        while partials.shape[1] > 1:
            partials = 0.5 * (partials[:, 1:] + partials[:, :-1])
        hm = hm + hvec[:, None] * row[None, :]
        dm = dm + partials[:, 0][:, None] * row[None, :]
    return hm, dm


class TestTailSums:
    @pytest.mark.parametrize("n, L", [(64, 10.0), (64, 20.0), (128, 20.0)])
    def test_matrices_match_the_entrywise_reference(self, n, L):
        pb = ss.ProfileProblem(n=n, L=L)
        hm, dm = _reference_matrices(pb)
        assert np.max(np.abs(pb.hilbert_matrix - hm)) < 1e-13 * np.max(np.abs(hm))
        assert np.max(np.abs(pb.deriv_matrix - dm)) < 1e-13 * np.max(np.abs(dm))

    def test_tail_sums_of_both_sides_are_mirror_images(self):
        # the left tail carries the odd image of the right tail's model: the
        # sums of a row are its right-side sum plus the left-side sum over the
        # mirrored nodes with negated weights
        pb = ss.ProfileProblem(n=64, L=10.0)
        w = np.linspace(1.0, 2.0, 40)
        i = np.arange(pb.size + 1)
        t = np.arange(1, w.size + 1)
        for kernel in (pb._hilbert_kernel, pb._deriv_kernel):
            right = kernel(i[:, None] - (pb.size + t)[None, :]) @ w
            left = kernel(i[:, None] + (pb.size + t)[None, :]) @ -w
            sums = pb._tail_sums(kernel, w, i)
            assert np.max(np.abs(sums - (right + left))) < 1e-14 * np.max(np.abs(sums))
            assert np.array_equal(pb._tail_sums(kernel, w, i[:1]), sums[:1])

    def test_slope_row_is_the_derivative_rule_at_zero(self, problem_1024):
        pb = problem_1024
        j = np.arange(1, pb.size + 1)
        ref = -2.0 * pb._deriv_kernel(j)
        fit = pb._edge_fit != 0.0
        assert np.array_equal(pb.slope_row[~fit.any(axis=0)], ref[~fit.any(axis=0)])
        assert abs(pb.slope_row @ ss.closed_form_profile(pb.x) + 4.0) < 1e-12


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _one_shot_matrices(pb):
    """The odd-fold operators assembled in one shot: size-by-size index
    arrays, and every rank-1 closure term added to all columns."""
    i = np.arange(1, pb.size + 1)
    mats = []
    for kernel in (pb._hilbert_kernel, pb._deriv_kernel):
        mats.append(kernel(i[:, None] - i[None, :]) - kernel(i[:, None] + i[None, :]))
    hm, dm = mats
    nodes, h, keep = pb._tail_nodes, pb.h, 32
    reach = np.where((pb.size + nodes.size - i) % 2 == 1, h, 0.0)
    head = nodes.size - keep
    t_last = np.arange(head + 1, nodes.size + 1)
    for p_i, p in enumerate(ss._TAIL_POWERS):
        w = nodes ** (-p)
        vec = (pb._tail_sums(pb._hilbert_kernel, w, i)
               + pb._far_series(p, nodes[-1] + reach))
        hm += vec[:, None] * pb._edge_fit[p_i][None, :]
        run = pb._tail_sums(pb._deriv_kernel, w[:head], i)
        term = pb._tail_terms(pb._deriv_kernel, t_last, w[head:], i)
        vec = ss._averaged_tail(run[:, None] + np.cumsum(term, axis=1))
        dm += vec[:, None] * pb._edge_fit[p_i][None, :]
    return hm, dm


class TestWorkingSet:
    def test_row_block_assembly_is_bit_identical_to_the_one_shot_one(self):
        # two row blocks; h = 34.6 / 256 is not dyadic, so the nodes round
        pb = ss.ProfileProblem(n=256, L=17.3)
        hm, dm = _one_shot_matrices(pb)
        assert _same_bits(pb.hilbert_matrix, hm)
        assert _same_bits(pb.deriv_matrix, dm)

    def test_linearization_is_bit_identical_with_and_without_out(self):
        pb = ss.ProfileProblem(n=256, L=17.3)
        w = presets.perturbed_profile(pb, 0.05)
        lam, d, hm, m = 1.1, pb.deriv_matrix, pb.hilbert_matrix, pb.size
        ref = (np.eye(m) + lam * pb.x[:, None] * d
               - np.diag(hm @ w) - w[:, None] * hm)
        fresh, col = ss.linearized_operator(w, lam, pb)
        assert _same_bits(fresh, ref)
        assert np.array_equal(col, pb.x * (d @ w))
        for buf in (np.full((m, m), np.nan), np.full((m + 1, m + 1), np.nan)):
            out = buf[:m, :m]  # the second is strided, as in newton_solve
            a, _ = ss.linearized_operator(w, lam, pb, out=out)
            assert a is out
            assert _same_bits(out, ref)

    def test_traced_peak_of_assembly_and_newton_stays_below_four_matrices(self):
        """At n = 1024 the operators (two (n/2)-by-(n/2)), the bordered
        matrix and the temporaries of one assembly or one Newton step stay
        below four (n/2)^2 float64 values (8 MiB).  The copy np.linalg.solve
        hands to LAPACK is not allocated through Python's allocator, so
        tracemalloc does not see it.
        """
        n = 1024
        tracemalloc.start()
        try:
            pb = ss.ProfileProblem(n=n, L=20.0)
            pb.hilbert_matrix, pb.deriv_matrix
            sol = ss.newton_solve(pb, presets.perturbed_profile(pb, 0.05), lam0=1.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < 4 * (n // 2) ** 2 * 8, f"traced peak {peak / 2**20:.1f} MiB"


class TestProfileResidual:
    def test_vanishes_at_the_closed_form_pair(self, problem_512, problem_1024):
        for pb, bound in ((problem_512, 5e-7), (problem_1024, 5e-8)):
            w = ss.closed_form_profile(pb.x)
            assert np.max(np.abs(ss.profile_residual(w, 1.0, pb))) < bound

    def test_quadratic_scaling_family(self, problem_1024):
        # R(alpha*w, 1) = alpha(1-alpha) w Hw: the residual is exactly
        # quadratic in the profile amplitude
        pb = problem_1024
        w = ss.closed_form_profile(pb.x)
        h = ss.closed_form_hilbert(pb.x)
        alpha = 0.7
        lhs = ss.profile_residual(alpha * w, 1.0, pb)
        assert np.max(np.abs(lhs - alpha * (1.0 - alpha) * w * h)) < 1e-7

    def test_rejects_wrong_shape_and_fat_tails(self, problem_512):
        with pytest.raises(ValueError, match="problem grid"):
            ss.profile_residual(np.zeros(100), 1.0, problem_512)
        with pytest.raises(ValueError, match="tail too large"):
            ss.profile_residual(np.ones(problem_512.size), 1.0, problem_512)


class TestLinearization:
    def test_scaling_direction_lies_in_the_kernel(self, problem_1024):
        pb = problem_1024
        w = ss.closed_form_profile(pb.x)
        a, col = ss.linearized_operator(w, 1.0, pb)
        v = pb.x * (pb.deriv_matrix @ w)
        assert np.max(np.abs(a @ v)) / np.max(np.abs(v)) < 5e-7
        assert np.array_equal(col, v)

    def test_matrix_is_the_exact_frechet_derivative(self, problem_1024):
        pb = problem_1024
        w = ss.closed_form_profile(pb.x)
        a, _ = ss.linearized_operator(w, 1.0, pb)
        base = ss.profile_residual(w, 1.0, pb)
        v = pb.x * np.exp(-pb.x ** 2 / 9.0)
        rems = []
        for eps in (1e-4, 1e-5):
            pert = ss.profile_residual(w + eps * v, 1.0, pb)
            rems.append(np.max(np.abs(pert - base - eps * (a @ v))))
        assert rems[0] < 1e-6
        assert 50.0 < rems[0] / rems[1] < 200.0  # quadratic remainder


class TestNewton:
    def test_converges_from_perturbed_guess(self, problem_512):
        pb = problem_512
        w = ss.closed_form_profile(pb.x)
        w0 = w * (1.0 + 0.05 * np.exp(-pb.x ** 2 / 10.0))
        sol = ss.newton_solve(pb, w0, lam0=1.1, tol=1e-10)
        assert sol.converged
        assert sol.iterations <= 6
        assert sol.residual < 1e-10
        assert abs(sol.lam - 1.0) < 5e-6
        assert np.max(np.abs(sol.omega - w)) < 1e-4

    def test_recovers_the_closed_form_to_1e_7(self, problem_1024):
        # the full-line grid, with its unpaired node at -L, stopped at
        # max|Omega - Omega_exact| = 5.2e-6 from this guess
        pb = problem_1024
        sol = ss.newton_solve(pb, presets.perturbed_profile(pb, 0.05), lam0=1.1)
        assert sol.converged
        assert np.max(np.abs(sol.omega - ss.closed_form_profile(pb.x))) < 1e-7
        assert abs(sol.lam - 1.0) < 1e-7

    def test_step_norm_is_the_last_correction(self, problem_512):
        pb = problem_512
        w0 = presets.perturbed_profile(pb, 0.05)
        sol = ss.newton_solve(pb, w0, lam0=1.1)
        before = ss.newton_solve(pb, w0, lam0=1.1, max_iter=sol.iterations - 1)
        jump = max(np.max(np.abs(sol.omega - before.omega)), abs(sol.lam - before.lam))
        assert sol.step_norm == pytest.approx(jump, rel=1e-6)
        assert ss.newton_solve(pb, w0, lam0=1.1, max_iter=0).step_norm == 0.0

    def test_zero_datum_has_singular_bordered_system(self):
        pb = ss.ProfileProblem(n=128, L=10.0)
        with pytest.raises(RuntimeError, match="Hypothesis 1 fails at iterate 1"):
            ss.newton_solve(pb, np.zeros(pb.size))


class TestOutgoingCheck:
    def test_pure_scaling_transport(self):
        out = ss.outgoing_check(None, 1.0)
        assert out["certified"]
        assert out["c_estimate"] == 1.0

    def test_inward_correction_lowers_the_margin(self):
        out = ss.outgoing_check(lambda s: -0.3 * s / (1.0 + s ** 2), 1.0)
        assert out["certified"]
        assert out["c_estimate"] == pytest.approx(0.7, abs=1e-3)

    def test_strong_inflow_fails(self):
        out = ss.outgoing_check(lambda s: -2.0 * s, 1.0)
        assert not out["certified"]


class TestLemmaDecomposition:
    def test_parabola_transport_is_certified(self):
        params = ss.WeightedSpaceParams(N=8, delta=0.1)
        dec = ss.lemma_decomposition_check(lambda t: t * (1.0 - t),
                                           lambda t: 1.0, params)
        assert dec.certified
        assert dec.rank == 1
        assert dec.c_inner == pytest.approx(4.8, rel=1e-14)
        assert dec.c_coercive == pytest.approx(0.848843, abs=1e-3)
        assert np.max(np.abs(dec.coercive + dec.finite_rank - dec.operator)) < 1e-12

    @pytest.mark.parametrize("N", [6, 8, 10])
    @pytest.mark.parametrize("name", ["parabola", "sine"])
    def test_c_inner_matches_adaptive_quadrature(self, name, N):
        from scipy.integrate import quad

        u = presets.REGISTRY[name].make(None)
        delta = 0.1
        dec = ss.lemma_decomposition_check(u, lambda t: 1.0,
                                           ss.WeightedSpaceParams(N=N, delta=delta))
        ratios = []
        for p in (N / 2, N / 2 + 0.5, N / 2 + 1.0, N / 2 + 1.5, N / 2 + 3.0):
            num = quad(lambda t: (u(t) * p * t ** (p - 1) + t ** p) * t ** (p - N),
                       0.0, delta, limit=200)[0]
            den = quad(lambda t: t ** (2 * p - N), 0.0, delta, limit=200)[0]
            ratios.append(num / den)
        assert dec.c_inner == pytest.approx(min(ratios), rel=1e-13)

    def test_sharper_weight_keeps_the_certificate(self):
        params = ss.WeightedSpaceParams(N=16, delta=0.1)
        dec = ss.lemma_decomposition_check(lambda t: t * (1.0 - t),
                                           lambda t: 1.0, params)
        assert dec.certified
        assert dec.rank == 1
        assert dec.c_coercive == pytest.approx(0.9015, abs=1e-3)

    def test_hypothesis_violations_are_rejected(self):
        params = ss.WeightedSpaceParams(N=8, delta=0.1)
        good_u = lambda t: t * (1.0 - t)
        good_g = lambda t: 1.0
        with pytest.raises(ValueError, match="vanish at both endpoints"):
            ss.lemma_decomposition_check(lambda t: t * (1.0 + t), good_g, params)
        with pytest.raises(ValueError, match="must be positive"):
            ss.lemma_decomposition_check(lambda t: -t * (1.0 - t), good_g, params)
        with pytest.raises(ValueError, match="nonnegative"):
            ss.lemma_decomposition_check(good_u, lambda t: -1.0, params)
        with pytest.raises(ValueError, match="open interval"):
            ss.lemma_decomposition_check(
                lambda t: t * (1.0 - t) * (t - 0.5) ** 2, good_g, params)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            ss.WeightedSpaceParams(N=2, delta=0.1)
        with pytest.raises(ValueError, match="delta"):
            ss.WeightedSpaceParams(N=8, delta=0.7)
        with pytest.raises(ValueError, match="grid_ratio"):
            ss.WeightedSpaceParams(N=8, delta=0.1, grid_ratio=0.9)
