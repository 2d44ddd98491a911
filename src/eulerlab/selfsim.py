"""Self-similar profiles for the CLM model on the real line.

A profile ``Omega`` with scaling rate ``lam`` solves

    R(Omega, lam) = Omega + lam * X * Omega' - Omega * H(Omega) = 0,

where ``H`` is the Hilbert transform on the line.  The known closed form
is ``Omega(X) = -4X / (1 + 4X^2)`` with ``lam = 1``; its transform is
``H(Omega) = 2 / (1 + 4X^2)``.

Discretization: a uniform symmetric grid, band-limited (sinc-basis)
differentiation, and the parity-skip quadrature for the Hilbert
transform.  Both are exact for band-limited samples on the full line;
the part of the line beyond the grid is closed by fitting an odd
algebraic decay model a/X + b/X^3 + c/X^5 to the outermost samples and
summing/integrating that model analytically.  The closure is linear in
the samples, so the assembled matrices are the exact Frechet
derivatives of the discrete residual.

The discrete tail sums run over the tail nodes out to 50 L on each side.
Since x_i - node = h (i - j), each kernel depends only on the index
difference, so the sums of every grid row for one side and one decay
power are a single direct-summation correlation (``np.correlate``) of
the kernel with the node weights ``node**-p``, not an n-by-tail matrix.

Working set of a solve: the two cached n-by-n operators, one
(n+1)-by-(n+1) bordered matrix that :func:`newton_solve` allocates once
and :func:`linearized_operator` rewrites in place at every iteration, and
the copy of it that ``np.linalg.solve`` hands to LAPACK.  The operators
are filled in blocks of ``_BLOCK_ROWS`` rows, so no other n-by-n array
is made.

The module also carries the outgoing-trajectory check for the rescaled
characteristic field and a coercivity certifier for weighted transport
operators u f' + g f near a one-sided boundary (the lemma checker used
by the profile machinery to rule out slowly decaying kernel elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

__all__ = [
    "ProfileProblem",
    "ProfileSolution",
    "WeightedSpaceParams",
    "OperatorDecomposition",
    "closed_form_profile",
    "closed_form_hilbert",
    "profile_residual",
    "linearized_operator",
    "newton_solve",
    "outgoing_check",
    "lemma_decomposition_check",
]

_TAIL_POWERS = (1, 3, 5)
_FAR_CUT_FACTOR = 50.0  # discrete tail sums run out to this multiple of L
_FAR_SERIES_TERMS = 10
_BLOCK_ROWS = 64  # rows per block of the n-by-n fills: no n-by-n temporaries


def closed_form_profile(x: np.ndarray) -> np.ndarray:
    """The exact odd profile -4x/(1+4x^2) (scaling rate 1)."""
    return -4.0 * x / (1.0 + 4.0 * x * x)


def closed_form_hilbert(x: np.ndarray) -> np.ndarray:
    """Hilbert transform of the exact profile, 2/(1+4x^2)."""
    return 2.0 / (1.0 + 4.0 * x * x)


def _row_blocks(n: int):
    """Slices of at most ``_BLOCK_ROWS`` rows covering ``range(n)``."""
    return [slice(s, min(s + _BLOCK_ROWS, n)) for s in range(0, n, _BLOCK_ROWS)]


def _add_closure(mat: np.ndarray, vecs: list, rows: np.ndarray) -> None:
    """Add the rank-1 tail terms ``vecs[p] (x) rows[p]`` to ``mat`` in place.

    The fit rows vanish outside the fit columns, where adding ``vec * 0.0``
    would leave every entry as it is, so only the fit columns are touched.
    """
    cols = np.flatnonzero(np.any(rows != 0.0, axis=0))
    for vec, row in zip(vecs, rows):
        mat[:, cols] += vec[:, None] * row[cols]


def _averaged_tail(partials: np.ndarray) -> np.ndarray:
    """Limit of an alternating sequence of partial sums (iterated means)."""
    s = partials
    while s.shape[-1] > 1:
        s = 0.5 * (s[..., 1:] + s[..., :-1])
    return s[..., 0]


@dataclass
class ProfileProblem:
    """Grid and discrete operators for the profile equation.

    ``n`` grid points cover ``[-L, L)`` uniformly with ``X = 0`` on the
    grid (``n`` even).  :meth:`check_tail` rejects states whose edge samples
    are incompatible with an integrable 1/X tail.
    """

    n: int = 1024
    L: float = 20.0
    model: str = "clm"

    def __post_init__(self) -> None:
        if self.model != "clm":
            raise ValueError("only the CLM profile problem is implemented")
        if self.n % 2 != 0 or self.n < 64:
            raise ValueError("n must be an even integer >= 64")
        if self.L < 10.0:
            raise ValueError("L must be at least 10 for the decay closure")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.h

    @property
    def i_zero(self) -> int:
        return self.n // 2

    @cached_property
    def _edge_fits(self) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares extraction rows mapping samples -> decay coefficients.

        Returns (left, right), each (3, n): applied to a sample vector they
        produce the coefficients (a, b, c) of a/X + b/X^3 + c/X^5 fitted
        over the outer tenth of the corresponding side.
        """
        m = max(8, self.n // 10)
        out = []
        for side in ("left", "right"):
            idx = np.arange(m) if side == "left" else np.arange(self.n - m, self.n)
            xs = self.x[idx]
            v = np.stack([xs ** (-p) for p in _TAIL_POWERS], axis=1)
            rows = np.zeros((3, self.n))
            rows[:, idx] = np.linalg.pinv(v)
            out.append(rows)
        return out[0], out[1]

    def _tail_nodes(self, side: str) -> np.ndarray:
        far = _FAR_CUT_FACTOR * self.L
        count = int(math.ceil((far - self.L) / self.h))
        d = np.arange(1, count + 1)
        if side == "right":
            return self.x[-1] + d * self.h
        return self.x[0] - d * self.h

    def _far_series(self, power: int, side: str, cut: float) -> np.ndarray:
        """(1/pi) * integral of y^-power/(x-y) over the line beyond |cut|."""
        x = self.x
        m = np.arange(_FAR_SERIES_TERMS)
        if side == "right":
            coeff = -(cut ** -(power + m)) / (power + m)
            val = (x[:, None] ** m) @ coeff
        else:
            coeff = (cut ** -(power + m)) / (power + m)
            val = ((-x[:, None]) ** m) @ coeff * (-1.0) ** power
        return val / math.pi

    def _tail_distances(self, side: str) -> tuple[np.ndarray, float]:
        """Row offsets r_i and the sign of the index difference on one side.

        Row i and tail node t (t = 1, 2, ...) sit r_i + t grid steps apart,
        with r_i = i on the left and r_i = n - 1 - i on the right, where
        the index difference row - node is negative.
        """
        r = np.arange(self.n)
        return (r, 1.0) if side == "left" else (r[::-1], -1.0)

    def _tail_sums(self, kernel, side: str, weights: np.ndarray) -> np.ndarray:
        """sum_t kernel(i - j_t) * weights[t - 1] for every row i.

        ``kernel`` is odd in the index difference, so each sum is the
        side's sign times a sum over distances r_i + t; for all rows at once
        that is one correlation of the kernel at distances
        1 .. n - 1 + len(weights) with the weights.
        """
        r, sign = self._tail_distances(side)
        sums = np.correlate(kernel(np.arange(1, self.n + weights.size)), weights, "valid")
        return sign * sums[r]

    def _tail_terms(self, kernel, side: str, t: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
        """The individual terms kernel(i - j_t) * weights, shape (n, len(t))."""
        r, sign = self._tail_distances(side)
        return sign * kernel(r[:, None] + t[None, :]) * weights

    def _hilbert_kernel(self, d: np.ndarray) -> np.ndarray:
        """Parity-skip quadrature weight 2h / (pi (x_i - x_j)) at index difference d."""
        return np.where(d % 2 == 1, (2.0 / math.pi) / d, 0.0)

    def _deriv_kernel(self, d: np.ndarray) -> np.ndarray:
        """Sinc-differentiation weight (-1)^d / (h d) at index difference d != 0."""
        return np.where(d % 2 == 0, 1.0, -1.0) / (self.h * d)

    @cached_property
    def hilbert_matrix(self) -> np.ndarray:
        """Dense Hilbert transform: parity-skip quadrature plus tail closure."""
        n, h, x = self.n, self.h, self.x
        i = np.arange(n)
        mat = np.zeros((n, n))
        for b in _row_blocks(n):
            odd = (i[b, None] - i[None, :]) % 2 == 1
            np.divide(2.0 * h / math.pi, x[b, None] - x[None, :], out=mat[b], where=odd)

        for side, rows in zip(("left", "right"), self._edge_fits):
            nodes = self._tail_nodes(side)
            cut = abs(nodes[-1]) + self.h
            vecs = [self._tail_sums(self._hilbert_kernel, side, nodes ** (-p))
                    + self._far_series(p, side, cut) for p in _TAIL_POWERS]
            _add_closure(mat, vecs, rows)
        return mat

    @cached_property
    def deriv_matrix(self) -> np.ndarray:
        """Dense band-limited differentiation with the same tail closure.

        The alternating tail series is summed directly up to its last
        ``keep`` terms, whose partial sums are then averaged to the limit.
        """
        n, h = self.n, self.h
        i = np.arange(n)
        mat = np.zeros((n, n))
        for b in _row_blocks(n):
            kk = i[b, None] - i[None, :]
            signs = np.where(kk % 2 == 0, 1.0, -1.0)
            np.divide(signs, h * kk, out=mat[b], where=kk != 0)

        keep = 32
        for side, rows in zip(("left", "right"), self._edge_fits):
            nodes = self._tail_nodes(side)
            head = nodes.size - keep
            t_last = np.arange(head + 1, nodes.size + 1)
            vecs = []
            for p in _TAIL_POWERS:
                w = nodes ** (-p)
                run = self._tail_sums(self._deriv_kernel, side, w[:head])
                term = self._tail_terms(self._deriv_kernel, side, t_last, w[head:])
                vecs.append(_averaged_tail(run[:, None] + np.cumsum(term, axis=1)))
            _add_closure(mat, vecs, rows)
        return mat

    def check_tail(self, omega: np.ndarray) -> None:
        edge = max(abs(omega[0] * self.x[0]), abs(omega[-1] * self.x[-1]))
        if not np.isfinite(edge) or edge > 4.0:
            raise ValueError(
                f"tail too large: |X*Omega| = {edge:.3g} at the grid edge "
                "(bound 4); the profile must decay like 1/X")


@dataclass
class ProfileSolution:
    omega: np.ndarray
    lam: float
    residual: float
    iterations: int
    converged: bool
    problem: ProfileProblem


def profile_residual(omega: np.ndarray, lam: float,
                     problem: ProfileProblem) -> np.ndarray:
    """Pointwise residual Omega + lam*X*Omega' - Omega*H(Omega)."""
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (problem.n,):
        raise ValueError("omega must be sampled on the problem grid")
    problem.check_tail(omega)
    dw = problem.deriv_matrix @ omega
    hw = problem.hilbert_matrix @ omega
    return omega + lam * problem.x * dw - omega * hw


def linearized_operator(omega: np.ndarray, lam: float, problem: ProfileProblem,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Frechet derivative of the residual.

    Returns ``(A, col)`` where ``A`` acts on profile perturbations and
    ``col`` is the derivative with respect to the scaling rate, i.e.
    ``X * Omega'``.  ``A = I + lam X D - diag(H Omega) - Omega H`` is
    written into ``out`` (any n-by-n float64 view) when given, else into a
    new array; no other n-by-n array is made.  Adding ``0.0`` to every
    entry gives the signed zeros that adding the identity would.
    """
    omega = np.asarray(omega, dtype=np.float64)
    d, hm = problem.deriv_matrix, problem.hilbert_matrix
    hw = hm @ omega
    a = np.multiply(lam * problem.x[:, None], d, out=out)
    a += 0.0
    diag = np.arange(problem.n)
    a[diag, diag] = (a[diag, diag] + 1.0) - hw
    for b in _row_blocks(problem.n):
        a[b] -= omega[b, None] * hm[b]
    col = problem.x * (d @ omega)
    return a, col


def check_max_iter(max_iter: int) -> None:
    """Reject a negative Newton budget (0 only measures the guess)."""
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")


def newton_solve(problem: ProfileProblem, omega0: np.ndarray,
                 lam0: float = 1.0, tol: float = 1e-10,
                 max_iter: int = 25) -> ProfileSolution:
    """Solve the profile equation with the slope normalization Omega'(0) = -4.

    The scaling symmetry Omega -> a*Omega(a X) makes the plain
    linearization singular along X*Omega'; the normalization row borders
    the system and fixes the representative.  A singular bordered
    linearization means the solvability hypothesis behind the bordered
    Newton step ("Hypothesis 1": the profile linearization is invertible
    transverse to the scaling direction) does not hold there.
    """
    check_max_iter(max_iter)
    omega = np.asarray(omega0, dtype=np.float64).copy()
    lam = float(lam0)
    norm_row = problem.deriv_matrix[problem.i_zero]
    res = profile_residual(omega, lam, problem)
    defect = norm_row @ omega + 4.0
    rnorm = max(float(np.max(np.abs(res))), abs(defect))
    bordered = None
    for k in range(1, max_iter + 1):
        if rnorm < tol:
            return ProfileSolution(omega, lam, rnorm, k - 1, True, problem)
        if bordered is None:
            bordered = np.zeros((problem.n + 1, problem.n + 1))
            bordered[-1, :-1] = norm_row
        _, col = linearized_operator(omega, lam, problem, out=bordered[:-1, :-1])
        bordered[:-1, -1] = col
        rhs = np.concatenate([-res, [-defect]])
        try:
            step = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"Hypothesis 1 fails at iterate {k}: "
                f"singular bordered linearization ({exc})") from exc
        err = np.linalg.norm(bordered @ step - rhs)
        if not np.isfinite(err) or err > 1e-6 * max(np.linalg.norm(rhs), 1e-300):
            raise RuntimeError(
                f"Hypothesis 1 fails at iterate {k}: bordered linearization "
                f"is numerically singular (solve defect {err:.3g})")
        omega = omega + step[:-1]
        lam = lam + step[-1]
        res = profile_residual(omega, lam, problem)
        defect = norm_row @ omega + 4.0
        rnorm = max(float(np.max(np.abs(res))), abs(defect))
    return ProfileSolution(omega, lam, rnorm, max_iter, bool(rnorm < tol), problem)


def outgoing_check(u_star, lam_star: float, c_floor: float = 0.0,
                   x: np.ndarray | None = None) -> dict:
    """Check that rescaled characteristics leave every annulus outward.

    The rescaled trajectory field is ``lam*X + U(X)``; outward transport
    at rate ``c`` means ``(lam*X + U(X)) * X / X^2 >= c`` away from the
    origin.  ``u_star`` may be None (no corrector drift), a callable, or
    an array of samples matching ``x``.
    """
    if x is None:
        x = ProfileProblem().x
    x = np.asarray(x, dtype=np.float64)
    mask = x != 0.0
    xs = x[mask]
    if u_star is None:
        uv = np.zeros_like(xs)
    elif callable(u_star):
        uv = np.asarray(u_star(xs), dtype=np.float64)
    else:
        uv = np.asarray(u_star, dtype=np.float64)[mask]
    c = float(np.min(lam_star + uv / xs))
    return {"certified": bool(c > c_floor), "c_estimate": c}


# -- weighted coercivity certificate near a degenerate boundary ---------------


@dataclass(frozen=True)
class WeightedSpaceParams:
    """Weight exponent and boundary-layer width for the coercivity check."""

    N: int = 8
    delta: float = 0.1
    grid_points: int = 400
    grid_ratio: float = 1.1

    def __post_init__(self) -> None:
        if self.N < 4:
            raise ValueError("weight exponent N must be at least 4")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if self.grid_points < 16 or self.grid_points > 400:
            raise ValueError("grid_points must lie in [16, 400]")
        if self.grid_ratio <= 1.0:
            raise ValueError("grid_ratio must exceed 1")


@dataclass
class OperatorDecomposition:
    """Coercive-plus-finite-rank split of the conjugated transport operator."""

    x: np.ndarray
    operator: np.ndarray
    coercive: np.ndarray
    finite_rank: np.ndarray
    rank: int
    c_coercive: float
    c_inner: float
    certified: bool
    params: WeightedSpaceParams


# Gauss-Legendre nodes of the boundary-layer pairings in lemma_decomposition_check
_LEMMA_NODES = 64


def _check_lemma_hypotheses(u, g) -> None:
    eps = 1e-7
    if abs(u(0.0)) > 1e-10 or abs(u(1.0)) > 1e-10:
        raise ValueError("u must vanish at both endpoints of [0, 1]")
    up0 = (u(eps) - u(0.0)) / eps
    if up0 <= 0.0:
        raise ValueError("u'(0) must be positive (inward transport at 0)")
    if g(1.0) < 0.0:
        raise ValueError("g(1) must be nonnegative")
    probe = np.concatenate([np.geomspace(1e-6, 0.5, 200),
                            np.linspace(0.5, 1.0 - 1e-6, 200)])
    uv = np.array([u(t) for t in probe])
    if np.any(uv <= 0.0):
        raise ValueError("u must be positive on the open interval (0, 1)")


def lemma_decomposition_check(u, g, params: WeightedSpaceParams) -> OperatorDecomposition:
    """Certify L f = u f' + g f as coercive-plus-finite-rank in x^{-N} weight.

    Two ingredients: a boundary-layer estimate on [0, delta] tested
    against powers vanishing to order >= N/2 at the origin (computed by
    quadrature, reporting the worst pairing ratio), and an eigenvalue
    split of the weight-conjugated operator on a geometric grid.  The
    conjugation replaces the singular weight x^{-N} by the bounded
    potential shift (N/2) * u(x)/x, so no overflowing weights appear.

    The pairings use one Gauss-Legendre rule on [0, delta]: their
    integrands p u(t) t^(2p-N-1) + g(t) t^(2p-N) are smooth, since 2p - N
    is a nonnegative integer and u(0) = 0.
    """
    _check_lemma_hypotheses(u, g)
    n_half = params.N / 2.0

    nodes, weights = np.polynomial.legendre.leggauss(_LEMMA_NODES)
    t = 0.5 * params.delta * (nodes + 1.0)
    w = 0.5 * params.delta * weights
    ut = np.array([u(s) for s in t])
    gt = np.array([g(s) for s in t])
    ratios = []
    for p in (n_half, n_half + 0.5, n_half + 1.0, n_half + 1.5, n_half + 3.0):
        num = w @ ((ut * p * t ** (p - 1) + gt * t ** p) * t ** (p - params.N))
        den = w @ t ** (2 * p - params.N)
        ratios.append(num / den)
    c_inner = float(min(ratios))

    m = params.grid_points
    x = params.grid_ratio ** -(np.arange(m)[::-1].astype(np.float64))
    uv = np.array([u(t) for t in x])
    gv = np.array([g(t) for t in x])
    pot = gv + n_half * uv / x

    d = np.zeros((m, m))
    for j in range(m):
        if j == 0:
            a, b, c = x[0], x[1], x[2]
            d[0, 0] = (2 * a - b - c) / ((a - b) * (a - c))
            d[0, 1] = (a - c) / ((b - a) * (b - c))
            d[0, 2] = (a - b) / ((c - a) * (c - b))
        elif j == m - 1:
            a, b, c = x[-3], x[-2], x[-1]
            d[-1, -3] = (c - b) / ((a - b) * (a - c))
            d[-1, -2] = (c - a) / ((b - a) * (b - c))
            d[-1, -1] = (2 * c - a - b) / ((c - a) * (c - b))
        else:
            a, b, c = x[j - 1], x[j], x[j + 1]
            d[j, j - 1] = (b - c) / ((a - b) * (a - c))
            d[j, j] = (2 * b - a - c) / ((b - a) * (b - c))
            d[j, j + 1] = (b - a) / ((c - a) * (c - b))
    t_mat = uv[:, None] * d + np.diag(pot)

    q = np.zeros(m)
    q[1:-1] = 0.5 * (x[2:] - x[:-2])
    q[0] = 0.5 * (x[1] - x[0])
    q[-1] = 0.5 * (x[-1] - x[-2])
    rq = np.sqrt(q)
    t_hat = (rq[:, None] * t_mat) / rq[None, :]

    sym = 0.5 * (t_hat + t_hat.T)
    mu, vec = np.linalg.eigh(sym)
    neg = mu <= 0.0
    rank = int(np.count_nonzero(neg))
    fin = (vec[:, neg] * mu[neg][None, :]) @ vec[:, neg].T
    coercive = t_hat - fin
    c_coercive = float(mu[~neg].min()) if np.any(~neg) else 0.0
    certified = c_inner > 0.0 and c_coercive > 0.0
    return OperatorDecomposition(x=x, operator=t_hat, coercive=coercive,
                                 finite_rank=fin, rank=rank,
                                 c_coercive=c_coercive, c_inner=c_inner,
                                 certified=certified, params=params)
