"""Self-similar profiles for the CLM model on the real line.

A profile ``Omega`` with scaling rate ``lam`` solves

    R(Omega, lam) = Omega + lam * X * Omega' - Omega * H(Omega) = 0,

where ``H`` is the Hilbert transform on the line.  The known closed form
is ``Omega(X) = -4X / (1 + 4X^2)`` with ``lam = 1``; its transform is
``H(Omega) = 2 / (1 + 4X^2)``.

Discretization: every profile solved for is odd, so the unknowns are the
samples at the nodes X = h, 2h, ..., L (h = 2L/n) of the odd extension
to the symmetric grid, whose sample at X = 0 vanishes.  Band-limited
(sinc-basis) differentiation and the parity-skip quadrature for the
Hilbert transform are folded onto these nodes: entry (i, j) is
K(i - j) - K(i + j) for the kernel K at index difference i - j, and the
row i = 0 of the derivative is the normalization Omega'(0).  Both rules
are exact for band-limited samples on the full line; the part of the
line beyond +-L is closed by fitting an odd algebraic decay model
a/X + b/X^3 + c/X^5 to the outermost samples and summing/integrating that
model on (L, inf) and its mirror image on (-inf, -L).  The closure is
linear in the samples, so the assembled matrices are the exact Frechet
derivatives of the discrete residual.

The discrete tail sums run over the tail nodes out to 50 L on each side.
Each kernel depends only on the index difference, so the sums of every
row for one decay power are a single direct-summation correlation
(``np.correlate``) of the kernel with the node weights ``node**-p``,
not a size-by-tail matrix.

Working set of a solve: one (size+1)-by-(size+1) bordered matrix (size =
n/2) that :func:`newton_solve` allocates once and
:func:`linearized_operator` rewrites in place at every iteration, and the
copy of it that ``np.linalg.solve`` hands to LAPACK.  The operators are
never stored whole: each is kept as its kernel at every index offset a row
meets and its three closure vectors, O(size), and is read in blocks of
``_BLOCK_ROWS`` rows (:meth:`ProfileProblem.hilbert_rows`,
:meth:`ProfileProblem.deriv_rows`).  The dense ``hilbert_matrix`` and
``deriv_matrix`` stack those blocks for callers that want them whole.
The ``tracemalloc`` peak of a solve from a fresh problem (L = 20, the
``selfsim_recovery`` guess) is 2.7 MiB at n = 1024 and 9.4 MiB at
n = 2048, of which the bordered matrix is 2.0 and 8.0 MiB; with both
dense operators cached it was 6.6 and 25.1 MiB.

The module also carries the outgoing-trajectory check for the rescaled
characteristic field and a coercivity certifier for weighted transport
operators u f' + g f near a one-sided boundary (the lemma checker used
by the profile machinery to rule out slowly decaying kernel elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_BLOCK_ROWS = 64  # rows per operator block: no size-by-size temporaries


def closed_form_profile(x: np.ndarray) -> np.ndarray:
    """The exact odd profile -4x/(1+4x^2) (scaling rate 1)."""
    return -4.0 * x / (1.0 + 4.0 * x * x)


def closed_form_hilbert(x: np.ndarray) -> np.ndarray:
    """Hilbert transform of the exact profile, 2/(1+4x^2)."""
    return 2.0 / (1.0 + 4.0 * x * x)


def _row_blocks(n: int):
    """Slices of ``_BLOCK_ROWS`` rows covering ``range(n)``, the last one
    with the rest.  A rest of one row joins the block before it: numpy
    multiplies one row by a vector as a dot product, which rounds
    differently from the matrix-vector product of a dense operator."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [n])]


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

    An odd profile is carried by its samples at the ``size = n // 2``
    nodes ``X = h, 2h, ..., L`` with ``h = 2L / n`` (``n`` even), so ``n``
    counts the nodes of the symmetric grid of ``[-L, L)`` that the odd
    extension lives on.  :meth:`check_profile` rejects off-grid states and
    edge samples incompatible with an integrable 1/X tail.
    """

    n: int = 1024
    L: float = 20.0

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or self.n < 64:
            raise ValueError("n must be an even integer >= 64")
        if not 10.0 <= self.L < math.inf:  # a NaN L fails too
            raise ValueError("L must be at least 10 for the decay closure, and finite")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def size(self) -> int:
        """The number of unknowns, one per node X = h, 2h, ..., L."""
        return self.n // 2

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(1, self.size + 1) * self.h

    @cached_property
    def _edge_fit(self) -> np.ndarray:
        """Least-squares extraction rows mapping samples -> decay coefficients.

        A (3, size) array: applied to a sample vector it gives the
        coefficients (a, b, c) of a/X + b/X^3 + c/X^5 fitted over the outer
        tenth of (0, L] (at least 8 nodes).  The model is odd, so the same
        coefficients close the mirrored tail on (-inf, -L).
        """
        m = max(8, self.size // 10)
        idx = np.arange(self.size - m, self.size)
        v = np.stack([self.x[idx] ** (-p) for p in _TAIL_POWERS], axis=1)
        rows = np.zeros((3, self.size))
        rows[:, idx] = np.linalg.pinv(v)
        return rows

    @cached_property
    def _tail_nodes(self) -> np.ndarray:
        """The nodes (size + t) h, t = 1, 2, ..., out to 50 L."""
        count = int(math.ceil((_FAR_CUT_FACTOR - 1.0) * self.L / self.h))
        return (self.size + np.arange(1, count + 1)) * self.h

    def _far_series(self, power: int, cut: np.ndarray) -> np.ndarray:
        """(1/pi) * integral of y^-power/(x-y) over |y| > cut at every node:
        for odd ``power`` twice the even terms of one side's series in x/cut."""
        m = np.arange(0, _FAR_SERIES_TERMS, 2)
        terms = (self.x[:, None] / cut[:, None]) ** m / (power + m)
        return -2.0 * cut ** -power * terms.sum(axis=1) / math.pi

    def _tail_sums(self, kernel, weights: np.ndarray, i: np.ndarray) -> np.ndarray:
        """sum_t [kernel(i - size - t) - kernel(i + size + t)] * weights[t - 1].

        Row ``i`` meets tail node ``size + t`` and its mirror ``-(size + t)``,
        which carries the negated sample.  ``kernel`` is odd, so this is
        -(S(size - i) + S(size + i)) with S(r) = sum_t kernel(r + t) weights[t - 1],
        for all rows one correlation of the kernel with the weights.
        """
        lo, hi = self.size - i.max(), self.size + i.max()
        s = np.correlate(kernel(np.arange(lo + 1, hi + weights.size + 1)), weights, "valid")
        return -(s[self.size - i - lo] + s[self.size + i - lo])

    def _tail_terms(self, kernel, t: np.ndarray, weights: np.ndarray,
                    i: np.ndarray) -> np.ndarray:
        """The individual terms of :meth:`_tail_sums`, shape (len(i), len(t))."""
        r = self.size + t[None, :]
        return -(kernel(r - i[:, None]) + kernel(r + i[:, None])) * weights

    def _hilbert_kernel(self, d: np.ndarray) -> np.ndarray:
        """Parity-skip quadrature weight 2h / (pi (x_i - x_j)) at index difference d."""
        return np.divide(2.0 / math.pi, d, out=np.zeros(d.shape), where=d % 2 == 1)

    def _deriv_kernel(self, d: np.ndarray) -> np.ndarray:
        """Sinc-differentiation weight (-1)^d / (h d) at index difference d != 0."""
        signs = np.where(d % 2 == 0, 1.0, -1.0)
        return np.divide(signs, self.h * d, out=np.zeros(d.shape), where=d != 0)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Every index difference i - j and sum i + j that a row i = 0 .. size
        meets at the nodes j = 1 .. size."""
        return np.arange(-self.size, 2 * self.size + 1)

    def _fold(self, kernel_values: np.ndarray, vecs: list, first: int,
              count: int) -> np.ndarray:
        """Rows i = first .. first + count - 1 of an odd-fold operator:
        kernel(i - j) - kernel(i + j) for the nodes j = 1 .. size, plus the
        closure ``vecs`` (one entry per row) on the fit columns.

        ``kernel_values`` holds the kernel at :attr:`_offsets`, so the
        Toeplitz part is a window of it read backwards and the Hankel part a
        window read forwards.  The Toeplitz part is copied first: a ufunc of
        two strided windows would buffer both.
        """
        size = self.size
        window = np.lib.stride_tricks.sliding_window_view
        top = 2 * size + 1 - first
        rows = window(kernel_values[::-1], size)[top:top - count:-1].copy()
        rows -= window(kernel_values, size)[size + 1 + first:size + 1 + first + count]
        _add_closure(rows, vecs, self._edge_fit)
        return rows

    @cached_property
    def _hilbert_parts(self) -> tuple[np.ndarray, list]:
        """The Hilbert kernel at :attr:`_offsets` and the closure vectors of
        the rows i = 1 .. size."""
        i = np.arange(1, self.size + 1)
        nodes = self._tail_nodes
        # a row at odd distance from the last node sums up to nodes[-1] + h;
        # the other rows skip it, so their far integral starts at nodes[-1]
        reach = np.where((self.size + nodes.size - i) % 2 == 1, self.h, 0.0)
        vecs = [self._tail_sums(self._hilbert_kernel, nodes ** (-p), i)
                + self._far_series(p, nodes[-1] + reach) for p in _TAIL_POWERS]
        return self._hilbert_kernel(self._offsets), vecs

    def _deriv_closure(self, i: np.ndarray) -> list:
        """The closure vectors of the differentiation rows ``i``.

        The alternating tail series is summed directly up to its last
        ``keep`` terms, whose partial sums are then averaged to the limit.
        """
        keep = 32
        nodes = self._tail_nodes
        head = nodes.size - keep
        t_last = np.arange(head + 1, nodes.size + 1)
        vecs = []
        for p in _TAIL_POWERS:
            w = nodes ** (-p)
            run = self._tail_sums(self._deriv_kernel, w[:head], i)
            term = self._tail_terms(self._deriv_kernel, t_last, w[head:], i)
            vecs.append(_averaged_tail(run[:, None] + np.cumsum(term, axis=1)))
        return vecs

    @cached_property
    def _deriv_parts(self) -> tuple[np.ndarray, list]:
        """The differentiation kernel at :attr:`_offsets` and the closure
        vectors of the rows i = 1 .. size."""
        return (self._deriv_kernel(self._offsets),
                self._deriv_closure(np.arange(1, self.size + 1)))

    def hilbert_rows(self, b: slice) -> np.ndarray:
        """Rows ``b`` of the Hilbert transform (quadrature plus tail closure)."""
        kernel_values, vecs = self._hilbert_parts
        return self._fold(kernel_values, [v[b] for v in vecs], b.start + 1, b.stop - b.start)

    def deriv_rows(self, b: slice) -> np.ndarray:
        """Rows ``b`` of the band-limited differentiation with the tail closure."""
        kernel_values, vecs = self._deriv_parts
        return self._fold(kernel_values, [v[b] for v in vecs], b.start + 1, b.stop - b.start)

    def _stacked(self, rows) -> np.ndarray:
        mat = np.empty((self.size, self.size))
        for b in _row_blocks(self.size):
            mat[b] = rows(b)
        return mat

    @cached_property
    def hilbert_matrix(self) -> np.ndarray:
        """Dense Hilbert transform, stacked from :meth:`hilbert_rows` (the
        solver reads row blocks and never forms it)."""
        return self._stacked(self.hilbert_rows)

    @cached_property
    def deriv_matrix(self) -> np.ndarray:
        """Dense band-limited differentiation, stacked from :meth:`deriv_rows`."""
        return self._stacked(self.deriv_rows)

    @cached_property
    def slope_row(self) -> np.ndarray:
        """The derivative at X = 0 as a row: the same formula at i = 0."""
        kernel_values, _ = self._deriv_parts
        return self._fold(kernel_values, self._deriv_closure(np.zeros(1, dtype=int)), 0, 1)[0]

    def apply(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(H omega, D omega)``, one row block of each operator at a time."""
        hw, dw = np.empty(self.size), np.empty(self.size)
        for b in _row_blocks(self.size):
            hw[b] = self.hilbert_rows(b) @ omega
            dw[b] = self.deriv_rows(b) @ omega
        return hw, dw

    def check_profile(self, omega: np.ndarray) -> None:
        if omega.shape != (self.size,):
            raise ValueError("omega must be sampled on the problem grid")
        edge = abs(omega[-1] * self.x[-1])
        if not np.isfinite(edge) or edge > 4.0:
            raise ValueError(
                f"tail too large: |X*Omega| = {edge:.3g} at the grid edge "
                "(bound 4); the profile must decay like 1/X")


@dataclass
class ProfileSolution:
    """A Newton result; ``step_norm`` is the max-norm of the last correction
    over its Omega and lam parts (0 when no step was taken)."""

    omega: np.ndarray
    lam: float
    residual: float
    iterations: int
    converged: bool
    step_norm: float


def profile_residual(omega: np.ndarray, lam: float,
                     problem: ProfileProblem) -> np.ndarray:
    """Pointwise residual Omega + lam*X*Omega' - Omega*H(Omega)."""
    omega = np.asarray(omega, dtype=np.float64)
    problem.check_profile(omega)
    hw, dw = problem.apply(omega)
    return omega + lam * problem.x * dw - omega * hw


def linearized_operator(omega: np.ndarray, lam: float, problem: ProfileProblem,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Frechet derivative of the residual, and the residual itself.

    Returns ``(A, col, res)`` where ``A`` acts on profile perturbations,
    ``col`` is the derivative with respect to the scaling rate, i.e.
    ``X * Omega'``, and ``res`` is :func:`profile_residual` at (omega, lam),
    bit for bit, from the same row blocks (but unchecked).
    ``A = I + lam X D - diag(H Omega) - Omega H`` is written into ``out``
    (any size-by-size float64 view) when given, else
    into a new array, one row block of both operators at a time; no other
    size-by-size array is made.  Adding ``0.0`` to every entry gives the
    signed zeros that adding the identity would.
    """
    omega = np.asarray(omega, dtype=np.float64)
    size = problem.size
    a = np.empty((size, size)) if out is None else out
    hw, dw = np.empty(size), np.empty(size)
    for b in _row_blocks(size):
        d = problem.deriv_rows(b)
        dw[b] = d @ omega
        ab = np.multiply(lam * problem.x[b, None], d, out=a[b])
        ab += 0.0
        del d  # one block of operator rows is alive at a time
        hm = problem.hilbert_rows(b)
        hw[b] = hm @ omega
        diag = np.arange(b.stop - b.start)
        ab[diag, diag + b.start] = (ab[diag, diag + b.start] + 1.0) - hw[b]
        hm *= omega[b, None]
        ab -= hm
        del hm
    return a, problem.x * dw, omega + lam * problem.x * dw - omega * hw


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
    # the operator parts first, so that the temporaries of their build and
    # the bordered matrix are never alive together
    norm_row, _ = problem.slope_row, problem._hilbert_parts
    bordered = np.zeros((problem.size + 1, problem.size + 1))
    bordered[-1, :-1] = norm_row
    step_norm = 0.0
    # one pass of row blocks per iterate, whose linearization gives its
    # residual; the last pass only measures
    for k in range(max_iter + 1):
        problem.check_profile(omega)
        _, col, res = linearized_operator(omega, lam, problem, out=bordered[:-1, :-1])
        defect = norm_row @ omega + 4.0
        rnorm = max(float(np.max(np.abs(res))), abs(defect))
        if rnorm < tol or k == max_iter:
            return ProfileSolution(omega, lam, rnorm, k, bool(rnorm < tol), step_norm)
        bordered[:-1, -1] = col
        rhs = np.concatenate([-res, [-defect]])
        try:
            step = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"Hypothesis 1 fails at iterate {k + 1}: "
                f"singular bordered linearization ({exc})") from exc
        err = np.linalg.norm(bordered @ step - rhs)
        if not np.isfinite(err) or err > 1e-6 * max(np.linalg.norm(rhs), 1e-300):
            raise RuntimeError(
                f"Hypothesis 1 fails at iterate {k + 1}: bordered linearization "
                f"is numerically singular (solve defect {err:.3g})")
        step_norm = float(np.max(np.abs(step)))
        omega = omega + step[:-1]
        lam = lam + step[-1]


def outgoing_check(u_star, lam_star: float, x: np.ndarray | None = None) -> dict:
    """Check that rescaled characteristics leave every annulus outward.

    The rescaled trajectory field is ``lam*X + U(X)``; outward transport
    at rate ``c`` means ``(lam*X + U(X)) * X / X^2 >= c`` away from the
    origin, and the check certifies c > 0.  ``u_star`` is None (no
    corrector drift) or a callable of X.
    """
    if x is None:
        x = ProfileProblem().x
    x = np.asarray(x, dtype=np.float64)
    xs = x[x != 0.0]
    uv = np.zeros_like(xs) if u_star is None else np.asarray(u_star(xs), dtype=np.float64)
    c = float(np.min(lam_star + uv / xs))
    return {"certified": bool(c > 0.0), "c_estimate": c}


# -- weighted coercivity certificate near a degenerate boundary ---------------


@dataclass(frozen=True)
class WeightedSpaceParams:
    """Weight exponent and boundary-layer width for the coercivity check."""

    N: int = 8
    delta: float = 0.1

    def __post_init__(self) -> None:
        if self.N < 4:
            raise ValueError("weight exponent N must be at least 4")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")


@dataclass
class OperatorDecomposition:
    """Coercive-plus-finite-rank split of the conjugated transport operator on
    the grid ``x``, by the eigenvalues of its symmetric part: ``rank`` of
    them are nonpositive and ``c_coercive`` is the least positive one."""

    x: np.ndarray
    rank: int
    c_coercive: float
    c_inner: float
    certified: bool


# Gauss-Legendre nodes of the boundary-layer pairings in lemma_decomposition_check,
# and its geometric grid: _LEMMA_GRID_POINTS nodes x = _LEMMA_GRID_RATIO**-j up to 1
_LEMMA_NODES = 64
_LEMMA_GRID_POINTS, _LEMMA_GRID_RATIO = 400, 1.1


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

    m = _LEMMA_GRID_POINTS
    x = _LEMMA_GRID_RATIO ** -(np.arange(m)[::-1].astype(np.float64))
    uv = np.array([u(t) for t in x])
    gv = np.array([g(t) for t in x])
    pot = gv + n_half * uv / x

    q = np.zeros(m)
    q[1:-1] = 0.5 * (x[2:] - x[:-2])
    q[0] = 0.5 * (x[1] - x[0])
    q[-1] = 0.5 * (x[-1] - x[-2])
    rq = np.sqrt(q)

    # the three-point derivative stencil: rows, columns and weights of its
    # nonzero pattern, one-sided in the first and last rows
    a, b, c = x[:-2], x[1:-1], x[2:]
    j = np.arange(1, m - 1)
    rows = np.concatenate([[0, 0, 0], j, j, j, [m - 1, m - 1, m - 1]])
    cols = np.concatenate([[0, 1, 2], j - 1, j, j + 1, [m - 3, m - 2, m - 1]])
    a0, b0, c0 = x[0], x[1], x[2]
    a1, b1, c1 = x[-3], x[-2], x[-1]
    stencil = np.concatenate([
        [(2 * a0 - b0 - c0) / ((a0 - b0) * (a0 - c0)), (a0 - c0) / ((b0 - a0) * (b0 - c0)),
         (a0 - b0) / ((c0 - a0) * (c0 - b0))],
        (b - c) / ((a - b) * (a - c)),
        (2 * b - a - c) / ((b - a) * (b - c)),
        (b - a) / ((c - a) * (c - b)),
        [(c1 - b1) / ((a1 - b1) * (a1 - c1)), (c1 - a1) / ((b1 - a1) * (b1 - c1)),
         (2 * c1 - a1 - b1) / ((c1 - a1) * (c1 - b1))]])
    # T = diag(u) D + diag(pot), conjugated by the quadrature weights,
    # entry by entry on the pattern (the dense sum adds 0.0 off the diagonal)
    t_vals = uv[rows] * stencil + np.where(rows == cols, pot[rows], 0.0)
    sym = np.zeros((m, m))
    sym[rows, cols] = (rq[rows] * t_vals) / rq[cols]
    # its symmetric part, on the pattern and its transpose
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    sym[rows, cols] = 0.5 * (sym[rows, cols] + sym[cols, rows])
    mu = np.linalg.eigvalsh(sym)
    neg = mu <= 0.0
    rank = int(np.count_nonzero(neg))
    c_coercive = float(mu[~neg].min()) if np.any(~neg) else 0.0
    certified = c_inner > 0.0 and c_coercive > 0.0
    return OperatorDecomposition(x=x, rank=rank, c_coercive=c_coercive, c_inner=c_inner,
                                 certified=certified)
