"""Invariant-torus solver for near-integrable Hamiltonians on T^n x R^n.

The Hamiltonian is Taylor data in the action y,
    h(x, y) = a0(x) + <a1(x), y> + 1/2 <Q(x) y, y> + 1/6 C(x)[y, y, y],
and the unknown is an embedding u: theta -> (theta + ux(theta), uy(theta))
whose image is invariant with flow conjugate to the rotation omega. The solver
iterates the para-inverse form of the para-homological equation: each step
solves the linear para-homological system in the moving frame built from
(N, M, S) and feeds back the sum of the two smoothing remainders, evaluated
as one literal difference of fully computed expressions.

Sign conventions are fixed by the exact linearization identity
    A M - (omega.d) M = M [[0, S], [0, 0]] + B[F]   (+ terms linear in F),
which forces the commutator orientation [A, J] = AJ - JA in the torsion and
in particular S = -Q0 at the flat torus of an integrable Hamiltonian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCutoff, level_bound, make_cutoff
from .errors import (
    DegenerateEmbeddingError,
    EnergyDriftError,
    NonContractiveError,
    NonFiniteError,
    SingularAverageError,
)
from .paraprod import ParaOpHandle, low_pass_bytes, para_invert_with_handle
from .reporting import SolveReport, picard
from .smalldiv import FrequencyVector, omega_directional_inverse, remove_mean
from .spectral import SpectralField, TorusGrid, analyze, compress, real_terms
from .spectral import synthesize, warp_samples

TORUS_COLUMNS = ["iter", "increment_hs", "residual_sup", "residual_hs", "xi_norm", "mu_norm"]

MODES = ("thm1", "thm2")  # the first is the CLI default

_INNER_TOL = 1e-12  # relative residual of the Neumann para-inversions in the linear solve
_CHECK_TOL = 1e-9  # relative defect allowed in the linear solve's self-check
_ENERGY_TOL = 1e-6  # relative energy drift allowed along the flow oracle's orbit


def _xi(xi, n: int) -> np.ndarray:
    """The counterterm xi as n floats; None is no counterterm."""
    out = np.zeros(n) if xi is None else np.asarray(xi, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"xi needs shape ({n},), got shape {out.shape}")
    return out


def _apply_J(v: np.ndarray) -> np.ndarray:
    """J v = (v^y; -v^x) for samples with 2n leading components, J = [[0, I], [-I, 0]]."""
    return np.concatenate([v[len(v) // 2 :], -v[: len(v) // 2]])


@dataclass
class HamiltonianData:
    """Taylor data of h in the action variable, truncated at cubic order.

    The m-th Taylor coefficient (a0, a1, Q, cubic) is one SpectralField with m component axes
    of length n, symmetric in them; cubic may be None.
    """

    a0: SpectralField
    a1: SpectralField
    Q: SpectralField
    cubic: SpectralField | None = None

    def __post_init__(self):
        for name in ("a0", "a1", "Q", "cubic")[: self.degree + 1]:
            f = getattr(self, name)
            if not isinstance(f, SpectralField):
                raise TypeError(f"{name} must be a SpectralField, got {type(f).__name__}")
            self.grid.require_same(f.grid)
            if not np.all(np.isfinite(f.coeffs)):
                raise NonFiniteError(f"{name} has a non-finite coefficient")
        if self.a0.shape != () or self.a1.shape != (self.grid.dim,):
            raise ValueError(f"a0 must be scalar and a1 have {self.grid.dim} components on this "
                             f"grid, got shapes {self.a0.shape} and {self.a1.shape}")
        for m, name in enumerate(("Q", "cubic")[: self.degree - 1], start=2):
            f = getattr(self, name)
            if f.shape != (self.n,) * m:
                raise ValueError(f"{name} must be {' x '.join('n' * m)}")
            sym = max((f - SpectralField(f.grid, np.swapaxes(f.coeffs, a, a + 1))).sup_norm()
                      for a in range(m - 1))  # adjacent axis swaps
            if sym > 1e-12 * max(1.0, f.sup_norm()):
                raise ValueError(f"{name} is not symmetric: defect {sym:.3e}")

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @property
    def degree(self) -> int:
        """The degree of h in y: 2, or 3 with a cubic term."""
        return 2 if self.cubic is None else 3

    @property
    def grid(self) -> TorusGrid:
        return self.a0.grid

    def gradient(self, m: int, order: int = 0) -> SpectralField:
        """order-th gradient of the m-th Taylor coefficient, one axis appended per derivative.

        Computed on each call, one coefficient multiply per derivative: a kept gradient would
        hold a mostly zero coefficient stack through every step.
        """
        f = (self.a0, self.a1, self.Q, self.cubic)[m]
        for _ in range(order):
            f = f.jacobian()
        return f


def _concat(x: SpectralField, y: SpectralField) -> SpectralField:
    """(x; y): the components of y appended to those of x."""
    x.grid.require_same(y.grid)
    return SpectralField(x.grid, np.concatenate([x.coeffs, y.coeffs]))


class TorusEmbedding:
    """theta -> (theta + ux(theta), uy(theta)), held as one 2n-component displacement (ux; uy).

    ux and uy each need n = grid.dim components."""

    def __init__(self, ux: SpectralField, uy: SpectralField):
        if not ux.shape == uy.shape == (ux.grid.dim,):
            raise ValueError(f"ux and uy need equally many components, {ux.grid.dim} on this "
                             f"grid, got shapes {ux.shape} and {uy.shape}")
        self.w = _concat(ux, uy)

    @classmethod
    def flat(cls, grid: TorusGrid) -> "TorusEmbedding":
        return cls.from_displacement(SpectralField.constant(grid, np.zeros(2 * grid.dim)))

    @classmethod
    def from_displacement(cls, w: SpectralField) -> "TorusEmbedding":
        return cls(*_split(w))

    @property
    def grid(self) -> TorusGrid:
        return self.w.grid

    @property
    def n(self) -> int:
        return self.w.shape[0] // 2

    @property
    def ux(self) -> SpectralField:
        return self.w[: self.n]

    @property
    def uy(self) -> SpectralField:
        return self.w[self.n :]

    def displacement(self) -> SpectralField:
        """(ux, uy) as one 2n-component field (u - zeta_0)."""
        return self.w


@dataclass
class KamSolution:
    u: TorusEmbedding
    xi: np.ndarray
    mu: np.ndarray
    report: SolveReport


# --- pointwise evaluation tables -------------------------------------------


def _warped(h: HamiltonianData, u: TorusEmbedding, order: int) -> dict:
    """{(m, o): T(m, o)}: the Taylor gradients T(m, o) = h.gradient(m, o) that the order-th
    derivative of h in (x, y) reads, o <= order <= m + o, composed with the x-warp theta + ux.

    Their components that vary in x go through one warp_samples call; a T(m, o) whose components
    are all constant in x is a read-only, zero-stride view of its means. Each gradient's
    coefficients are read one at a time, so no stack of every key's coefficients is held.
    """
    g, n = h.grid, h.n
    keys = [(m, o) for m in range(h.degree + 1) for o in range(order + 1) if m + o >= order]
    means, varies, rows = [], [], []
    for k in keys:
        c = h.gradient(*k).coeffs.reshape(-1, *g.mode_shape)
        mean = c[(slice(None),) + g.mean_index]  # its != 0 counts NaN, as count_nonzero does
        varies.append(np.count_nonzero(c.reshape(len(c), -1), axis=1) > (mean != 0))
        means.append(mean.real.copy())  # no view keeps c alive
        rows.append(c[varies[-1]])  # a component whose only nonzero coefficient is its mean
    moving = np.concatenate(rows)
    del rows
    if len(moving) and np.any(u.ux.coeffs):  # theta + ux: the mesh added into ux's samples
        pts = u.ux.samples()
        for p, axis in zip(pts, g.point_mesh):
            p += axis
        moving = warp_samples(SpectralField(g, moving), pts)
        del pts
    elif len(moving):
        moving = SpectralField(g, moving).samples()
    out = {}
    for k, c, v in zip(keys, means, varies):
        c = c.reshape((-1,) + (1,) * g.dim)
        if v.any():
            p = c + np.zeros(g.point_shape)
            used = np.count_nonzero(v)
            p[v], moving = moving[:used], moving[used:]
        else:  # all constant: a read-only, zero-stride view of the means
            p = np.broadcast_to(c, c.shape[:1] + g.point_shape)
        out[k] = p.reshape((n,) * sum(k) + g.point_shape)
    return out


def _taylor(T, degree: int, order: int, y: np.ndarray, keep: int) -> np.ndarray:
    """sum_{m >= keep} T(m, order)[y^(m - keep)] / (m - keep)!, m up to degree.

    T(m, order) is the order-th x-gradient of the m-th Taylor coefficient of h; its last m - keep
    Taylor axes are contracted with y. (order, keep) = (0, 1), (1, 0), (1, 1), (0, 2), (2, 0) and
    (0, 0) give grad_y h, grad_x h, D_x grad_y h, D_y grad_y h, D_x grad_x h and h itself. Works
    on collocation samples (trailing point axes) and on single points alike.
    """
    out, d = T(keep, order), "lm"[:order]
    for m in range(keep + 1, degree + 1):
        t = "ijk"[:m]
        ys = "".join(f",{c}..." for c in t[keep:])
        term = np.einsum(f"{t}{d}...{ys}->{t[:keep]}{d}...", T(m, order), *[y] * (m - keep))
        out = out + term / math.factorial(m - keep)
    return out


def _xh(T, degree: int, y: np.ndarray) -> np.ndarray:
    """X_h = (grad_y h; -grad_x h) from the Taylor gradients T(m, order) at actions y."""
    return np.concatenate([_taylor(T, degree, 0, y, 1), -_taylor(T, degree, 1, y, 0)])


def _xh_samples(h: HamiltonianData, u: TorusEmbedding) -> np.ndarray:
    """Samples of X_h along u: (grad_y h; -grad_x h) at (theta + ux, uy)."""
    warped = _warped(h, u, 1)
    return _xh(lambda m, o: warped[(m, o)], h.degree, u.uy.samples())


def hamiltonian_vector_field(h: HamiltonianData, u: TorusEmbedding) -> SpectralField:
    """X_h evaluated along the embedding u (2n components)."""
    return analyze(u.grid, _xh_samples(h, u))


def _jacobian_samples(h: HamiltonianData, u: TorusEmbedding) -> np.ndarray:
    """Samples of A[u] = (DX_h)(u), shape (2n, 2n, *grid), written block by block into one array."""
    warped = _warped(h, u, 2)
    T, d, n, uy = (lambda m, o: warped[(m, o)]), h.degree, h.n, u.uy.samples()
    A = np.empty((2 * n, 2 * n) + u.grid.point_shape)
    A[:n, :n] = _taylor(T, d, 1, uy, 1)  # D_x grad_y h
    A[:n, n:] = _taylor(T, d, 0, uy, 2)  # D_y grad_y h
    # the lower row is -D(grad_x h), whose y-block is the transpose of the upper x-block
    np.negative(_taylor(T, d, 2, uy, 0), out=A[n:, :n])
    np.negative(A[:n, :n].swapaxes(0, 1), out=A[n:, n:])
    return A


def jacobian_A(h: HamiltonianData, u: TorusEmbedding) -> SpectralField:
    return analyze(u.grid, _jacobian_samples(h, u))


def error_fields(h: HamiltonianData, omega) -> tuple:
    """(e0, e1): invariance defect X_h(zeta0) - (omega; 0), integrability defect Q - Avg Q."""
    e0 = hamiltonian_vector_field(h, TorusEmbedding.flat(h.grid))
    e0 = e0 - np.concatenate([np.asarray(omega, dtype=float), np.zeros(h.n)])
    return e0, h.Q - h.Q.mean()


# --- frame and torsion ------------------------------------------------------

_CHUNK = 4096  # collocation points per chunk of the frame, torsion and B sample algebra


def _point_chunks(dim: int, *arrays):
    """Per chunk of collocation points, a view of each array on those points.

    The last dim axes of every array are its point axes. A chunk is a slab of whole rows along
    the first of them, _CHUNK points or one row if a row is longer, so a write to a chunk's view
    reaches the array, and a grid of one chunk is seen whole. Each point's arithmetic is the same
    as on the whole arrays, so chunked results are the same to the bit.
    """
    shape = arrays[0].shape[arrays[0].ndim - dim :]
    rows = max(1, _CHUNK // math.prod(shape[1:]))
    for lo in range(0, shape[0], rows):
        index = (Ellipsis, slice(lo, lo + rows)) + (slice(None),) * (dim - 1)
        yield [a[index] for a in arrays]


def solve_bytes(grid: TorusGrid) -> int:
    """Bytes a torus solve on grid is estimated to hold at once.

    One (2n x 2n) low-pass stack counted up to dyadic.level_bound(K) (paraprod.low_pass_bytes),
    in 1-D an empty level above the handle's, kept while measured peaks run above the estimate,
    plus the full-size collocation samples of a step: P = du (2n x n), N^{-1} (n x n), M, M^{-1}
    and B (2n x 2n each), one real array of the 4K collocation grid per component. The algebra
    that forms the samples runs in chunks of _CHUNK points: these outputs grow with the grid.
    """
    n = grid.dim
    samples = (2 * n * n + n * n + 3 * (2 * n) ** 2) * math.prod(grid.point_shape) * 8
    return low_pass_bytes(grid, (2 * n,) * 2, level_bound(grid.max_mode)) + samples


def _embedding_jacobian_samples(u: TorusEmbedding) -> np.ndarray:
    """d(embedding)/d(theta) with the identity included: shape (2n, n, *grid)."""
    P = u.displacement().jacobian().samples()
    P[np.arange(u.n), np.arange(u.n)] += 1.0
    return P


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of component-major samples (matrix axes first)."""
    return np.einsum("ab...,bc...->ac...", A, B)


def _guard(det: np.ndarray, what: str) -> np.ndarray:
    """det, unless min |det| < 1e-12: then DegenerateEmbeddingError, before any division by it."""
    if not (worst := np.min(np.abs(det))) >= 1e-12:  # NaN counts as singular
        raise DegenerateEmbeddingError(f"{what} nearly singular: min |det| = {worst:.3e}")
    return det


def _inverse(A: np.ndarray, what: str) -> np.ndarray:
    """A^{-1} of n x n samples A (n <= 3, matrix axes first) by the written-out adjugate."""
    if len(A) == 1:
        adj = np.ones_like(A)
    elif len(A) == 2:
        adj = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    else:  # cofactors: column j of adj A is the cross product of rows j + 1 and j + 2 (mod 3)
        adj = np.array([[A[j - 2, i - 2] * A[j - 1, i - 1] - A[j - 1, i - 2] * A[j - 2, i - 1]
                         for j in range(3)] for i in range(3)])
    return adj / _guard(np.einsum("j...,j...->...", A[0], adj[:, 0]), what)  # (A adj A)[0, 0]


def _frame_samples(u: TorusEmbedding):
    """Samples (P, N, M, M^{-1}) of du and the frame M = (P, J P N), all component-major.

    The closed form of the approximately symplectic frame (de la Llave, Gonzalez, Jorba &
    Villanueva, Nonlinearity 18, 2005): with L = P^T J P and G = N L N (both skew),
    M^T J M = K = [[L, -I], [I, G]], so M^{-1} = K^{-1} M^T J with K^{-1} = [[G X, Y],
    [-X, L Y]], X = (I + L G)^{-1} and Y = (I + G L)^{-1} = X^T. For skew L, G and n <= 3,
    det(I + L G) = s^2 and X = I - L G / s with s = 1 + tr(L G) / 2; the guard reads |s| = |det M|.
    Only du and the four outputs are full-size: the rest runs over chunks of points, each point
    guarded once by each guard before any division by its determinant.
    """
    n, P = u.n, _embedding_jacobian_samples(u)
    Ninv, M, Minv = (np.empty((r, r) + P.shape[2:]) for r in (n, 2 * n, 2 * n))
    for p, n_out, m_out, minv_out in _point_chunks(u.grid.dim, P, Ninv, M, Minv):
        JP = _apply_J(p)
        N = _inverse(np.einsum("am...,an...->mn...", p, p), "embedding Gram matrix")
        L = np.einsum("am...,an...->mn...", p, JP)
        G = _mm(_mm(N, L), N)
        LG = _mm(L, G)
        s = _guard(1 + np.einsum("aa...->...", LG) / 2, "frame matrix M")
        X = np.eye(n)[(...,) + (None,) * u.grid.dim] - LG / s
        Y = X.swapaxes(0, 1)  # (I + G L)^{-1}
        Kinv = np.concatenate([np.concatenate([_mm(G, X), Y], 1), np.concatenate([-X, _mm(L, Y)], 1)])
        n_out[...] = N
        m_out[:, :n], m_out[:, n:] = p, _mm(JP, N)
        minv_out[...] = _mm(Kinv, -_apply_J(m_out).swapaxes(0, 1))  # M^T J = -(J M)^T
    return P, Ninv, M, Minv


def _update(ufunc, B: np.ndarray, *factors) -> None:
    """B = ufunc(B, pointwise matrix product of the factors) in place, over chunks of points."""
    for b, *fs in _point_chunks(B.ndim - 2, B, *factors):
        ufunc(b, functools.reduce(_mm, fs), out=b)


def frame(u: TorusEmbedding) -> tuple:
    """(N, M, M_inv) as matrix fields; N = (du^T du)^{-1}, M = (du, J du N), and M_inv the closed
    form K^{-1} M^T J, K = M^T J M, of _frame_samples (de la Llave et al., Nonlinearity 18, 2005)."""
    return tuple(analyze(u.grid, s) for s in _frame_samples(u)[1:])


def _torsion_samples(A: np.ndarray, P: np.ndarray, Ninv: np.ndarray) -> np.ndarray:
    """Samples of S = N P^T [A, J] P N = N (P^T A J P + (J P)^T A P) N from A, P = du and N,
    over chunks of points."""
    S = np.empty(Ninv.shape)
    for a, p, N, out in _point_chunks(A.ndim - 2, A, P, Ninv, S):
        JP = _apply_J(p)
        inner = np.einsum("am...,an...->mn...", p, _mm(a, JP))
        out[...] = _mm(_mm(N, inner + np.einsum("am...,an...->mn...", JP, _mm(a, p))), N)
    return S


def torsion_S(h: HamiltonianData, u: TorusEmbedding) -> SpectralField:
    """Torsion S[u] = N (du)^T [A, J] (du) N with [A, J] = AJ - JA.

    The orientation is pinned by the exact linearization identity; it gives
    S = -Q0 at the flat torus of an integrable Hamiltonian.
    """
    A = _jacobian_samples(h, u)
    return analyze(u.grid, _torsion_samples(A, *_frame_samples(u)[:2]))


def b_matrices(E: SpectralField, u: TorusEmbedding) -> SpectralField:
    """Assembled error-frame matrix B[E] = (B1 | B2 + B3), linear in dE."""
    return analyze(u.grid, _b_samples(E, *_frame_samples(u)[:2]))


def _b_samples(E: SpectralField, P: np.ndarray, Ninv: np.ndarray) -> np.ndarray:
    """Samples of B[E] = (dE | J dE N + J P N (N (D^T - D) + D N)), D = P^T dE, from P and N."""
    if E.shape != (2 * P.shape[1],):
        raise ValueError("E must have 2n components")
    dE = E.jacobian().samples()
    D = np.einsum("am...,an...->mn...", P, dE)
    B3 = _mm(_mm(_apply_J(P), Ninv), _mm(Ninv, np.swapaxes(D, 0, 1) - D) + _mm(D, Ninv))
    return np.concatenate([dE, _mm(_apply_J(dE), Ninv) + B3], axis=1)  # (B1 | B2 + B3), B1 = dE


# --- linear para-homological solve -----------------------------------------


def _split(v: SpectralField) -> tuple:
    return v[: v.shape[0] // 2], v[v.shape[0] // 2 :]


def _apply_torsion_block(HS: ParaOpHandle, v: SpectralField) -> SpectralField:
    """(0 T_S; 0 0) v = (T_S v^y; 0)."""
    top = HS.apply(_split(v)[1])
    return _concat(top, SpectralField(top.grid, np.zeros_like(top.coeffs)))


def _apply_L(HM, HMinv, HS, w: SpectralField, omega_arr: np.ndarray) -> SpectralField:
    """L w = T_M ((0 T_S; 0 0) - omega.d) T_{M^-1} w, the para-homological operator."""
    w1 = HMinv.apply(w)
    return HM.apply(_apply_torsion_block(HS, w1) - w1.omega_derivative(omega_arr))


def linear_para_homological_solve(HM: ParaOpHandle, HMinv: ParaOpHandle, HS: ParaOpHandle,
                                  f: SpectralField, mode: str, omega: FrequencyVector):
    """Solve the linear para-homological system for (v, xi, mu).

    HM, HMinv and HS are the handles of the frame M, its inverse and the
    torsion S at the current embedding. Conjugating by T_M and T_{M^{-1}}
    reduces the operator to block-triangular form; the y-row is solved first,
    the x-row is mean-balanced (through (Avg S)^{-1} in thm1 mode, through the
    free counterterm xi in thm2 mode), and the constants transfer back through
    the exact relation T_M(const) = Avg(M) const. The solution is
    self-certifying: the assembled equation is re-applied and must match f to
    _CHECK_TOL relative.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = f.shape[0] // 2
    avgM, avgS = HM.avg, HS.avg
    if mode == "thm1" and np.linalg.cond(avgS) > 1e12:
        raise SingularAverageError("Avg S is singular: thm1 requires invertible Avg Q")

    f1 = para_invert_with_handle(HM, f, tol=_INNER_TOL)
    f1x, f1y = _split(f1)
    mu1 = f1y.mean()

    v1y = -1.0 * omega_directional_inverse(remove_mean(f1y), omega)
    if mode == "thm1":
        xi1 = np.linalg.solve(avgM[:n, :n], -avgM[:n, n:] @ mu1)
        mu = avgM[n:, :n] @ xi1 + avgM[n:, n:] @ mu1
        xi = np.zeros(n)
        # the mean of v^y balances the mean of the x-row through (Avg S)^{-1}
        v1y = v1y + np.linalg.solve(avgS, f1x.mean() - xi1 - HS.apply(v1y).mean())
    rhs_x = f1x - HS.apply(v1y)
    v1x = -1.0 * omega_directional_inverse(remove_mean(rhs_x), omega)
    if mode == "thm2":
        const = avgM @ np.concatenate([rhs_x.mean(), mu1])
        xi, mu = const[:n], const[n:]

    v = para_invert_with_handle(HMinv, _concat(v1x, v1y), tol=_INNER_TOL)

    # self-check: substitute into the para-homological equation
    lhs = _apply_L(HM, HMinv, HS, v, np.asarray(omega, dtype=float)) + np.concatenate([xi, mu])
    fnorm = f.l2_norm()
    defect = (lhs - f).l2_norm()
    if fnorm > 0 and defect > _CHECK_TOL * fnorm:
        raise NonContractiveError(
            f"linear para-homological self-check failed: {defect:.3e} > "
            f"{_CHECK_TOL:.1e} * {fnorm:.3e}"
        )
    return v, np.asarray(xi), np.asarray(mu)


# --- nonlinear assembly ------------------------------------------------------


def assemble_rhs(h: HamiltonianData, u: TorusEmbedding, Xh_u: SpectralField, e0: SpectralField,
                 Xh_zeta: SpectralField, omega: FrequencyVector, cut: DyadicCutoff) -> tuple:
    """(-e0 - R(w), (T_M, T_{M^-1}, T_S)): the Picard step's right-hand side at w = u - zeta0,
    Xh_u = X_h(u), and the handles its linear solve takes.

    R(w) = X_h(u) - X_h(zeta0) - (omega.d) w - T_B w - L w, B = A - M (0 S; 0 0) M^{-1} +
    M (omega.d M^{-1}), is the para-linearization remainder X_h(u) - X_h(zeta0) - T_A w plus the
    composition remainder [T_{M(0 S;0 0)M^-1} - T_{M(omega.d M^-1)} - (omega.d)] w - L w, as one
    literal difference. Each frame and Jacobian sample array, and every view of it, goes after
    its last use, all before the single-use T_B; the handles of M, M^{-1} and S come after T_B.
    """
    g, n, w = u.grid, u.n, u.displacement()
    omega_arr = np.asarray(omega, dtype=float)
    P, Ninv, M_s, Minv_s = _frame_samples(u)
    P = M_s[:, :n]  # the same samples, so du's own array goes
    B = _jacobian_samples(h, u)  # A, made into B in place
    S = analyze(g, _torsion_samples(B, P, Ninv))
    del Ninv
    Minv = analyze(g, Minv_s)
    _update(np.subtract, B, P, S.samples(), Minv_s[n:])  # A itself is not needed again
    del Minv_s
    M = analyze(g, M_s)
    _update(np.add, B, M_s, Minv.omega_derivative(omega_arr).samples())
    del P, M_s
    B = analyze(g, B)  # the samples go before the handle's low-passes are built
    TBw = ParaOpHandle(B, cut).apply(w)
    handles = tuple(ParaOpHandle(sym, cut) for sym in (M, Minv, S))
    Lw = _apply_L(*handles, w, omega_arr)
    return -1.0 * e0 - (Xh_u - Xh_zeta - w.omega_derivative(omega_arr) - TBw - Lw), handles


def residual_torus(Xh: SpectralField, u: TorusEmbedding, xi, omega) -> tuple:
    """F(h_xi, u) = X_h(u) + (xi; 0) - (omega.d) u from Xh = X_h(u), with sup and L2 norms."""
    omega_arr, zeros = np.asarray(omega, dtype=float), np.zeros(u.n)
    field = Xh + np.concatenate([_xi(xi, u.n), zeros])
    field = field - np.concatenate([omega_arr, zeros]) - u.displacement().omega_derivative(omega_arr)
    return field, field.sup_norm(), field.l2_norm()


def counterterm_check(F: SpectralField, u: TorusEmbedding, mu) -> float:
    """Defect of mu = Avg((du^y)^T F^x - (du^x)^T (F^y - mu)) for the residual field F."""
    mu = np.asarray(mu, dtype=float)
    F = F.samples()
    F[u.n :] -= mu.reshape((u.n,) + (1,) * u.grid.dim)  # F^y - mu
    # (du^y)^T F^x - (du^x)^T (F^y - mu) = -(du)^T J F
    integrand = -np.einsum("am...,a...->m...", _embedding_jacobian_samples(u), _apply_J(F))
    return float(np.max(np.abs(mu - integrand.mean(axis=u.grid.axes))))


def neumann_certificate(E: SpectralField, u: TorusEmbedding, cut: DyadicCutoff, s: float) -> float:
    """kappa = |T_{B[E] M^{-1}} (u - zeta0)|_{H^s} / |E|_{H^s} for the measured E.

    E is the residual F(h_xi, u) plus the counterterm (0; mu).
    """
    denom = E.sobolev_norm(s)
    if denom == 0.0:
        return 0.0
    P, Ninv, M, Minv = _frame_samples(u)  # taken once for B[E] and M^{-1}
    del M
    Minv = analyze(u.grid, Minv)
    B = analyze(u.grid, _b_samples(E, P, Ninv))
    del P, Ninv
    return ParaOpHandle(B.matmul(Minv), cut).apply(u.displacement()).sobolev_norm(s) / denom


def solve_torus(
    h: HamiltonianData,
    omega: FrequencyVector,
    mode: str,
    s: float,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> KamSolution:
    """Picard iteration of the para-inverse equation from zeta0, run by reporting.picard.

    Each step feeds assemble_rhs through the linear para-homological solve and
    replaces u by zeta0 + v; (xi, mu) come from the latest linear solve. Between
    steps the driver holds only (u, X_h(u), its truncation tail, xi, mu): a step's
    samples and handles are locals of the calls that made them. The
    iteration stops when the H^s increment of the embedding drops below tol;
    integrable data stop in the first step with u = zeta0 and xi = mu = 0.
    The driver raises MaxIterExceededError or NonFiniteError with the partial
    report attached.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not isinstance(omega, FrequencyVector):  # the summary reads its gamma and sigma
        raise TypeError(f"omega must be a FrequencyVector, got {type(omega).__name__}")
    if omega.certified_modes < h.grid.max_mode:
        raise ValueError(f"omega is certified on K = {omega.certified_modes}, "
                         f"below the grid's K = {h.grid.max_mode}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if mode == "thm1" and np.linalg.cond(h.Q.mean()) > 1e12:
        raise SingularAverageError("thm1 requires invertible Avg Q")
    cut = make_cutoff(h.grid)
    # zeta0 is built twice, so that no local keeps it once the first step is taken
    Xh_zeta, tails = analyze(h.grid, _xh_samples(h, TorusEmbedding.flat(h.grid)), return_tail=True)
    e0 = Xh_zeta - np.concatenate([np.asarray(omega, dtype=float), np.zeros(h.n)])  # zeta0's defect

    def step(state):
        u, Xh_u, _, _, _ = state
        rhs, handles = assemble_rhs(h, u, Xh_u, e0, Xh_zeta, omega, cut)
        v, xi, mu = linear_para_homological_solve(*handles, rhs, mode, omega)
        del handles  # released before the new iterate composes X_h
        new = TorusEmbedding.from_displacement(v)
        inc = (new.w - u.w).sobolev_norm(s)
        Xh_new, tails = analyze(new.grid, _xh_samples(h, new), return_tail=True)
        _, res_sup, res_hs = residual_torus(Xh_new, new, xi, omega)
        row = {"increment_hs": inc, "residual_sup": res_sup, "residual_hs": res_hs,
               "xi_norm": float(np.linalg.norm(xi)), "mu_norm": float(np.linalg.norm(mu))}
        return (new, Xh_new, float(np.max(tails)), xi, mu), row, "increment" if inc < tol else None

    (u, Xh_u, tail, xi, mu), report = picard(
        step, (TorusEmbedding.flat(h.grid), Xh_zeta, float(np.max(tails)), None, None),
        TORUS_COLUMNS, max_iter)
    disp = u.displacement()
    report.extras["u_minus_flat_hs"] = disp.sobolev_norm(s)
    report.extras["gamma"] = omega.gamma
    e0_strong = e0.sobolev_norm(s + 2 * omega.sigma + 0.1)  # strong norm, loss eps = 0.1
    report.extras["e0_strong_norm"] = float(e0_strong)
    if e0_strong > 0:
        report.extras["c2_empirical"] = disp.sobolev_norm(s) / (omega.gamma**2 * e0_strong)
    # the measured residual from the final iterate's X_h, composed once by its step
    F = residual_torus(Xh_u, u, xi, omega)[0]
    report.extras["kappa"] = neumann_certificate(F + np.concatenate([np.zeros(h.n), mu]), u, cut, s)
    report.extras["counterterm_defect"] = counterterm_check(F, u, mu)
    # truncation monitor: discarded tail energy of the composed vector field
    report.extras["xh_tail_energy"] = tail
    return KamSolution(u=u, xi=xi, mu=mu, report=report)


# --- independent flow verification ------------------------------------------

_COMPARE_BLOCK = 1000  # orbit points per block of the streamed comparison with u(theta0 + omega t)


def _point_terms(terms: list, grid: TorusGrid, shift: list):
    """Closure z = (x, y) -> shift + sum of c(x) prod_{a in ys} y_a in output r over the terms
    (output r, y indices ys of the monomial, Fourier coefficients c of its factor).

    The nonzero rows of the terms' stacked real_terms are kept, in list order. A call makes one
    real product with [cos(x.k) | sin(x.k) | 1] and sums the monomials on Python floats; it takes
    any sequence of 2n floats and returns a list.
    """
    n = grid.dim
    modes, mat = real_terms(SpectralField(grid, np.array([c for _, _, c in terms], dtype=complex)))
    keep = np.flatnonzero(np.any(mat != 0, axis=-1))
    mat, terms = mat[keep], [terms[i][:2] for i in keep.tolist()]
    phase, buf = np.empty(modes.shape[1]), np.ones(mat.shape[1])  # buf: [cos | sin | 1]
    cos_part, sin_part = np.split(buf[:-1], 2)

    def evaluate(z) -> list:
        np.dot(z[:n], modes, out=phase)
        np.cos(phase, out=cos_part)
        np.sin(phase, out=sin_part)
        out, y = list(shift), z[n:]
        for (r, ys), v in zip(terms, (mat @ buf).tolist()):
            for a in ys:
                v *= y[a]
            out[r] += v
        return out

    return evaluate


def _flow_closures(h: HamiltonianData, xi) -> tuple:
    """The flow oracle's point evaluators z -> X_{h_xi}(z) and z -> [h_xi(z)], h_xi = h + <xi, y>.

    One loop over the Taylor order m lists the terms of _point_terms: h = sum_m a_m[y^m] / m! with
    xi added to a_1 at k = 0, and X_h = (sum_m a_m[y^(m-1)] / (m-1)!; -sum_m (d_x a_m)[y^m] / m!)
    shifted by (xi; 0). Each output's terms run by Taylor order, then by the C order of their
    y indices."""
    g, n, d, xi = h.grid, h.n, h.degree, _xi(xi, h.n)
    energy, xh = [], []  # the terms of h and of X_h
    for m in range(d + 1):
        a_m = h.gradient(m).coeffs
        e = a_m / math.factorial(m)
        if m == 1:
            e[g.mean_index] += xi
        dx = -h.gradient(m, 1).coeffs / math.factorial(m)  # the x-derivative axis last
        for ys in np.ndindex((n,) * m):
            energy.append((0, ys, e[ys]))
            xh += [(n + i, ys, dx[ys + (i,)]) for i in range(n)]
            if m > 0:
                xh.append((ys[0], ys[1:], a_m[ys] / math.factorial(m - 1)))
    xh.sort(key=lambda term: term[0])  # stable: by output, then in the order listed
    return (_point_terms(xh, g, xi.tolist() + [0.0] * n),
            _point_terms(energy, g, [0.0]))


def flow_oracle(
    h: HamiltonianData, u: TorusEmbedding, xi, omega, theta0, T: float, dt: float
) -> float:
    """Max deviation of the RK4 orbit from z(0) = u(theta0) against u(theta0 + omega t).

    Independent invariance check: integrates the Hamiltonian ODE by RK4 with
    fixed step dt through the real terms of _flow_closures, its stages on Python
    floats, and compares each block of _COMPARE_BLOCK orbit points with the
    rotated embedding as soon as it is integrated, so memory does not grow with
    T/dt. T/dt must be finite and xi of shape (n,). Raises EnergyDriftError if
    the initial energy is not finite or the relative energy drift, checked
    every 200 steps and at the last step, exceeds _ENERGY_TOL.
    """
    n, omega_arr = u.n, np.asarray(omega, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if not (0 < dt < math.inf and T >= 0 and math.isfinite(T / dt)):  # NaN fails each test
        raise ValueError(f"need finite T >= 0 and dt > 0 and T / dt, got T={T!r}, dt={dt!r}")
    if theta0.shape != (n,):
        raise ValueError(f"theta0 needs {n} entries, got shape {theta0.shape}")
    rhs, energy = _flow_closures(h, xi)
    steps = int(round(T / dt))
    w_c = compress(u.displacement())

    def deviation(lo: int, pts: np.ndarray) -> float:
        """Max distance of the orbit points of steps lo, lo + 1, ... from u(theta0 + omega t)."""
        thetas = theta0[None, :] + (dt * np.arange(lo, lo + len(pts)))[:, None] * omega_arr[None, :]
        ref = synthesize(w_c, thetas).T
        ref[:, :n] += thetas
        return np.max(np.sqrt(np.sum((pts - ref) ** 2, axis=1)))

    z = synthesize(w_c, theta0[None, :])[:, 0]
    z[:n] += theta0
    block = np.empty((_COMPARE_BLOCK, 2 * n))
    block[0], z = z, z.tolist()
    H0 = energy(z)[0]
    if not math.isfinite(H0):
        raise EnergyDriftError(f"initial energy {H0} at step 0 is not finite")
    dev = 0.0  # np.maximum keeps a NaN deviation, where max() would drop it
    for i in range(1, steps + 1):
        k1 = rhs(z)
        k2 = rhs([a + 0.5 * dt * b for a, b in zip(z, k1)])
        k3 = rhs([a + 0.5 * dt * b for a, b in zip(z, k2)])
        k4 = rhs([a + dt * b for a, b in zip(z, k3)])
        z = [a + (dt / 6.0) * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(z, k1, k2, k3, k4)]
        if i % 200 == 0 or i == steps:
            drift = abs(energy(z)[0] - H0) / max(1.0, abs(H0))
            if not drift <= _ENERGY_TOL:  # NaN counts as drift
                raise EnergyDriftError(
                    f"energy drift {drift:.3e} at step {i} exceeds {_ENERGY_TOL:.1e}; reduce dt"
                )
        if i % _COMPARE_BLOCK == 0:  # the block holds steps i - _COMPARE_BLOCK .. i - 1
            dev = np.maximum(dev, deviation(i - _COMPARE_BLOCK, block))
        block[i % _COMPARE_BLOCK] = z
    lo = steps - steps % _COMPARE_BLOCK
    return float(np.maximum(dev, deviation(lo, block[: steps + 1 - lo])))


# --- isotropy reduction -------------------------------------------------------


def lack_of_isotropy(zeta: TorusEmbedding) -> SpectralField:
    """L[zeta] = (d zeta)^T J (d zeta): the symplectic form pulled back to T^n."""
    P = _embedding_jacobian_samples(zeta)
    return analyze(zeta.grid, np.einsum("am...,an...->mn...", P, _apply_J(P)))


def isotropy_from_residual(
    zeta: TorusEmbedding, h: HamiltonianData, omega: FrequencyVector
) -> SpectralField:
    """L[zeta] via the transport formula d(omega.d)^{-1}[(d zeta)^T J F] - (transpose)."""
    field, _, _ = residual_torus(hamiltonian_vector_field(h, zeta), zeta, None, omega)
    P = _embedding_jacobian_samples(zeta)
    integrand = np.einsum("am...,a...->m...", P, _apply_J(field.samples()))
    g_vec = omega_directional_inverse(remove_mean(analyze(zeta.grid, integrand)), omega)
    dg = g_vec.jacobian().samples()  # (m, a): d_a g_m
    # transport identity (omega.d) L = (P^T J dF)^T - P^T J dF fixes the
    # orientation: the gradient matrix enters transposed relative to dg
    return analyze(zeta.grid, np.swapaxes(dg, 0, 1) - dg)


def isotropic_correction(
    zeta: TorusEmbedding, h: HamiltonianData, omega: FrequencyVector
) -> TorusEmbedding:
    """First-order isotropic repair: eta^y = zeta^y - (d zeta^x)^T p, p = Lap^{-1} div L."""
    L = isotropy_from_residual(zeta, h, omega)
    div = SpectralField(zeta.grid, np.einsum("kjj...->k...", L.jacobian().coeffs))
    p = remove_mean(div).laplace_inverse()
    dzx = _embedding_jacobian_samples(zeta)[: zeta.n]  # (i, m, ...): d_m zeta^x_i
    corr = np.einsum("im...,i...->m...", dzx, p.samples())
    return TorusEmbedding(ux=zeta.ux, uy=analyze(zeta.grid, zeta.uy.samples() - corr))
