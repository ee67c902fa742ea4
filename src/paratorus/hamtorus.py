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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicCutoff, make_cutoff
from .errors import (
    DegenerateEmbeddingError,
    EnergyDriftError,
    NonContractiveError,
    NonFiniteError,
    SingularAverageError,
)
from .paraprod import ParaOpHandle, para_invert_with_handle
from .reporting import SolveReport, picard
from .smalldiv import FrequencyVector, omega_directional_inverse, remove_mean
from .spectral import SpectralField, TorusGrid, VectorField, analyze, synthesize, warp_samples

TORUS_COLUMNS = ["iter", "increment_hs", "residual_sup", "residual_hs", "xi_norm", "mu_norm"]

MODES = ("thm1", "thm2")  # the first is the CLI default

_INNER_TOL = 1e-12  # relative residual of the Neumann para-inversions in the linear solve
_CHECK_TOL = 1e-9  # relative defect allowed in the linear solve's self-check
_ENERGY_TOL = 1e-6  # relative energy drift allowed along the flow oracle's orbit


def _apply_J(v: np.ndarray) -> np.ndarray:
    """J v = (v^y; -v^x) for samples with 2n leading components, J = [[0, I], [-I, 0]]."""
    return np.concatenate([v[len(v) // 2 :], -v[: len(v) // 2]])


@dataclass
class HamiltonianData:
    """Taylor data of h in the action variable, truncated at cubic order.

    The m-th Taylor coefficient (a0, a1, Q, cubic) has m component axes of
    length n; the cubic term may also be given as a symmetric n x n x n nest
    of scalar fields.
    """

    a0: SpectralField
    a1: SpectralField
    Q: SpectralField
    cubic: SpectralField | list | None = None

    def __post_init__(self):
        n = self.n
        if self.cubic is not None:
            self.cubic = VectorField(self.cubic)
        for name in ("a0", "a1", "Q", "cubic"):
            f = getattr(self, name)
            if f is not None:
                self.grid.require_same(f.grid)
                if not np.all(np.isfinite(f.coeffs)):
                    raise NonFiniteError(f"{name} has a non-finite coefficient")
        if self.Q.shape != (n, n):
            raise ValueError("Q must be n x n")
        sym = (self.Q - self.Q.T).sup_norm()
        if sym > 1e-12 * max(1.0, self.Q.sup_norm()):
            raise ValueError(f"Q is not symmetric: defect {sym:.3e}")
        if self.cubic is not None and self.cubic.shape != (n, n, n):
            raise ValueError("cubic must be n x n x n")
        self._gradients = {}

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @property
    def grid(self) -> TorusGrid:
        return self.a0.grid

    def gradient(self, m: int, order: int = 0) -> SpectralField:
        """order-th gradient of the m-th Taylor coefficient, one axis appended per derivative.

        Built on first use and kept: the data is fixed for the life of h.
        """
        if (m, order) not in self._gradients:
            data = (self.a0, self.a1, self.Q, self.cubic)[m]
            self._gradients[(m, order)] = self.gradient(m, order - 1).jacobian() if order else data
        return self._gradients[(m, order)]

    def value_at(self, x: np.ndarray, y: np.ndarray, xi=None) -> float:
        """Pointwise h_xi(x, y) for the flow oracle's energy monitor."""
        val = synthesize(self.a0, x)
        val += float(synthesize(self.a1, x) @ y)
        val += 0.5 * float(y @ synthesize(self.Q, x) @ y)
        if self.cubic is not None:
            val += float(np.einsum("ijk,i,j,k->", synthesize(self.cubic, x), y, y, y)) / 6.0
        if xi is not None:
            val += float(np.dot(xi, y))
        return val


def _stack(x: SpectralField, y: SpectralField) -> SpectralField:
    """(x; y): the components of y appended to those of x."""
    x.grid.require_same(y.grid)
    return SpectralField(x.grid, np.concatenate([x.coeffs, y.coeffs]))


class TorusEmbedding:
    """theta -> (theta + ux(theta), uy(theta)), held as one 2n-component displacement (ux; uy)."""

    def __init__(self, ux: SpectralField, uy: SpectralField):
        if ux.shape != uy.shape or len(ux.shape) != 1:
            raise ValueError("ux and uy need equally many components")
        self.w = _stack(ux, uy)

    @classmethod
    def flat(cls, grid: TorusGrid) -> "TorusEmbedding":
        return cls.from_displacement(VectorField.zero(grid, 2 * grid.dim))

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


class _Warp:
    """The Taylor gradients T(m, o) = h.gradient(m, o) composed with one fixed x-warp theta + ux.

    prefetch(order) composes every T(m, o) that the order-th derivative of h in (x, y) reads,
    o <= order <= m + o, and the warp does not hold, in one warp_samples call of their flattened
    components that vary in x. warp(m, o) returns T(m, o), prefetching o on a miss; all are kept.
    """

    def __init__(self, h: HamiltonianData, u: TorusEmbedding):
        self.h, self._samples = h, {}
        self.pts = np.stack(u.grid.point_mesh) + u.ux.samples() if np.any(u.ux.coeffs) else None

    def __call__(self, m: int, order: int = 0) -> np.ndarray:
        if (m, order) not in self._samples:
            self.prefetch(order)
        return self._samples[(m, order)]

    def prefetch(self, order: int) -> None:
        g, n, top = self.h.grid, self.h.n, (2 if self.h.cubic is None else 3)
        keys = [(m, o) for m in range(top + 1) for o in range(order + 1)
                if m + o >= order and (m, o) not in self._samples]
        if not keys:
            return
        flat = np.concatenate([self.h.gradient(*k).coeffs.reshape(-1, *g.mode_shape) for k in keys])
        mean = flat[(slice(None),) + g.mean_index]
        varies = np.count_nonzero(flat.reshape(len(flat), -1), axis=1) > (mean != 0)  # NaN is nonzero
        vals = mean.real.reshape((-1,) + (1,) * g.dim) + np.zeros(g.point_shape)
        if varies.any():  # a component whose only nonzero coefficient is its mean is that mean
            moving = SpectralField(g, flat[varies])
            vals[varies] = moving.samples() if self.pts is None else warp_samples(moving, self.pts)
        parts = np.split(vals, np.cumsum([n ** sum(k) for k in keys])[:-1])  # n^(m + order)
        for k, p in zip(keys, parts):
            self._samples[k] = p.reshape((n,) * sum(k) + g.point_shape)


def _xh(T, uy: np.ndarray, cubic: bool) -> np.ndarray:
    """X_h = (grad_y h; -grad_x h) from the Taylor gradients T(m, order) at actions uy.

    Works on collocation samples (trailing point axes) and on single points alike.
    """
    gy = T(1) + np.einsum("ij...,j...->i...", T(2), uy)
    gx = T(0, 1) + np.einsum("il...,i...->l...", T(1, 1), uy)
    gx = gx + 0.5 * np.einsum("ijl...,i...,j...->l...", T(2, 1), uy, uy)
    if cubic:
        gy = gy + 0.5 * np.einsum("ijk...,j...,k...->i...", T(3), uy, uy)
        gx = gx + np.einsum("ijkl...,i...,j...,k...->l...", T(3, 1), uy, uy, uy) / 6.0
    return np.concatenate([gy, -gx])


def _xh_samples(h: HamiltonianData, u: TorusEmbedding, warp: _Warp) -> np.ndarray:
    """Samples of X_h along u: (grad_y h; -grad_x h) at (theta + ux, uy)."""
    warp.prefetch(1)
    return _xh(warp, u.uy.samples(), h.cubic is not None)


def hamiltonian_vector_field(h: HamiltonianData, u: TorusEmbedding) -> SpectralField:
    """X_h evaluated along the embedding u (2n components)."""
    return analyze(u.grid, _xh_samples(h, u, _Warp(h, u)))


def _jacobian_samples(h: HamiltonianData, u: TorusEmbedding, warp: _Warp) -> np.ndarray:
    """Samples of A[u] = (DX_h)(u), shape (2n, 2n, *grid)."""
    T, uy = warp, u.uy.samples()
    T.prefetch(2)
    A11 = T(1, 1) + np.einsum("ijl...,j...->il...", T(2, 1), uy)  # D_x grad_y h
    A12 = T(2)  # D_y grad_y h
    A21 = T(0, 2) + np.einsum("ilm...,i...->lm...", T(1, 2), uy)  # D_x grad_x h
    A21 = A21 + 0.5 * np.einsum("ijlm...,i...,j...->lm...", T(2, 2), uy, uy)
    if h.cubic is not None:
        A11 = A11 + 0.5 * np.einsum("ijkl...,j...,k...->il...", T(3, 1), uy, uy)
        A12 = A12 + np.einsum("ijk...,k...->ij...", T(3), uy)
        A21 = A21 + np.einsum("ijklm...,i...,j...,k...->lm...", T(3, 2), uy, uy, uy) / 6.0
    # the lower row is -D(grad_x h), whose y-block is the transpose of A11
    top = np.concatenate([A11, A12], axis=1)
    return np.concatenate([top, np.concatenate([-A21, -np.swapaxes(A11, 0, 1)], axis=1)])


def jacobian_A(h: HamiltonianData, u: TorusEmbedding) -> SpectralField:
    return analyze(u.grid, _jacobian_samples(h, u, _Warp(h, u)))


def error_fields(h: HamiltonianData, omega) -> tuple:
    """(e0, e1): invariance defect X_h(zeta0) - (omega; 0), integrability defect Q - Avg Q."""
    omega = np.asarray(omega, dtype=float) if not isinstance(omega, FrequencyVector) else omega.array
    e0 = hamiltonian_vector_field(h, TorusEmbedding.flat(h.grid))
    e0 = e0 - np.concatenate([omega, np.zeros(h.n)])
    return e0, h.Q - h.Q.mean()


# --- frame and torsion ------------------------------------------------------


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
    """
    P = _embedding_jacobian_samples(u)
    JP = _apply_J(P)
    N = _inverse(np.einsum("am...,an...->mn...", P, P), "embedding Gram matrix")
    L = np.einsum("am...,an...->mn...", P, JP)
    G = _mm(_mm(N, L), N)
    LG = _mm(L, G)
    s = _guard(1 + np.einsum("aa...->...", LG) / 2, "frame matrix M")
    X = np.eye(u.n)[(...,) + (None,) * u.grid.dim] - LG / s
    Y = X.swapaxes(0, 1)  # (I + G L)^{-1}
    Kinv = np.concatenate([np.concatenate([_mm(G, X), Y], 1), np.concatenate([-X, _mm(L, Y)], 1)])
    M = np.concatenate([P, _mm(JP, N)], axis=1)
    return P, N, M, _mm(Kinv, -_apply_J(M).swapaxes(0, 1))  # M^T J = -(J M)^T


def frame(u: TorusEmbedding) -> tuple:
    """(N, M, M_inv) as matrix fields; N = (du^T du)^{-1}, M = (du, J du N), and M_inv the closed
    form K^{-1} M^T J, K = M^T J M, of _frame_samples (de la Llave et al., Nonlinearity 18, 2005)."""
    return tuple(analyze(u.grid, s) for s in _frame_samples(u)[1:])


def _torsion_samples(A: np.ndarray, P: np.ndarray, Ninv: np.ndarray) -> np.ndarray:
    """Samples of S = N P^T [A, J] P N = N (P^T A J P + (J P)^T A P) N from A, P = du and N."""
    JP = _apply_J(P)
    inner = np.einsum("am...,an...->mn...", P, _mm(A, JP))
    return _mm(_mm(Ninv, inner + np.einsum("am...,an...->mn...", JP, _mm(A, P))), Ninv)


def torsion_S(h: HamiltonianData, u: TorusEmbedding) -> SpectralField:
    """Torsion S[u] = N (du)^T [A, J] (du) N with [A, J] = AJ - JA.

    The orientation is pinned by the exact linearization identity; it gives
    S = -Q0 at the flat torus of an integrable Hamiltonian.
    """
    A = _jacobian_samples(h, u, _Warp(h, u))
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
    return _stack(top, SpectralField(top.grid, np.zeros_like(top.coeffs)))


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
    avgM = HM.avg
    avgS = HS.avg
    if mode == "thm1" and np.linalg.cond(avgS) > 1e12:
        raise SingularAverageError("Avg S is singular: thm1 requires invertible Avg Q")

    f1 = para_invert_with_handle(HM, f, tol=_INNER_TOL)
    f1x, f1y = _split(f1)
    mu1 = f1y.mean()

    v1y = -1.0 * omega_directional_inverse(remove_mean(f1y), omega)
    if mode == "thm1":
        m11, m12 = avgM[:n, :n], avgM[:n, n:]
        m21, m22 = avgM[n:, :n], avgM[n:, n:]
        xi1 = np.linalg.solve(m11, -m12 @ mu1)
        mu = m21 @ xi1 + m22 @ mu1
        xi = np.zeros(n)
        # the mean of v^y balances the mean of the x-row through (Avg S)^{-1}
        v1y = v1y + np.linalg.solve(avgS, f1x.mean() - xi1 - HS.apply(v1y).mean())
    rhs_x = f1x - HS.apply(v1y)
    v1x = -1.0 * omega_directional_inverse(remove_mean(rhs_x), omega)
    if mode == "thm2":
        const = avgM @ np.concatenate([rhs_x.mean(), mu1])
        xi, mu = const[:n], const[n:]

    v = para_invert_with_handle(HMinv, _stack(v1x, v1y), tol=_INNER_TOL)

    # self-check: substitute into the para-homological equation
    lhs = _apply_L(HM, HMinv, HS, v, omega.array) + np.concatenate([xi, mu])
    fnorm = f.l2_norm()
    defect = (lhs - f).l2_norm()
    if fnorm > 0 and defect > _CHECK_TOL * fnorm:
        raise NonContractiveError(
            f"linear para-homological self-check failed: {defect:.3e} > "
            f"{_CHECK_TOL:.1e} * {fnorm:.3e}"
        )
    return v, np.asarray(xi), np.asarray(mu)


# --- nonlinear assembly ------------------------------------------------------


class _IterationOps:
    """X_h at one iterate u, and the operators of the Picard step taken from u.

    X_h is composed once, on construction: it gives the iterate's residual and
    truncation tail and the next step's remainder. The frame, the Jacobian
    samples (shared by the torsion S and the remainder symbol B) and the
    handles of M, M^{-1} and S are each built once, on first use, i.e. only
    when a step is taken from u. The step feeds back the sum of the
    para-linearization and composition remainders as one literal difference.
    """

    def __init__(self, h: HamiltonianData, u: TorusEmbedding, omega: FrequencyVector, cut: DyadicCutoff):
        self.h, self.u, self.omega, self.cut = h, u, omega, cut
        self.warp = _Warp(h, u)
        self.Xh_u, tails = analyze(u.grid, _xh_samples(h, u, self.warp), return_tail=True)
        self.xh_tail_energy = float(np.max(tails))

    @cached_property
    def frame_s(self) -> tuple:
        """Samples (P, N, M, M^{-1}) of the embedding Jacobian and the frame."""
        return _frame_samples(self.u)

    @cached_property
    def A(self) -> np.ndarray:
        return _jacobian_samples(self.h, self.u, self.warp)

    @cached_property
    def HM(self) -> ParaOpHandle:
        return ParaOpHandle(analyze(self.u.grid, self.frame_s[2]), self.cut)

    @cached_property
    def HMinv(self) -> ParaOpHandle:
        return ParaOpHandle(analyze(self.u.grid, self.frame_s[3]), self.cut)

    @cached_property
    def HS(self) -> ParaOpHandle:
        return ParaOpHandle(analyze(self.u.grid, _torsion_samples(self.A, *self.frame_s[:2])), self.cut)

    def remainder_term(self, Xh_zeta: SpectralField) -> SpectralField:
        """Both smoothing remainders at w = u - zeta0, as one literal difference.

        R(w) = X_h(u) - X_h(zeta0) - (omega.d) w - T_B w - L w with
        B = A - M (0 S; 0 0) M^{-1} + M (omega.d M^{-1}): the para-linearization
        remainder X_h(u) - X_h(zeta0) - T_A w plus the composition remainder
        [T_{M(0 S;0 0)M^-1} - T_{M(omega.d M^-1)} - (omega.d)] w - L w.
        """
        P, _, M_s, Minv_s = self.frame_s  # P = M[:, :n]
        w = self.u.displacement()
        omega_arr = self.omega.array
        dMinv = self.HMinv.symbol.omega_derivative(omega_arr).samples()
        B = self.A - _mm(_mm(P, self.HS.symbol.samples()), Minv_s[self.u.n :]) + _mm(M_s, dMinv)
        TBw = ParaOpHandle(analyze(self.u.grid, B), self.cut).apply(w)
        Lw = _apply_L(self.HM, self.HMinv, self.HS, w, omega_arr)
        return self.Xh_u - Xh_zeta - w.omega_derivative(omega_arr) - TBw - Lw


def assemble_rhs(ops: _IterationOps, e0: SpectralField, Xh_zeta: SpectralField) -> SpectralField:
    """-e0 - R(u - zeta0) at u = ops.u, R the summed remainders of ops.remainder_term."""
    return -1.0 * e0 - ops.remainder_term(Xh_zeta)


def _residual(Xh: SpectralField, u: TorusEmbedding, xi, omega) -> tuple:
    """F(h_xi, u) = X_h(u) + (xi; 0) - (omega.d) u from Xh = X_h(u), with sup and L2 norms."""
    omega_arr = omega.array if isinstance(omega, FrequencyVector) else np.asarray(omega, float)
    xi = np.zeros(u.n) if xi is None else np.asarray(xi, dtype=float)
    zeros = np.zeros(u.n)
    field = Xh + np.concatenate([xi, zeros])
    field = field - np.concatenate([omega_arr, zeros]) - u.displacement().omega_derivative(omega_arr)
    return field, field.sup_norm(), field.l2_norm()


def residual_torus(h: HamiltonianData, u: TorusEmbedding, xi, omega) -> tuple:
    """F(h_xi, u) = X_h(u) + (xi; 0) - (omega.d) u with sup and H^s=0 norms."""
    return _residual(hamiltonian_vector_field(h, u), u, xi, omega)


def counterterm_check(h: HamiltonianData, u: TorusEmbedding, xi, mu, omega) -> float:
    """Defect of mu = Avg((du^y)^T F^x - (du^x)^T (F^y - mu)) with F = F(h_xi, u)."""
    return _counterterm_defect(residual_torus(h, u, xi, omega)[0], u, mu)


def _counterterm_defect(field: SpectralField, u: TorusEmbedding, mu) -> float:
    """The defect of counterterm_check from the measured residual field F(h_xi, u)."""
    mu = np.asarray(mu, dtype=float)
    F = field.samples()
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
    P, Ninv, _, Minv = _frame_samples(u)  # taken once for B[E] and M^{-1}
    symbol = analyze(u.grid, _b_samples(E, P, Ninv)).matmul(analyze(u.grid, Minv))
    return ParaOpHandle(symbol, cut).apply(u.displacement()).sobolev_norm(s) / denom


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
    replaces u by zeta0 + v; (xi, mu) come from the latest linear solve. The
    iteration stops when the H^s increment of the embedding drops below tol;
    integrable data stop in the first step with u = zeta0 and xi = mu = 0.
    The driver raises MaxIterExceededError or NonFiniteError with the partial
    report attached.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "thm1" and np.linalg.cond(h.Q.mean()) > 1e12:
        raise SingularAverageError("thm1 requires invertible Avg Q")
    cut = make_cutoff(h.grid)
    zeta = TorusEmbedding.flat(h.grid)
    Xh_zeta = hamiltonian_vector_field(h, zeta)
    e0 = Xh_zeta - np.concatenate([omega.array, np.zeros(h.n)])  # invariance defect of zeta0

    def step(state):
        ops, _, _ = state
        rhs = assemble_rhs(ops, e0, Xh_zeta)
        v, xi, mu = linear_para_homological_solve(ops.HM, ops.HMinv, ops.HS, rhs, mode, omega)
        u = TorusEmbedding.from_displacement(v)
        inc = (u.w - ops.u.w).sobolev_norm(s)
        # X_h at the new iterate; its frame and handles wait until the next step
        ops = _IterationOps(h, u, omega, cut)
        _, res_sup, res_hs = _residual(ops.Xh_u, u, xi, omega)
        row = {"increment_hs": inc, "residual_sup": res_sup, "residual_hs": res_hs,
               "xi_norm": float(np.linalg.norm(xi)), "mu_norm": float(np.linalg.norm(mu))}
        return (ops, xi, mu), row, inc < tol

    # the flat iterate's ops go straight to the driver: no local keeps its handles alive
    (ops, xi, mu), report = picard(
        step, (_IterationOps(h, zeta, omega, cut), None, None), TORUS_COLUMNS, max_iter
    )
    u = ops.u
    disp = u.displacement()
    report.extras["u_minus_flat_hs"] = disp.sobolev_norm(s)
    report.extras["gamma"] = omega.gamma
    e0_strong = e0.sobolev_norm(s + 2 * omega.sigma + 0.1)  # strong norm, loss eps = 0.1
    report.extras["e0_strong_norm"] = float(e0_strong)
    if e0_strong > 0:
        report.extras["c2_empirical"] = disp.sobolev_norm(s) / (omega.gamma**2 * e0_strong)
    # the measured residual from the final iterate's X_h, composed once by its ops
    F = _residual(ops.Xh_u, u, xi, omega)[0]
    report.extras["kappa"] = neumann_certificate(F + np.concatenate([np.zeros(h.n), mu]), u, cut, s)
    report.extras["counterterm_defect"] = _counterterm_defect(F, u, mu)
    # truncation monitor: discarded tail energy of the composed vector field
    report.extras["xh_tail_energy"] = ops.xh_tail_energy
    return KamSolution(u=u, xi=xi, mu=mu, report=report)


# --- independent flow verification ------------------------------------------

_COMPARE_BLOCK = 1000  # orbit points per block of the streamed comparison with u(theta0 + omega t)


def _compress(f: SpectralField) -> SpectralField:
    """Zero the coefficients below 1e-15 times the largest of the same component."""
    out = f.copy()
    cmax = np.max(np.abs(out.coeffs), axis=f.grid.axes, keepdims=True)
    out.coeffs[np.abs(out.coeffs) < 1e-15 * cmax] = 0.0
    return out


def _point_rhs(h: HamiltonianData, xi: np.ndarray):
    """Closure z -> X_{h_xi}(z) through one table folded from the precompressed Taylor gradients.

    X_h = (sum_m a_m[y^(m-1)] / (m-1)!; -sum_m (d_x a_m)[y^m] / m!) has degree d = 2
    (3 with a cubic term) in y. With y1 = (1, y), the table's row (r, a, b[, c]) holds
    the coefficients of y1_a y1_b [y1_c] in component r over the union of the nonzero
    modes. The Hermitian pairs k, -k fold exactly into the half-space (first nonzero
    k_i > 0, weight 2; k = 0, weight 1), so a right-hand side is one phase exponential,
    one matrix product and d contractions with y1.
    """
    n, d = h.n, (2 if h.cubic is None else 3)
    # mode_list is lexicographic and symmetric: k = 0 sits in the middle, the half-space after it
    mid = h.grid.mode_list.shape[0] // 2
    table = np.zeros((2 * n,) + (n + 1,) * d + (mid + 1,), dtype=complex)
    for m in range(d + 1):
        ys = (slice(1, None),) * m
        dx = _compress(h.gradient(m, 1)).coeffs.reshape((n,) * (m + 1) + (-1,))[..., mid:]
        table[(slice(n, None),) + (0,) * (d - m) + ys] = -np.moveaxis(dx, m, 0) / math.factorial(m)
        if m > 0:
            ay = _compress(h.gradient(m)).coeffs.reshape((n,) * m + (-1,))[..., mid:]
            table[(slice(None, n),) + (0,) * (d + 1 - m) + ys[1:]] = ay / math.factorial(m - 1)
    table = table.reshape((-1, mid + 1))
    table[:, 1:] *= 2.0
    mask = np.any(table != 0, axis=0)
    modes_t = h.grid.mode_list[mid:][mask].T.astype(float)
    table = table[:, mask]
    shape = (2 * n,) + (n + 1,) * d
    shift = np.concatenate([xi, np.zeros(n)])
    y1 = np.ones(n + 1)  # (1, y), refilled by each call

    def rhs(z: np.ndarray) -> np.ndarray:
        vals = (table @ np.exp(1j * (z[:n] @ modes_t))).real.reshape(shape)
        y1[1:] = z[n:]
        for _ in range(d):
            vals = vals @ y1
        return vals + shift

    return rhs


def flow_oracle(
    h: HamiltonianData, u: TorusEmbedding, xi, omega, theta0, T: float, dt: float
) -> float:
    """Max deviation of the RK4 orbit from z(0) = u(theta0) against u(theta0 + omega t).

    Independent invariance check: integrates the Hamiltonian ODE by RK4 with
    fixed step dt through the folded table of _point_rhs, and compares each
    block of _COMPARE_BLOCK orbit points with the rotated embedding as soon as
    it is integrated, so memory does not grow with T/dt. Raises
    EnergyDriftError if the initial energy is not finite or the relative energy
    drift, checked every 200 steps and at the last step, exceeds _ENERGY_TOL.
    """
    omega_arr = omega.array if isinstance(omega, FrequencyVector) else np.asarray(omega, float)
    xi = np.zeros(u.n) if xi is None else np.asarray(xi, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    n = u.n
    if not (math.isfinite(T) and math.isfinite(dt)) or dt <= 0 or T < 0:
        raise ValueError(f"need finite T >= 0 and dt > 0, got T={T!r}, dt={dt!r}")
    if theta0.shape != (n,):
        raise ValueError(f"theta0 needs {n} entries, got shape {theta0.shape}")
    steps = int(round(T / dt))
    w_c = _compress(u.displacement())

    def deviation(lo: int, pts: np.ndarray) -> float:
        """Max distance of the orbit points of steps lo, lo + 1, ... from u(theta0 + omega t)."""
        thetas = theta0[None, :] + (dt * np.arange(lo, lo + len(pts)))[:, None] * omega_arr[None, :]
        ref = synthesize(w_c, thetas).T
        ref[:, :n] += thetas
        return np.max(np.sqrt(np.sum((pts - ref) ** 2, axis=1)))

    z = synthesize(w_c, theta0[None, :])[:, 0]
    z[:n] += theta0
    H0 = h.value_at(z[:n], z[n:], xi)
    if not math.isfinite(H0):
        raise EnergyDriftError(f"initial energy {H0} at step 0 is not finite")
    rhs = _point_rhs(h, xi)
    block = np.empty((_COMPARE_BLOCK, 2 * n))
    block[0] = z
    dev = 0.0  # np.maximum keeps a NaN deviation, where max() would drop it
    for i in range(1, steps + 1):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i % 200 == 0 or i == steps:
            drift = abs(h.value_at(z[:n], z[n:], xi) - H0) / max(1.0, abs(H0))
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
    field, _, _ = residual_torus(h, zeta, None, omega)
    P = _embedding_jacobian_samples(zeta)
    integrand = np.einsum("am...,a...->m...", P, _apply_J(field.samples()))
    g_vec = omega_directional_inverse(remove_mean(analyze(zeta.grid, integrand)), omega)
    dg = g_vec.jacobian().samples()  # (m, a): d_a g_m
    # transport identity (omega.d) L = (P^T J dF)^T - P^T J dF fixes the
    # orientation: the gradient matrix enters transposed relative to dg
    L = np.swapaxes(dg, 0, 1) - dg
    return analyze(zeta.grid, L)


def isotropic_correction(
    zeta: TorusEmbedding, h: HamiltonianData, omega: FrequencyVector
) -> TorusEmbedding:
    """First-order isotropic repair: eta^y = zeta^y - (d zeta^x)^T p, p = Lap^{-1} div L."""
    L = isotropy_from_residual(zeta, h, omega)
    div = SpectralField(zeta.grid, np.einsum("kjj...->k...", L.jacobian().coeffs))
    p = remove_mean(div).laplace_inverse()
    dzx = _embedding_jacobian_samples(zeta)[: zeta.n]  # (i, m, ...): d_m zeta^x_i
    corr = np.einsum("im...,i...->m...", dzx, p.samples())
    uy_new = analyze(zeta.grid, zeta.uy.samples() - corr)
    return TorusEmbedding(ux=zeta.ux, uy=uy_new)
