"""Para-product operators, their remainders, and Neumann-style para-inversion.

The para-product of a symbol a with an operand u staggers frequencies,
    T_a u = sum_j S_{j-3} a . Delta_j u,
so each summand pairs a low-pass of the symbol with one dyadic block of the
operand. Everything here reduces to dealiased products of retained fields.
The levels are array work: DyadicCutoff.block_samples synthesizes the blocks
of an operand along a leading level axis in one real transform, and one einsum
sums the level products. They run on the para-product grid of
DyadicCutoff.para_points, which is smaller than the 4K collocation grid and on
which every level's product is exact on the retained band. The low band j <= 3
acts on coefficients. A Meyer multiplier family m_0 .. m_{j_max} is one
SpectralField on the same leading level axis.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dyadic import DyadicCutoff, para_points
from .errors import (
    DiffeomorphismLostError,
    NonContractiveError,
    NonFiniteError,
    SingularAverageError,
)
from .spectral import SpectralField, TorusGrid, _synthesize_half, analyze, compose_warped

_GAUSS_ORDER = 8  # nodes for the unit-interval integrals in the telescope
_COMPOSE_WINDOW = 2  # the window N of para_compose


class ParaOpHandle:
    """Cached application of T_a for a scalar or matrix symbol a.

    The levels j <= 3, whose low-pass S_{j-3} a is the mean, collapse to mean(a) * S_3 u, applied
    exactly on coefficients with no transform. The build samples S_{j-3} a for j = 4..j_max into
    one (levels, *symbol.shape, *points) array, each level from its band of k_last columns
    (cut.lowpass_band): a scalar symbol's levels in one stacked transform, a matrix symbol's into
    a preallocated array one level at a time, so that the transform's temporaries hold one level;
    a non-finite coefficient in the symbol's k_last >= 0 half is a NonFiniteError. An apply makes
    one stacked synthesis of the blocks Delta_4 u .. Delta_{j_max} u from the k_last >= 0 half of
    u (DyadicCutoff.block_samples), one einsum against the low-passes and one analysis. All of it
    runs on the N_pp points per axis of cut.para_points, not on the 4K collocation grid: a level's
    product S_{j-3} a . Delta_j u has its spectrum in |k_i| <= K + 2^{j_max-2}, so on N_pp > 2K +
    2^{j_max-2} points none of its aliases lands on a retained mode and the analysis returns its
    retained coefficients exactly. A matrix symbol is contracted against the operand's components,
    (T_A v)_p = sum_q T_{A_pq} v_q; a scalar one acts on every component. The handle keeps its
    symbol, against which para_invert_with_handle checks that mean(a) is invertible.
    """

    def __init__(self, symbol: SpectralField, cut: DyadicCutoff):
        cut.grid.require_same(symbol.grid)
        half, points = symbol.coeffs[..., cut.grid.max_mode :], cut.para_points
        if not np.isfinite(half).all():
            raise NonFiniteError("para-product symbol has a non-finite coefficient")
        self.symbol = symbol
        self.cut = cut
        self.grid = cut.grid
        self.avg = symbol.mean()
        # contracting no component axes is a plain product (no einsum overhead)
        self.contract = (functools.partial(np.einsum, "pq...,q...->p...") if symbol.shape
                         else np.multiply)
        self.sum_levels = "lpq...,lq...->p..." if symbol.shape else "l...,l...->..."
        # S_{j-3} for j = 4..j_max, i.e. lowpass_mult[1 .. j_max - 3], each on its own band
        mults = cut.lowpass_mult[1 : max(1, cut.j_max - 2), ..., self.grid.max_mode :]
        if symbol.shape:
            self.low = np.empty((len(mults),) + symbol.shape + (points,) * self.grid.dim)
            for low, m, b in zip(self.low, mults, cut.lowpass_band[1:]):
                low[...] = _synthesize_half(self.grid, m[..., :b] * half[..., :b], points)
        else:
            b = cut.lowpass_band[len(mults)]  # the top level's band holds every lower one
            self.low = _synthesize_half(self.grid, mults[..., :b] * half[..., :b], points)

    def apply(self, u: SpectralField) -> SpectralField:
        cut = self.cut
        out = self.contract(self.avg, cut.partial_sum(u, 3).coeffs)
        if len(self.low):
            high = np.einsum(self.sum_levels, self.low, cut.block_samples(u, 4, cut.para_points))
            out = out + analyze(self.grid, high).coeffs
        return SpectralField(self.grid, out)

    apply_vector = apply  # the former name for matrix symbols, kept for callers


def low_pass_bytes(grid: TorusGrid, symbol_shape: tuple, j_max: int) -> int:
    """Bytes of the low-passes S_{j-3} a, j = 4..j_max, of a symbol of component shape symbol_shape,
    each on dyadic.para_points(K, j_max) points per axis: a ParaOpHandle's at j_max = cut.j_max,
    the memory guards' count at dyadic.level_bound(K). A torus step holds the three stacks of its
    linear solve (M, M^{-1}, S) or the single-use remainder stack."""
    levels = max(0, j_max - 3)
    return levels * math.prod(symbol_shape) * para_points(grid.max_mode, j_max) ** grid.dim * 8


def para_product(a: SpectralField, u: SpectralField, cut: DyadicCutoff) -> SpectralField:
    """T_a u = sum_j S_{j-3} a . Delta_j u with every summand dealiased.

    For a matrix symbol A this is the blockwise (T_A v)_i = sum_j T_{A_ij} v_j.
    """
    return ParaOpHandle(a, cut).apply(u)


def cm_remainder(
    a: SpectralField, b: SpectralField, u: SpectralField, cut: DyadicCutoff
) -> SpectralField:
    """Composition remainder (T_a T_b - T_{ab}) u, as the literal difference."""
    a.grid.require_same(b.grid)
    composed = para_product(a, para_product(b, u, cut), cut)
    direct = para_product(a.product(b), u, cut)
    return composed - direct


def meyer_apply(mults: SpectralField, u: SpectralField, cut: DyadicCutoff) -> SpectralField:
    """sum_j m_j . Delta_j u for a Meyer family m_0 .. m_{j_max} on a leading level axis.

    Raises ValueError when the level axis does not have j_max + 1 entries and
    GridMismatchError for multipliers on another grid.
    """
    if mults.shape[:1] != (cut.j_max + 1,):
        raise ValueError(f"family has level axis {mults.shape[:1]}, cutoff needs {cut.j_max + 1}")
    cut.grid.require_same(mults.grid)
    return analyze(cut.grid, np.einsum("l...,l...->...", mults.samples(), cut.block_samples(u)))


def telescope_remainders(F, Fz, u: SpectralField, cut: DyadicCutoff):
    """Both Meyer families of the telescoped para-linearization of F(x, u).

    F and Fz evaluate F(x, z) and dF/dz(x, z) pointwise on the collocation
    grid: they take (mesh, z_samples) and return samples. Returns (m1, m2),
    each one field with a leading level axis j = 0..j_max, as meyer_apply
    takes it, with, writing S_l for the partial sums and A for the mean,
        m_j^1 = (1 - S_{j-3})(Fz(x,0) - A Fz(x,0)),
        m_j^2 = int_0^1 [Fz(x, S_{j-1}u + t Delta_j u) - Fz(x,0)] dt
                - S_{j-3}(Fz(x,u) - Fz(x,0)),
    the j = 0 integral running over t Delta_0 u. The integrals use fixed
    Gauss-Legendre quadrature, exact for the polynomial nonlinearities in scope.
    """
    grid = u.grid
    blocks = cut.block_samples(u)  # checks the grids
    mesh = grid.point_mesh
    fz0 = np.asarray(Fz(mesh, np.zeros(grid.point_shape)), dtype=float)
    fz0_field = analyze(grid, fz0)
    fz0_centered = fz0_field - fz0_field.mean()
    diff_field = analyze(grid, np.asarray(Fz(mesh, u.samples()), dtype=float) - fz0)

    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights  # on the unit interval
    bases = np.cumsum(blocks, axis=0) - blocks  # S_{j-1} u, and 0 at j = 0
    integrals = np.stack([
        sum(w * np.asarray(Fz(mesh, base + t * blk), dtype=float) for t, w in zip(nodes, weights))
        for base, blk in zip(bases, blocks)
    ]) - fz0
    # S_{j-3} of every level j; below j = 3 it is S_0, the mean
    low = cut.lowpass_mult[np.maximum(np.arange(cut.j_max + 1) - 3, 0)]
    m1 = SpectralField(grid, (1.0 - low) * fz0_centered.coeffs)
    m2 = SpectralField(grid, analyze(grid, integrals).coeffs - low * diff_field.coeffs)
    return m1, m2


def pl_remainder(
    F_of_u: SpectralField,
    F_of_0: SpectralField,
    Fz_at_u: SpectralField,
    u: SpectralField,
    cut: DyadicCutoff,
) -> SpectralField:
    """Para-linearization remainder F(x,u) - F(x,0) - T_{Fz(x,u)} u (literal)."""
    return F_of_u - F_of_0 - para_product(Fz_at_u, u, cut)


def para_compose(F: SpectralField, chi_displacement: SpectralField,
                 cut: DyadicCutoff) -> SpectralField:
    """Para-composition sum_j (S_{j+N} - S_{j-N}) ((Delta_j F) o chi), one compose_warped of the blocks.

    The window is N = _COMPOSE_WINDOW. chi = Id + displacement must be a diffeomorphism
    (sup |d displacement| < 1). For j - N < 0 the lower partial sum is the zero operator, which
    keeps constants intact (chi* c = c).
    """
    grid = F.grid
    cut.grid.require_same(grid)
    if chi_displacement.jacobian().sup_norm() >= 1.0:
        raise DiffeomorphismLostError(
            "displacement gradient reaches 1: Id + displacement is not a diffeomorphism"
        )
    composed = compose_warped(cut.blocks(F), chi_displacement)
    # the window multipliers S_{j+N} - S_{j-N} of every level j, S_{j-N} = 0 below j = N
    N = _COMPOSE_WINDOW
    windows = cut.lowpass_mult[np.minimum(np.arange(cut.j_max + 1) + N, cut.j_max)]
    windows[N:] -= cut.lowpass_mult[: max(0, cut.j_max + 1 - N)]
    return SpectralField(grid, np.einsum("l...,l...->...", windows, composed.coeffs))


def _stalled(history, patience=4):
    recent = history[-(patience + 1) :]
    return len(recent) > patience and all(b >= a * 0.999 for a, b in zip(recent, recent[1:]))


def para_invert(a: SpectralField, v: SpectralField, cut: DyadicCutoff,
                tol: float = 1e-12, max_iter: int = 200) -> SpectralField:
    """Solve T_a w = v for a scalar or matrix symbol a (see para_invert_with_handle)."""
    return para_invert_with_handle(ParaOpHandle(a, cut), v, tol=tol, max_iter=max_iter)


para_invert_matrix = para_invert  # the former name for matrix symbols, kept for callers


def para_invert_with_handle(
    handle: ParaOpHandle,
    v: SpectralField,
    tol: float = 1e-12,
    max_iter: int = 200,
    w0: SpectralField | None = None,
) -> SpectralField:
    """Solve T_a w = v by the preconditioned Neumann iteration on a prebuilt handle.

    Iterates w <- w + mean(a)^{-1} (v - T_a w) from w0 (default mean(a)^{-1} v)
    until the relative L2 residual |v - T_a w| / |v| drops below tol; the
    forward application is always re-checked, so a returned w certifies itself.
    Raises ValueError for a tol not finite and > 0 or a w0 not shaped like v,
    GridMismatchError for a w0 on another grid, SingularAverageError when
    mean(a) is singular (for a scalar symbol: negligible against sup |a|),
    NonFiniteError at a non-finite residual and NonContractiveError at a stall.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if w0 is not None:
        handle.grid.require_same(w0.grid)
        if w0.shape != v.shape:
            raise ValueError(f"w0 has component shape {w0.shape}, v has {v.shape}")
    avg = np.atleast_2d(handle.avg)
    if handle.symbol.shape:
        cond = np.linalg.cond(avg)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularAverageError(f"mean symbol is singular (cond {cond:.3e})")
    else:
        scale = max(handle.symbol.sup_norm(), 1.0)
        if not abs(handle.avg) > 1e-13 * scale:  # NaN counts as singular
            raise SingularAverageError(
                f"symbol mean {handle.avg:.3e} is negligible against |a|_sup = {scale:.3e}"
            )
    pre = np.linalg.inv(avg).reshape(np.shape(handle.avg))
    vnorm = v.l2_norm()
    if vnorm == 0.0:
        return SpectralField(v.grid, np.zeros_like(v.coeffs))

    # the constant preconditioner acts exactly on coefficients, no transforms
    precond = lambda res: SpectralField(v.grid, handle.contract(pre, res.coeffs))
    w = precond(v) if w0 is None else w0
    history = []
    for _ in range(max_iter):
        r = v - handle.apply(w)
        rel = r.l2_norm() / vnorm
        if rel <= tol:
            return w
        if not math.isfinite(rel):
            raise NonFiniteError(
                f"para-inversion residual is {rel} after {len(history)} applications"
            )
        history.append(rel)
        if _stalled(history):
            break
        w = w + precond(r)
    raise NonContractiveError(
        f"para-inversion stalled at relative residual {history[-1]:.3e} "
        f"(tol {tol:.1e}); |a - mean(a)| is too large"
    )
