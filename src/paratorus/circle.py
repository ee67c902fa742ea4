"""Circle-map conjugacy by direct fixed-point iteration on the para-inverse form.

Solves eta(x + alpha) = eta(x) + alpha + f(eta(x)) - lambda with eta = Id + u,
rearranged as Delta_alpha u = f o (Id + u) - lambda. One Picard step inverts
    T_{1/(1+u')} Delta_alpha T_{(1+u') o tau_alpha}
against the fully evaluated right-hand side, with both smoothing remainders
computed as one literal difference: two Neumann inversions per step, the mean
balance lambda in closed form. A naive baseline iterates the unconditioned
equation and is expected to degrade first as the perturbation grows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCutoff, make_cutoff
from .errors import DiffeomorphismLostError, NonFiniteError
from .paraprod import ParaOpHandle, compose_levels, para_invert_with_handle, para_product
from .paraprod import require_diffeomorphism
from .reporting import SolveReport, picard
from .smalldiv import RotationAngle, delta_alpha, delta_alpha_inverse, remove_mean
from .spectral import SpectralField, analyze, compose_warped, real_terms

MODES = ("standard", "refined", "naive")  # the first is the CLI default

CIRCLE_COLUMNS = ["iter", "increment_hs", "residual_sup", "residual_hs", "lambda"]

_INVERT_TOL = 1e-13  # relative residual of every Neumann para-inversion in g_map
_INVERT_MAX_ITER = 300


@dataclass
class CircleProblem:
    alpha: RotationAngle
    f: SpectralField
    s: float
    tol: float = 1e-10
    max_iter: int = 40
    mode: str = "standard"

    def __post_init__(self):
        if self.f.grid.dim != 1 or self.f.shape:
            raise ValueError("circle problems need a scalar f on T^1")
        if not isinstance(self.alpha, RotationAngle):  # the summary reads its gamma
            raise TypeError(f"alpha must be a RotationAngle, got {type(self.alpha).__name__}")
        if self.alpha.certified_modes < self.f.grid.max_mode:
            raise ValueError(f"alpha is certified on K = {self.alpha.certified_modes}, "
                             f"below the grid's K = {self.f.grid.max_mode}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):  # the driver checks max_iter
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if not np.all(np.isfinite(self.f.coeffs)):
            raise NonFiniteError("f has a non-finite coefficient")


@dataclass
class CircleSolution:
    u: SpectralField
    lam: float
    report: SolveReport


def _one_plus_du(u: SpectralField) -> SpectralField:
    return u.derivative(0) + 1.0


def _reciprocal(field: SpectralField) -> SpectralField:
    vals = field.samples()
    low = float(np.min(vals))
    if low <= 1e-10:
        raise DiffeomorphismLostError(f"1 + u' reaches {low:.3e}: not a diffeomorphism")
    return analyze(field.grid, 1.0 / vals)


def compose_f(u: SpectralField, problem: CircleProblem, cut: DyadicCutoff):
    """([f o (Id + u), f' o (Id + u)], in refined mode followed by chi* f, as the rows of one
    field; the truncation tails of the composed rows).

    All rows come from one warp: refined mode composes the blocks of paraprod.compose_levels(f,
    cut) with f and f', sharing their phase tables (the blocks' modes lie inside f's), and sums
    them against its windows into chi* f = para_compose(f, u, cut), to the bit.
    """
    f, refined = problem.f, problem.mode == "refined"
    blocks, windows = compose_levels(f, cut) if refined else ((), None)
    rows = SpectralField(f.grid, np.stack([f.coeffs, f.derivative(0).coeffs, *blocks]))
    comp, tails = compose_warped(rows, SpectralField.stack([u]), return_tail=True)
    if refined:
        chi_star = np.einsum("l...,l...->...", windows, comp.coeffs[2:])
        comp = SpectralField(f.grid, np.stack([comp.coeffs[0], comp.coeffs[1], chi_star]))
    return comp, tails


def g_map(u: SpectralField, comp: SpectralField, problem: CircleProblem, cut: DyadicCutoff):
    """One application of the para-inverse right-hand side; returns (u_next, lambda).

    comp is the field compose_f returns for u. With base = f (or chi* f in refined mode), both
    smoothing remainders are one literal difference, T_a being linear in its symbol a:
        rem = f o (Id + u) - base - Delta_alpha u + T_{slope - f' o (Id + u)} u
              + T_{(1+u') o tau_alpha} Delta_alpha T_{1/(1+u')} u,
    slope = Delta_alpha u' / (1 + u'); chi* f is comp[2], read once require_diffeomorphism(u)
    passes. T_{(1+u') o tau_alpha} is inverted on base + rem; since T_a c = mean(a) c, lambda
    balances the mean in closed form, and the small-divisor inverse is followed by the outer
    inversion of T_{1/(1+u')}. Three handles per step: those two and the remainder's. The inversions
    start one Neumann step past d + mean(base + rem) / mean(a), d = Delta_alpha T_{1/(1+u')} u
    (mean(T_a w) = mean(a) mean(w)), and past u, on applies that rem already made.
    """
    f, alpha = problem.f, problem.alpha
    one_du = _one_plus_du(u)
    recip = _reciprocal(one_du)
    H_fwd = ParaOpHandle(one_du.translate([float(alpha)]), cut)
    H_recip = ParaOpHandle(recip, cut)

    slope_symbol = delta_alpha(u.derivative(0), alpha).product(recip)
    base = f
    if problem.mode == "refined":
        require_diffeomorphism(u)
        base = comp[2]
    recip_u = H_recip.apply(u)
    d = delta_alpha(recip_u, alpha)
    fwd_d = H_fwd.apply(d)
    rest = comp[0] - base - delta_alpha(u, alpha) + para_product(slope_symbol - comp[1], u, cut)
    rhs = base + (rest + fwd_d)  # base + rem

    inv = lambda H, v, w0: para_invert_with_handle(H, v, _INVERT_TOL, _INVERT_MAX_ITER, w0=w0)
    gi = inv(H_fwd, rhs, d + (base + rest) * (1.0 / H_fwd.avg))
    lam = H_fwd.avg * gi.mean()  # T_fwd^{-1} 1 = 1 / mean(a)
    v = delta_alpha_inverse(gi - gi.mean(), alpha)
    u_next = inv(H_recip, v, u + (v - recip_u) * (1.0 / H_recip.avg))
    return u_next, lam


def residual(u: SpectralField, lam: float, problem: CircleProblem, comp=None):
    """Conjugacy defect Delta_alpha u - f o (Id + u) + lambda and its norms.

    comp is f o (Id + u) if it is already composed; otherwise residual composes it.
    """
    if comp is None:
        comp = compose_warped(problem.f, SpectralField.stack([u]))
    field = delta_alpha(u, problem.alpha) - comp + lam
    return field, field.sup_norm(), field.sobolev_norm(problem.s)


def certify(u: SpectralField, lam: float, problem: CircleProblem, cut: DyadicCutoff,
            comp=None) -> float:
    """Neumann certificate kappa = |T_{E'/(1+u')} u|_{H^s} / |E|_{H^s}.

    kappa < 1 certifies that the para-homological solution annihilates the
    residual up to discretization; the operator is applied to the measured
    residual E itself. comp is f o (Id + u) if it is already composed (see residual).
    """
    E, _, _ = residual(u, lam, problem, comp)
    denom = E.sobolev_norm(problem.s)
    if denom == 0.0:
        return 0.0
    symbol = E.derivative(0).product(_reciprocal(_one_plus_du(u)))
    return para_product(symbol, u, cut).sobolev_norm(problem.s) / denom


def solve(problem: CircleProblem) -> CircleSolution:
    """Picard iteration of the para-inverse equation from u = 0, run by reporting.picard.

    A step is one g_map (or one naive step) with its H^s increment and
    residual. It stops when the increment drops below tol, with a secondary
    stop on residual sup-norm below tol/10 (stop_rule increment or residual);
    the driver raises MaxIterExceededError or NonFiniteError with the partial
    report attached. Between steps the driver holds (u, lambda, compose_f(u)):
    each iterate is composed once, when it is produced, and that composition
    serves its residual row, the next step and, for the last iterate, the
    truncation tail and kappa.
    """
    grid = problem.f.grid
    cut = make_cutoff(grid)

    def step(state):
        u, _, (comp, _) = state
        if problem.mode == "naive":  # Delta_alpha u = f o (Id + u) - lambda, unconditioned
            u_next, lam = delta_alpha_inverse(remove_mean(comp[0]), problem.alpha), comp[0].mean()
        else:
            u_next, lam = g_map(u, comp, problem, cut)
        inc = (u_next - u).sobolev_norm(problem.s)
        composed = compose_f(u_next, problem, cut)
        _, res_sup, res_hs = residual(u_next, lam, problem, composed[0][0])
        row = {"increment_hs": inc, "residual_sup": res_sup, "residual_hs": res_hs, "lambda": lam}
        stop = "increment" if inc < problem.tol else "residual" if res_sup < problem.tol / 10 else None
        return (u_next, lam, composed), row, stop

    u0 = SpectralField.constant(grid, 0.0)
    start = (u0, 0.0, compose_f(u0, problem, cut))
    (u, lam, (comp, tails)), report = picard(step, start, CIRCLE_COLUMNS, problem.max_iter)
    # terminal diagnostics
    slope = _one_plus_du(u).samples()
    report.extras["min_one_plus_du"] = float(np.min(slope))
    report.extras["compose_tail_energy"] = float(tails[0])
    report.extras["lambda"] = lam
    report.extras["gamma"] = problem.alpha.gamma
    report.extras["u_hs"] = u.sobolev_norm(problem.s)
    if problem.mode != "naive":
        report.extras["kappa"] = certify(u, lam, problem, cut, comp[0])
    if len(report.rows) >= 2:
        incs = [r["increment_hs"] for r in report.rows[-5:]]
        ratios = [b / a for a, b in zip(incs, incs[1:]) if a > 0]
        if ratios:
            report.extras["contraction"] = max(ratios)
    if float(np.min(slope)) <= 0.0:
        raise DiffeomorphismLostError("converged u is not a diffeomorphism")
    return CircleSolution(u=u, lam=lam, report=report)


def rotation_number(
    alpha: float, f: SpectralField, lam: float, iterations: int, x0: float = 0.1
) -> float:
    """Birkhoff-averaged rotation number of the lifted map x -> x + alpha + f(x) - lambda.

    Independent orbit oracle: averages the per-step displacement over the
    orbit, which equals (T^m(x0) - x0)/m for the lift. spectral.real_terms folds the
    modes k and -k of f into one real pair, f(y) = a_0 + sum_k a_k cos(k y) + b_k sin(k y)
    in ascending k, so each step runs on Python floats only. f must be a scalar field on T^1.
    """
    if not isinstance(iterations, numbers.Integral) or iterations < 1:
        raise ValueError(f"iterations must be an integer >= 1, got {iterations!r}")
    if f.grid.dim != 1 or f.shape:
        raise ValueError(f"rotation_number needs a scalar f on T^1, got {f.shape} on T^{f.grid.dim}")
    alpha, lam = float(alpha), float(lam)
    modes, table = real_terms(f)
    a0, m = float(table[-1]), modes.shape[1]
    terms = list(zip(modes[0].tolist(), table[:m].tolist(), table[m:-1].tolist()))
    two_pi = 2.0 * math.pi
    cos, sin = math.cos, math.sin
    y = x0 % two_pi
    total = 0.0
    for _ in range(iterations):
        fval = a0
        for k, a, b in terms:
            ky = k * y
            fval += a * cos(ky) + b * sin(ky)
        step = alpha + fval - lam
        total += step
        y = (y + step) % two_pi
    return total / iterations
