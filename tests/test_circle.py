"""Circle-map conjugacy solver: fixed-point map, solve modes, oracles."""

import math

import numpy as np
import pytest

from paratorus import (
    CircleProblem,
    DiffeomorphismLostError,
    MaxIterExceededError,
    NonContractiveError,
    NonFiniteError,
    RotationAngle,
    SpectralField,
    TorusGrid,
    certify,
    compose_f,
    delta_alpha,
    delta_alpha_inverse,
    g_map,
    make_cutoff,
    residual,
    rotation_number,
    solve,
)
import paratorus.circle as circle
import paratorus.paraprod as paraprod
from paratorus.paraprod import (
    ParaOpHandle, compose_levels, para_compose, para_invert_with_handle, para_product,
)
from paratorus.spectral import analyze, real_terms, synthesize, warp_samples

GOLDEN_ALPHA = math.pi * (math.sqrt(5.0) - 1.0)


def setup(K=64, s=3.0, amp=0.05, mode="standard", **kw):
    g = TorusGrid(1, K)
    alpha = RotationAngle.certify(GOLDEN_ALPHA, 1.0, K)
    f = SpectralField.from_modes(g, {1: -0.5j * amp})  # amp * sin(x)
    return CircleProblem(alpha=alpha, f=f, s=s, mode=mode, **kw)


def nan_field(u, lam):
    return SpectralField(u.grid, np.full_like(u.coeffs, np.nan)), lam


def stall(u, lam):
    raise NonContractiveError("para-inversion stalled")


def patch_g_map(monkeypatch, call, outcome):
    """Let circle.g_map hand its call-th result (u_next, lambda) to outcome instead."""
    real, calls = circle.g_map, []

    def patched(u, comp, problem, cut):
        calls.append(u)
        result = real(u, comp, problem, cut)
        return outcome(*result) if len(calls) == call else result

    monkeypatch.setattr(circle, "g_map", patched)
    return calls


# --- g_map ------------------------------------------------------------------


def step(u, problem, cut):
    """g_map from u, on the composition the solve carries for u."""
    return g_map(u, compose_f(u, problem, cut)[0], problem, cut)


def test_g_map_zero_problem():
    prob = setup(amp=0.0)
    g = prob.f.grid
    u1, lam = step(SpectralField.constant(g, 0.0), prob, make_cutoff(g))
    assert u1.l2_norm() == 0.0 and lam == 0.0


def test_g_map_first_iterate_single_mode_formula():
    prob = setup(K=64, amp=0.0)
    g = prob.f.grid
    eps = 0.01
    prob.f = SpectralField.from_modes(g, {1: eps / 2})  # eps cos x
    u1, lam = step(SpectralField.constant(g, 0.0), prob, make_cutoff(g))
    assert abs(lam) < 1e-14
    expect = SpectralField.from_modes(
        g, {1: (eps / 2) / (np.exp(1j * prob.alpha.alpha) - 1.0)}
    )
    assert (u1 - expect).l2_norm() < 1e-13


def test_g_map_with_mean_balances_lambda():
    prob = setup(amp=0.0)
    g = prob.f.grid
    m = 0.37
    prob.f = SpectralField.from_modes(g, {1: 0.005}) + m
    _, lam = step(SpectralField.constant(g, 0.0), prob, make_cutoff(g))
    assert abs(lam - m) < 1e-13


def test_g_map_equals_small_divisor_inverse_at_zero():
    prob = setup(amp=0.03)
    g = prob.f.grid
    u1, lam = step(SpectralField.constant(g, 0.0), prob, make_cutoff(g))
    direct = delta_alpha_inverse(prob.f, prob.alpha)
    assert (u1 - direct).l2_norm() < 1e-13
    assert abs(lam) < 1e-14


@pytest.mark.parametrize("mode", ["standard", "refined"])
def test_g_map_builds_three_handles(monkeypatch, mode):
    # T_{(1+u') o tau_alpha} and T_{1/(1+u')} serve the remainder and both
    # inversions; the remainder's symbol slope - f'(Id + u) makes the third
    prob = setup(amp=0.1, mode=mode)
    cut = make_cutoff(prob.f.grid)
    u, _ = step(SpectralField.constant(prob.f.grid, 0.0), prob, cut)
    comp, _ = compose_f(u, prob, cut)
    builds, inversions = [], []
    init, invert = ParaOpHandle.__init__, circle.para_invert_with_handle

    def counting_init(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)

    def counting_invert(*args, **kwargs):
        inversions.append(args[0])
        return invert(*args, **kwargs)

    monkeypatch.setattr(ParaOpHandle, "__init__", counting_init)
    monkeypatch.setattr(circle, "para_invert_with_handle", counting_invert)
    g_map(u, comp, prob, cut)
    assert len(builds) == 3 and len(inversions) == 2


def four_handle_g_map(u, comp, problem, cut):
    """The step as four handles and three inversions: separate remainders, lambda by inversion."""
    f, alpha = problem.f, problem.alpha
    one_du = u.derivative(0) + 1.0
    recip = analyze(u.grid, 1.0 / one_du.samples())
    H_fwd = ParaOpHandle(one_du.translate([alpha.alpha]), cut)
    H_recip = ParaOpHandle(recip, cut)
    comp, fprime_comp = comp[0], comp[1]  # compose_f's rows; refined mode appends chi* f
    slope_symbol = delta_alpha(u.derivative(0), alpha).product(recip)
    # R_1(u) = [Delta_alpha u - T_{Delta_alpha u'/(1+u')} u]
    #          - T_{(1+u') o tau_alpha} Delta_alpha T_{1/(1+u')} u
    r1 = (
        delta_alpha(u, alpha)
        - para_product(slope_symbol, u, cut)
        - H_fwd.apply(delta_alpha(H_recip.apply(u), alpha))
    )
    if problem.mode == "refined":
        chi_star = para_compose(f, SpectralField.stack([u]), cut)
        compose_rem = comp - chi_star - para_product(fprime_comp, u, cut)
        bracket = chi_star + compose_rem - r1
    else:
        pl = comp - f - para_product(fprime_comp, u, cut)
        bracket = f + pl - r1
    inv = lambda H, v: para_invert_with_handle(H, v, tol=1e-13, max_iter=300)
    gi = inv(H_fwd, bracket)
    onei = inv(H_fwd, SpectralField.constant(u.grid, 1.0))
    lam = gi.mean() / onei.mean()
    return inv(H_recip, delta_alpha_inverse(gi - lam * onei, alpha)), lam


@pytest.mark.parametrize("mode", ["standard", "refined"])
def test_g_map_matches_the_four_handle_step(mode):
    prob = setup(K=128, amp=0.1, mode=mode)
    prob.f = prob.f + SpectralField.from_modes(prob.f.grid, {2: 0.01 + 0.02j}) + 0.003
    cut = make_cutoff(prob.f.grid)
    u = SpectralField.constant(prob.f.grid, 0.0)
    for _ in range(3):  # a nonzero iterate
        u, _ = step(u, prob, cut)
    comp, _ = compose_f(u, prob, cut)
    u_next, lam = g_map(u, comp, prob, cut)
    ref_u, ref_lam = four_handle_g_map(u, comp, prob, cut)
    assert lam == ref_lam
    assert (u_next - ref_u).l2_norm() <= 1e-13 * ref_u.l2_norm()


# circle_golden's problem, where every cold inversion already returns after its one
# checking apply, so no start can save one; and amplitude 0.3, the top of circle_batch's ladder
@pytest.mark.parametrize("K, amp, share", [(256, 0.05, 1.0), (512, 0.3, 0.85)],
                         ids=["circle_golden", "amplitude-0.3"])
def test_warm_starts_cut_the_applies_of_a_solve(monkeypatch, K, amp, share):
    # the solve as shipped, and with both inversions started cold
    prob = setup(K=K, amp=amp, tol=1e-10, max_iter=30)
    applies = []
    apply = ParaOpHandle.apply
    monkeypatch.setattr(ParaOpHandle, "apply", lambda self, u: applies.append(1) or apply(self, u))
    warm = solve(prob)
    warm_applies = len(applies)
    invert = circle.para_invert_with_handle
    monkeypatch.setattr(circle, "para_invert_with_handle",
                        lambda *args, w0=None, **kwargs: invert(*args, **kwargs))
    applies.clear()
    cold = solve(prob)
    assert warm_applies <= share * len(applies)
    assert warm.report.iterations == cold.report.iterations
    assert (warm.u - cold.u).l2_norm() <= 1e-12 * cold.u.l2_norm()


def test_refined_g_map_sums_para_compose_to_the_bit():
    # f with a mean and modes in four levels besides the mean's: the base g_map reads, chi* f
    # summed from the block rows of compose_f's one warp, is the direct para_compose of f,
    # byte for byte
    prob = setup(K=128, amp=0.1, mode="refined")
    g = prob.f.grid
    prob.f = prob.f + SpectralField.from_modes(g, {3: 0.01j, 9: 0.002, 40: 5e-4 - 2e-4j}) + 0.003
    cut = make_cutoff(g)
    assert len(compose_levels(prob.f, cut)[0]) >= 4
    u = SpectralField.constant(g, 0.0)
    for _ in range(3):  # a nonzero iterate
        u, _ = step(u, prob, cut)
    comp = compose_f(u, prob, cut)[0]
    assert comp.shape == (3,)
    want = para_compose(prob.f, SpectralField.stack([u]), cut)
    assert comp[2].coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("mode, error, match", [
    ("refined", DiffeomorphismLostError, "displacement gradient reaches 1"),
    ("standard", NonContractiveError, "para-inversion stalled"),
])
def test_a_steep_iterate_with_a_positive_slope(mode, error, match):
    # u = 0.6 sin x + 0.225 sin 2x has sup |u'| = 1.05 but min (1 + u') = 0.45, so _reciprocal
    # lets it through; refined mode still refuses it, at para_compose's check of chi = Id + u
    prob = setup(K=64, mode=mode)
    g = prob.f.grid
    u = SpectralField.from_modes(g, {1: -0.3j, 2: -0.1125j})
    slope = u.derivative(0).samples()
    assert np.max(np.abs(slope)) == pytest.approx(1.05) and 1.0 + slope.min() == pytest.approx(0.45, abs=1e-3)
    with pytest.raises(error, match=match):
        step(u, prob, make_cutoff(g))


def test_g_map_rejects_lost_diffeomorphism():
    prob = setup()
    g = prob.f.grid
    steep = SpectralField.from_modes(g, {1: -0.6j})  # slope 1.2
    with pytest.raises(DiffeomorphismLostError):
        step(steep, prob, make_cutoff(g))


# --- solve -------------------------------------------------------------------


def test_solve_zero_perturbation_single_iteration():
    sol = solve(setup(amp=0.0))
    assert sol.u.l2_norm() == 0.0
    assert sol.lam == 0.0
    assert sol.report.iterations == 1


@pytest.mark.parametrize("mode", ["standard", "refined", "naive"])
def test_solve_composes_f_once_per_iterate(monkeypatch, mode):
    # f o (Id + u) is composed when an iterate is produced and then read by its residual row,
    # the step from it and, for the last iterate, the tail and kappa: n + 1 compositions for
    # n steps, u = 0 included; refined mode composes f's blocks in the same warp, so no step
    # calls para_compose
    calls = {"circle": 0, "paraprod": 0}
    for module in (circle, paraprod):
        def counting(*args, _real=module.compose_warped, _name=module.__name__, **kwargs):
            calls[_name.split(".")[-1]] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "compose_warped", counting)
    sol = solve(setup(K=128, amp=0.2, mode=mode))
    n = sol.report.iterations
    assert n >= 5
    assert calls == {"circle": n + 1, "paraprod": 0}


def test_solve_golden_mean_acceptance_problem():
    sol = solve(setup(K=256, amp=0.05, tol=1e-10, max_iter=30))
    assert sol.report.iterations <= 30
    assert sol.report.extras["residual_sup"] <= 1e-9
    assert sol.report.extras["kappa"] < 0.1
    assert sol.report.extras["min_one_plus_du"] > 0.0


def test_conjugacy_law_pointwise():
    # eta(x + alpha) = T(eta(x)) on 512 sample points, T = x + alpha + f - lambda
    prob = setup(K=256, amp=0.05)
    sol = solve(prob)
    alpha = prob.alpha.alpha
    x = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    eta = x + synthesize(sol.u, x)
    eta_shift = (x + alpha) + synthesize(sol.u, (x + alpha) % (2 * np.pi))
    T_eta = eta + alpha + synthesize(prob.f, np.mod(eta, 2 * np.pi)) - sol.lam
    assert np.max(np.abs(eta_shift - T_eta)) < 1e-8


def test_rotation_number_oracle_examples():
    prob = setup(K=64, amp=0.0)
    alpha = prob.alpha.alpha
    zero = SpectralField.constant(prob.f.grid, 0.0)
    rho = rotation_number(alpha, zero, 0.0, 2000)
    assert abs(rho - alpha) < 1e-12  # pure rotation: exact at any orbit length
    rho_shift = rotation_number(alpha, zero, 0.1, 2000)
    assert abs(rho_shift - (alpha - 0.1)) < 1e-12


def test_a_plain_angle_gives_the_bits_of_the_certified_one():
    """float() reads a RotationAngle as its alpha, so the angle and its float give bit-identical
    differences, inverses and rotation numbers."""
    prob = setup(K=64, amp=0.05)
    alpha, plain = prob.alpha, prob.alpha.alpha
    u = SpectralField.from_modes(prob.f.grid, {1: 0.01 - 0.02j, 3: 0.004j})
    assert np.array_equal(delta_alpha(u, alpha).coeffs, delta_alpha(u, plain).coeffs)
    inverse = lambda a: delta_alpha_inverse(prob.f, a).coeffs
    assert np.array_equal(inverse(alpha), inverse(plain))
    assert rotation_number(alpha, prob.f, 0.01, 500) == rotation_number(plain, prob.f, 0.01, 500)


def rotation_number_per_step(alpha, f, lam, iterations, x0=0.1):
    """Reference orbit: f evaluated at each step by one NumPy sum over its complex modes."""
    cmax = float(np.max(np.abs(f.coeffs)))
    mask = np.abs(f.coeffs.ravel()) > 1e-15 * max(cmax, 1.0)
    modes = f.grid.mode_list[mask][:, 0].astype(float)
    coeffs = f.coeffs.ravel()[mask]
    y = x0 % (2.0 * np.pi)
    total = 0.0
    for _ in range(iterations):
        fval = float(np.real(coeffs @ np.exp(1j * modes * y)))
        step = alpha + fval - lam
        total += step
        y = (y + step) % (2.0 * np.pi)
    return total / iterations


@pytest.mark.parametrize("n_modes", range(1, 7))
def test_rotation_number_matches_per_step_reference(n_modes):
    K, m = 32, 20_000
    g = TorusGrid(1, K)
    rng = np.random.default_rng(100 + n_modes)
    # a nonzero mean, the top mode K and n_modes - 1 others, with sup|f'| < 1
    ks = [K] + [int(k) for k in rng.choice(np.arange(1, K), n_modes - 1, replace=False)]
    modes = {0: 0.05 * rng.standard_normal()}
    for k in ks:
        modes[k] = (0.1 / (k * n_modes)) * (rng.standard_normal() + 1j * rng.standard_normal())
    f = SpectralField.from_modes(g, modes)
    lam = 0.03
    rho = rotation_number(GOLDEN_ALPHA, f, lam, m)
    rho_ref = rotation_number_per_step(GOLDEN_ALPHA, f, lam, m)
    B = GOLDEN_ALPHA + f.sup_norm() + lam + 2.0 * np.pi * f.derivative(0).sup_norm()
    assert abs(rho - rho_ref) <= m * np.finfo(float).eps * B


@pytest.mark.parametrize("iterations", [0, -5, 2.5, float("nan")])
def test_rotation_number_rejects_bad_iterations(iterations):
    f = SpectralField.constant(TorusGrid(1, 8), 0.0)
    with pytest.raises(ValueError, match="iterations"):
        rotation_number(GOLDEN_ALPHA, f, 0.0, iterations)


def written_out_fold(f):
    """The fold rotation_number wrote out before it read spectral.real_terms: (a0, [(k, a, b)])."""
    c = f.coeffs.ravel()
    cmax = float(np.max(np.abs(c)))
    kept = np.where(np.abs(c) > 1e-15 * max(cmax, 1.0), c, 0.0)
    K = f.grid.max_mode  # c[K + k] is the coefficient of mode k
    terms = [
        (float(k), float(kept[K + k].real + kept[K - k].real),
         float(kept[K - k].imag - kept[K + k].imag))
        for k in range(1, K + 1)
        if kept[K + k] != 0 or kept[K - k] != 0
    ]
    return float(kept[K].real), terms


@pytest.mark.parametrize("seed", range(6))
def test_rotation_number_reads_the_bits_of_the_written_out_fold(seed):
    # Hermitian f with no coefficient between the old threshold 1e-15 max(cmax, 1) and the new
    # 1e-15 cmax: amplitudes below and above 1, and sine-only modes for odd seeds
    K = 64
    g = TorusGrid(1, K)
    rng = np.random.default_rng(200 + seed)
    amp = 0.05 if seed < 3 else 3.0
    coeff = lambda: 1j if seed % 2 else rng.standard_normal() + 1j * rng.standard_normal()
    modes = {int(k): amp / k * coeff() for k in rng.choice(np.arange(1, K + 1), 6, replace=False)}
    f = SpectralField.from_modes(g, {0: 0.01 * rng.standard_normal(), **modes})
    modes, table = real_terms(f)
    m = modes.shape[1]
    a0, terms = written_out_fold(f)
    assert float(table[-1]) == a0 and len(terms) == 6
    assert list(zip(modes[0].tolist(), table[:m].tolist(), table[m:-1].tolist())) == terms
    total, y, lam = 0.0, 0.1, 0.002  # the orbit loop of rotation_number on the written-out terms
    for _ in range(2000):
        fval = a0
        for k, a, b in terms:
            fval += a * math.cos(k * y) + b * math.sin(k * y)
        step = GOLDEN_ALPHA + fval - lam
        total += step
        y = (y + step) % (2.0 * math.pi)
    assert rotation_number(GOLDEN_ALPHA, f, lam, 2000) == total / 2000


@pytest.mark.parametrize("k, value", [(3, np.nan), (-1, np.inf)], ids=["nan-at-3", "inf-at-minus-1"])
def test_rotation_number_carries_a_non_finite_coefficient(k, value):
    # a NaN or infinite maximum used to make the threshold drop every term, giving alpha - lambda
    f = SpectralField.from_modes(TorusGrid(1, 8), {1: 0.01j, 2: 0.003})
    f.coeffs[8 + k] = value  # K = 8
    assert not math.isfinite(rotation_number(2.0, f, 0.0, 1000))


def test_rotation_number_and_circle_problems_need_a_scalar_field_on_the_circle():
    g = TorusGrid(1, 8)
    f = SpectralField.from_modes(g, {1: 0.01j})
    flat = SpectralField.from_modes(TorusGrid(2, 8), {(1, 0): 0.01j})
    for bad in (flat, SpectralField.stack([f, f])):
        with pytest.raises(ValueError, match=r"scalar f on T\^1"):
            rotation_number(2.0, bad, 0.0, 10)
    alpha = RotationAngle.certify(GOLDEN_ALPHA, 1.0, 8)
    with pytest.raises(ValueError, match=r"scalar f on T\^1"):
        CircleProblem(alpha=alpha, f=SpectralField.stack([f]), s=3.0)


def test_rotation_number_of_solved_map():
    prob = setup(K=256, amp=0.05)
    sol = solve(prob)
    rho = rotation_number(prob.alpha.alpha, prob.f, sol.lam, 100_000)
    assert abs(rho - prob.alpha.alpha) <= 1e-6


def test_manufactured_solution_residual_and_lambda():
    # build f from a chosen u with lambda = 0: then x + alpha + f has rotation
    # number alpha and the solved lambda sits at residual scale
    K = 256
    g = TorusGrid(1, K)
    alpha = RotationAngle.certify(GOLDEN_ALPHA, 1.0, K)
    u_true = SpectralField.from_modes(g, {1: -0.015j, 2: 0.008, 3: 0.002j})
    G = delta_alpha(u_true, alpha)
    # f = G o (Id + u)^{-1} by inverting the warp pointwise
    base = np.stack(g.point_mesh)
    theta = base.copy()
    for _ in range(200):
        theta = base - np.stack([warp_samples(u_true, theta)])
    f = analyze(g, warp_samples(G, theta))
    prob = CircleProblem(alpha=alpha, f=f, s=3.0, tol=1e-12, max_iter=40)
    field, sup, _ = residual(u_true, 0.0, prob)
    assert sup < 1e-11  # manufactured pair satisfies the equation
    sol = solve(prob)
    assert abs(sol.lam) <= 1e-9
    assert (sol.u - u_true).sobolev_norm(3.0) < 1e-8


def test_residual_trivial_cases():
    prob = setup(K=64, amp=0.0)
    g = prob.f.grid
    zero = SpectralField.constant(g, 0.0)
    field, sup, hs = residual(zero, 0.0, prob)
    assert sup == 0.0 and hs == 0.0
    prob.f = SpectralField.constant(g, 0.4)
    field, sup, hs = residual(zero, 0.4, prob)
    assert sup < 1e-13


def test_solve_reports_monotone_tail_contraction():
    sol = solve(setup(K=256, amp=0.05))
    incs = [r["increment_hs"] for r in sol.report.rows]
    tail = incs[-4:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_max_iter_exceeded_attaches_report():
    prob = setup(K=64, amp=0.05, tol=1e-30, max_iter=3)
    prob.tol = 1e-30
    with pytest.raises(MaxIterExceededError) as err:
        solve(prob)
    assert err.value.report is not None
    assert err.value.report.iterations == 3


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_problem_rejects_a_tol_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        setup(K=16, tol=tol)


def test_max_iter_below_one_is_rejected_before_the_first_step(monkeypatch):
    calls = patch_g_map(monkeypatch, 1, nan_field)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve(setup(K=16, max_iter=0))
    assert calls == []


def test_non_finite_step_stops_the_solve_at_once(monkeypatch):
    calls = patch_g_map(monkeypatch, 2, nan_field)
    with pytest.raises(NonFiniteError, match="increment_hs is nan at iteration 2") as err:
        with np.errstate(all="ignore"):
            solve(setup(K=64, amp=0.05, tol=1e-30, max_iter=10))
    assert len(calls) == 2
    assert err.value.report.status == "non_finite"
    assert err.value.report.iterations == 2


def test_solver_error_in_a_step_attaches_the_partial_report(monkeypatch):
    patch_g_map(monkeypatch, 3, stall)
    with pytest.raises(NonContractiveError) as err:
        solve(setup(K=64, amp=0.05, tol=1e-30, max_iter=10))
    assert err.value.report.status == "failed"
    assert err.value.report.iterations == 2


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_problem_rejects_a_non_finite_coefficient(value):
    prob = setup(K=16)
    prob.f.coeffs[17] = value
    with pytest.raises(NonFiniteError, match="f has a non-finite coefficient"):
        CircleProblem(alpha=prob.alpha, f=prob.f, s=prob.s)


def test_problem_rejects_an_angle_certified_below_the_grid_before_the_first_step(monkeypatch):
    # gamma certified on fewer modes than the grid keeps is not the gamma of the solve
    def no_step(*args):
        raise AssertionError("a step ran before alpha's certified modes were checked")

    monkeypatch.setattr(circle, "g_map", no_step)
    prob = setup(K=16)
    alpha = RotationAngle.certify(GOLDEN_ALPHA, 1.0, 2)
    with pytest.raises(ValueError, match="alpha is certified on K = 2, below the grid's K = 16"):
        solve(CircleProblem(alpha=alpha, f=prob.f, s=prob.s))


def test_problem_rejects_an_uncertified_angle():
    prob = setup(K=16)
    with pytest.raises(TypeError, match="alpha must be a RotationAngle, got float"):
        CircleProblem(alpha=GOLDEN_ALPHA, f=prob.f, s=prob.s)


def test_summary_reports_the_certified_gamma():
    prob = setup(K=16, amp=0.02)
    assert solve(prob).report.extras["gamma"] == prob.alpha.gamma


# --- certification -------------------------------------------------------------


def test_certify_zero_residual():
    prob = setup(K=64, amp=0.0)
    g = prob.f.grid
    kappa = certify(SpectralField.constant(g, 0.0), 0.0, prob, make_cutoff(g))
    assert kappa == 0.0


def test_certify_converged_run_small():
    prob = setup(K=256, amp=0.05)
    sol = solve(prob)
    kappa = certify(sol.u, sol.lam, prob, make_cutoff(prob.f.grid))
    assert kappa < 0.1


def test_certify_flags_near_degenerate_state():
    # steep u against a low-mode residual pushes the certificate past 1
    prob = setup(K=64, amp=0.05)
    g = prob.f.grid
    u = SpectralField.from_modes(g, {1: -0.495j})  # slope 0.99
    kappa = certify(u, 0.0, prob, make_cutoff(g))
    assert kappa >= 1.0


# --- modes ----------------------------------------------------------------------


def test_refined_mode_agrees_with_standard():
    std = solve(setup(K=256, amp=0.05, mode="standard"))
    ref = solve(setup(K=256, amp=0.05, mode="refined"))
    assert (std.u - ref.u).sobolev_norm(3.0) <= 1e-7


def test_naive_mode_converges_small_amplitude():
    sol = solve(setup(K=256, amp=0.05, mode="naive"))
    assert sol.report.extras["residual_sup"] < 1e-9


def test_naive_breaks_before_standard_in_amplitude():
    # expected qualitative ordering: the unconditioned iteration stagnates
    # at an amplitude the para-form still resolves
    def terminal(amp, mode):
        try:
            sol = solve(setup(K=256, amp=amp, mode=mode, max_iter=60))
            return True, sol.report.extras["residual_sup"]
        except MaxIterExceededError as err:
            return False, min(r["residual_sup"] for r in err.report.rows)
        except DiffeomorphismLostError:
            return False, np.inf

    naive_fail = None
    for amp in (0.20, 0.25, 0.30, 0.35, 0.40):
        ok, _ = terminal(amp, "naive")
        if not ok:
            naive_fail = amp
            break
    assert naive_fail is not None, "naive mode never degraded in the sweep"
    std_ok, std_res = terminal(naive_fail, "standard")
    assert std_ok and std_res <= 1e-9
    _, naive_res = terminal(naive_fail, "naive")
    assert naive_res > std_res  # strictly worse where it first stagnates


def test_solver_reports_truncation_tail():
    sol = solve(setup(K=256, amp=0.05))
    assert sol.report.extras["compose_tail_energy"] < 1e-12
