"""Benchmark workloads: seeded inputs, the measured unit of work, the correctness gate.

Each workload turns a seed into a list of cases. Set-up (everything in
``make_cases``) parses the generated coefficients through the library's own
JSON boundary, builds the grids and certifies the frequencies, exactly as
``cli.run_circle`` / ``cli.run_torus`` do before they solve. The unit of work
is one case: ``run_case`` drives the public API in the CLI's order, solve and
then the independent oracle. Every solve is checked; a miss is counted, never
raised.

The inputs are chosen so that the amount of work barely depends on the seed:
the seed only moves phases (and, for the circle, a decay rate in a narrow
band), never amplitudes, mode sets or sizes.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import paratorus as pt
from paratorus.spectral import SERIALIZATION_THRESHOLD

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CIRCLE_MODES = ("standard", "refined")

# correctness gate
CIRCLE_RESIDUAL_MAX = 1e-9
CIRCLE_KAPPA_MAX = 0.1
CIRCLE_MODE_AGREEMENT_HS = 1e-7  # |u_standard - u_refined|_{H^3}
TORUS_RESIDUAL_MAX = 1e-8
TORUS_COUNTERTERM_MAX = 1e-9
TORUS_KAPPA_MAX = 1.0
FLOW_DEVIATION_MAX = 1e-6


# circle problems: golden-mean rotation, certified with sigma = 1
ALPHA = 2.0 * math.pi * GOLDEN
SIGMA = 1.0
SOBOLEV_S = 3.0
SOLVE_TOL = 1e-10
CIRCLE_MAX_ITER = 40
CIRCLE_DECAY = (0.29, 0.31)  # mode k has size amplitude * r^(k-1), r seeded in this band
# torus problems: thm1, a1 = omega, Q = I
TORUS_MAX_ITER = 50
SPARSE_MODES = ((1, 0), (0, 1), (1, 1))
SPARSE_AMPLITUDE = 0.005  # a0 = amp * sum_k cos(k.theta + phase_k)
DENSE_EPS = 0.002  # a0 = eps * exp(c1 cos(th1 + p1) + c2 cos(th2 + p2))
DENSE_C = (1.0, 1.0)
FLOW_DT = 1e-3


@dataclass(frozen=True)
class CircleSpec:
    """A ladder of circle problems; problem i has i + 1 modes and amplitude amplitudes[i]."""

    K: int
    amplitudes: tuple
    oracle_steps: int


@dataclass(frozen=True)
class TorusSpec:
    """One torus problem with a sparse or dense seeded a0, verified over flow time T."""

    K: int
    dense: bool
    T: float
    omega: tuple = (1.0, GOLDEN)


# a workload's spec is a CircleSpec (one case per amplitude) or a tuple of
# TorusSpecs (one case each)
SPECS = {
    "circle_batch": {
        "full": CircleSpec(K=512, amplitudes=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
                           oracle_steps=100_000),
        "smoke": CircleSpec(K=64, amplitudes=(0.05, 0.10), oracle_steps=2000),
    },
    "torus_pair": {
        "full": (TorusSpec(K=32, dense=False, T=10.0), TorusSpec(K=12, dense=True, T=10.0)),
        "smoke": (TorusSpec(K=8, dense=False, T=0.5), TorusSpec(K=6, dense=True, T=0.5)),
    },
}


@dataclass
class Case:
    """Inputs of one problem, or the error that stopped its set-up."""

    label: str
    spec: CircleSpec | TorusSpec
    inputs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def solves(self) -> int:
        return len(CIRCLE_MODES) if isinstance(self.spec, CircleSpec) else 1


@dataclass
class CaseRun:
    """What one solve-and-verify pass over one case measured and found."""

    solve_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    solutions: list = field(default_factory=list)  # (label, case, solution) per returned solve
    digest: str = ""

    @property
    def time_to_verified_s(self) -> float:
        return self.solve_s + self.verify_s


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --- inputs --------------------------------------------------------------------


def _circle_field(spec: CircleSpec, amplitude: float, n_modes: int, rng) -> pt.SpectralField:
    """f = sum_k amplitude r^(k-1) sin(k x + phase_k), k = 1..n_modes, as mode entries."""
    r = rng.uniform(*CIRCLE_DECAY)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_modes)
    entries = []
    for k in range(1, n_modes + 1):
        # c sin(kx + p) = (c / 2i) e^{i(kx + p)} + conj
        c = amplitude * r ** (k - 1) * np.exp(1j * phases[k - 1]) / 2j
        entries.append({"k": [k], "re": float(c.real), "im": float(c.imag)})
    return pt.field_from_json({"dim": 1, "K": spec.K, "coeffs": entries})


def _circle_cases(spec: CircleSpec, rng) -> list:
    cases = []
    for i, amp in enumerate(spec.amplitudes):
        case = Case(label=f"circle[{i}] amplitude={amp:g} modes={i + 1}", spec=spec)
        try:
            f = _circle_field(spec, amp, i + 1, rng)
            alpha = pt.RotationAngle.certify(ALPHA, SIGMA, spec.K)
            case.inputs = {
                "alpha": alpha,
                "f": f,
                "problems": {
                    mode: pt.CircleProblem(
                        alpha=alpha, f=f, s=SOBOLEV_S, tol=SOLVE_TOL,
                        max_iter=CIRCLE_MAX_ITER, mode=mode,
                    )
                    for mode in CIRCLE_MODES
                },
            }
        except Exception as exc:  # a rejected input is a counted failure, not a crash
            case.error = _error_text(exc)
        cases.append(case)
    return cases


def _dense_coeffs(spec: TorusSpec, phases) -> np.ndarray:
    """Fourier coefficients of eps * exp(c1 cos(th1 + p1)) exp(c2 cos(th2 + p2)), |k_i| <= K."""
    K = spec.K
    M = 8 * K  # the factors' coefficients decay like 1/k!, so M points alias nothing visible
    x = 2.0 * math.pi * np.arange(M) / M
    axis = np.arange(-K, K + 1)
    factors = []
    for c, p in zip(DENSE_C, phases):
        full = np.fft.fft(np.exp(c * np.cos(x + p))) / M
        factors.append(full[axis % M])
    return DENSE_EPS * np.multiply.outer(factors[0], factors[1])


def _torus_a0(spec: TorusSpec, rng) -> pt.SpectralField:
    K = spec.K
    entries = []
    if spec.dense:
        coeffs = _dense_coeffs(spec, rng.uniform(0.0, 2.0 * math.pi, 2))
        for idx in zip(*np.nonzero(np.abs(coeffs) > SERIALIZATION_THRESHOLD)):
            c = coeffs[idx]
            entries.append({"k": [int(i) - K for i in idx], "re": float(c.real), "im": float(c.imag)})
    else:
        for k in SPARSE_MODES:
            c = 0.5 * SPARSE_AMPLITUDE * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            entries.append({"k": list(k), "re": float(c.real), "im": float(c.imag)})
    return pt.field_from_json({"dim": 2, "K": K, "coeffs": entries})


def _torus_case(spec: TorusSpec, rng) -> Case:
    kind = "dense" if spec.dense else "sparse"
    case = Case(label=f"torus[{kind}] K={spec.K}", spec=spec)
    try:
        a0 = _torus_a0(spec, rng)
        theta0 = rng.uniform(0.0, 2.0 * math.pi, 2)
        grid = a0.grid
        omega = pt.FrequencyVector.certify(list(spec.omega), SIGMA, spec.K)
        h = pt.HamiltonianData(
            a0=a0,
            a1=pt.VectorField([pt.SpectralField.constant(grid, w) for w in spec.omega]),
            Q=pt.MatrixField.constant(grid, np.eye(2)),
        )
        case.inputs = {"h": h, "omega": omega, "theta0": theta0}
    except Exception as exc:  # a rejected input is a counted failure, not a crash
        case.error = _error_text(exc)
    return case


def make_cases(spec, seed: int) -> list:
    """All cases of one workload's spec, generated from the seed alone."""
    rng = np.random.default_rng(seed)
    if isinstance(spec, CircleSpec):
        return _circle_cases(spec, rng)
    return [_torus_case(s, rng) for s in spec]


def count_nonzero_modes(cases: list) -> list:
    """Nonzero retained coefficients of each torus a0 (none for circle cases)."""
    return [int(np.count_nonzero(c.inputs["h"].a0.coeffs)) for c in cases if "h" in c.inputs]


# --- one unit of work --------------------------------------------------------------


def _circle_rotation_bound(spec: CircleSpec, f, sol) -> float:
    """Allowed |rho - alpha| after m oracle steps.

    The conjugacy gives T^m(x0) = eta(xi0 + m alpha), so the finite-orbit
    estimate is off by at most osc(u)/m <= 2 sup|u|/m. The residual adds at most
    residual_sup per step; naive summation of m steps of size <= B, with B
    including the propagation of the per-step rounding of the angle through f',
    adds at most m eps B.
    """
    m = spec.oracle_steps
    B = (
        abs(ALPHA) + f.sup_norm() + abs(sol.lam)
        + 2.0 * math.pi * f.derivative(0).sup_norm()
    )
    eps = np.finfo(float).eps
    return 2.0 * sol.u.sup_norm() / m + sol.report.extras["residual_sup"] + m * eps * B


def _circle_misses(case: Case, sol, rho: float) -> list:
    ext = sol.report.extras
    misses = []
    if not ext["residual_sup"] <= CIRCLE_RESIDUAL_MAX:
        misses.append(f"residual_sup {ext['residual_sup']:.3e} > {CIRCLE_RESIDUAL_MAX:.0e}")
    if not ext["kappa"] < CIRCLE_KAPPA_MAX:
        misses.append(f"kappa {ext['kappa']:.3e} >= {CIRCLE_KAPPA_MAX}")
    bound = _circle_rotation_bound(case.spec, case.inputs["f"], sol)
    defect = abs(rho - ALPHA)
    if not defect <= bound:
        misses.append(f"|rho - alpha| {defect:.3e} > {bound:.3e}")
    return misses


def _torus_misses(sol, deviation: float) -> list:
    ext = sol.report.extras
    misses = []
    if not ext["residual_sup"] <= TORUS_RESIDUAL_MAX:
        misses.append(f"residual_sup {ext['residual_sup']:.3e} > {TORUS_RESIDUAL_MAX:.0e}")
    if not ext["counterterm_defect"] <= TORUS_COUNTERTERM_MAX:
        misses.append(
            f"counterterm defect {ext['counterterm_defect']:.3e} > {TORUS_COUNTERTERM_MAX:.0e}"
        )
    if not ext["kappa"] < TORUS_KAPPA_MAX:
        misses.append(f"kappa {ext['kappa']:.3e} >= {TORUS_KAPPA_MAX}")
    if not deviation <= FLOW_DEVIATION_MAX:
        misses.append(f"flow deviation {deviation:.3e} > {FLOW_DEVIATION_MAX:.0e}")
    return misses


def _solution_arrays(sol) -> list:
    if isinstance(sol, pt.CircleSolution):
        return [sol.u.coeffs, np.array([sol.lam])]
    return [f.coeffs for f in sol.u.displacement()] + [np.asarray(sol.xi), np.asarray(sol.mu)]


def _solve_and_verify(run: CaseRun, case: Case, label: str, solve, verify, misses) -> tuple:
    """Time one solve and its oracle; return (solution or None, passed the gate)."""
    run.attempted += 1
    t = time.perf_counter()
    try:
        sol = solve()
    except Exception as exc:
        run.solve_s += time.perf_counter() - t
        run.failed += 1
        run.failures.append(f"{label}: solve raised {_error_text(exc)}")
        return None, False
    run.solve_s += time.perf_counter() - t
    t = time.perf_counter()
    try:
        check = verify(sol)
    except Exception as exc:
        run.verify_s += time.perf_counter() - t
        run.failed += 1
        run.failures.append(f"{label}: oracle raised {_error_text(exc)}")
        return None, False
    run.verify_s += time.perf_counter() - t
    run.solutions.append((label, case, sol))
    found = misses(sol, check)
    if found:
        run.failed += 1
        run.failures.append(f"{label}: " + "; ".join(found))
    return sol, not found


def run_case(case: Case) -> CaseRun:
    """Solve and verify one case, in the order cli.run_circle / cli.run_torus use."""
    run = CaseRun()
    if case.error is not None:
        run.attempted = run.failed = case.solves
        run.failures.append(f"{case.label}: set-up raised {case.error}")
        return run
    inp, spec = case.inputs, case.spec
    if isinstance(spec, CircleSpec):
        sols, passed = {}, {}
        for mode in CIRCLE_MODES:
            sols[mode], passed[mode] = _solve_and_verify(
                run, case, f"{case.label} {mode}",
                lambda: pt.solve(inp["problems"][mode]),
                lambda sol: pt.rotation_number(inp["alpha"], inp["f"], sol.lam, spec.oracle_steps),
                lambda sol, rho: _circle_misses(case, sol, rho),
            )
        if all(s is not None for s in sols.values()):
            gap = (sols["standard"].u - sols["refined"].u).sobolev_norm(SOBOLEV_S)
            if not gap <= CIRCLE_MODE_AGREEMENT_HS:
                # neither solve can be trusted when the two forms disagree
                run.failed += sum(passed.values())
                run.failures.append(
                    f"{case.label}: standard vs refined differ by {gap:.3e} in H^{SOBOLEV_S:g}"
                )
    else:
        _solve_and_verify(
            run, case, case.label,
            lambda: pt.solve_torus(
                inp["h"], inp["omega"], mode="thm1", s=SOBOLEV_S, tol=SOLVE_TOL,
                max_iter=TORUS_MAX_ITER,
            ),
            lambda sol: pt.flow_oracle(
                inp["h"], sol.u, sol.xi, inp["omega"], theta0=inp["theta0"],
                T=spec.T, dt=FLOW_DT,
            ),
            lambda sol, dev: _torus_misses(sol, dev),
        )
    digest = hashlib.sha256()
    for label, _, sol in run.solutions:
        digest.update(label.encode())
        for arr in _solution_arrays(sol):
            digest.update(np.ascontiguousarray(arr).tobytes())
    run.digest = digest.hexdigest()
    return run


# --- layer probes ------------------------------------------------------------------

PROBES = (
    "hamtorus.frame_s",
    "hamtorus.torsion_s",
    "hamtorus.jacobian_s",
    "hamtorus.vector_field_s",
    "paraprod.invert_matrix_s",
)


def _median_seconds(call, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probe_layers(run: CaseRun, reps: int = 3) -> dict:
    """Time the public frame/torsion/Jacobian/X_h/matrix-inversion entry points.

    The torus solver reaches these only through private helpers, so they are
    timed here on the converged torus embedding of the run (median of reps
    calls each). Circle solutions have no such layer and give 0.
    """
    out = dict.fromkeys(PROBES, 0.0)
    for _, case, sol in run.solutions:
        if not isinstance(sol, pt.KamSolution):
            continue
        h, u = case.inputs["h"], sol.u
        cut = pt.make_cutoff(u.grid)
        _, M, _ = pt.frame(u)
        w = u.displacement()
        out["hamtorus.frame_s"] += _median_seconds(lambda: pt.frame(u), reps)
        out["hamtorus.torsion_s"] += _median_seconds(lambda: pt.torsion_S(h, u), reps)
        out["hamtorus.jacobian_s"] += _median_seconds(lambda: pt.jacobian_A(h, u), reps)
        out["hamtorus.vector_field_s"] += _median_seconds(
            lambda: pt.hamiltonian_vector_field(h, u), reps
        )
        out["paraprod.invert_matrix_s"] += _median_seconds(
            lambda: pt.para_invert_matrix(M, w, cut), reps
        )
    return out
