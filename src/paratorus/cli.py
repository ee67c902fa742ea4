"""Batch experiment harness: config-driven solves, operator validation, scans.

Configs are strict JSON (unknown keys rejected). Every run writes a config
echo next to its outputs; CSV rows carry no wall-clock so identical configs
produce bit-identical files. Exit codes: 0 success, 2 config error, 3 any
errors.SolverError (no convergence, a non-finite value, ...), 4 internal
invariant violation. This module only parses and reports: the solver modes
and defaults, the probe bounds, the memory estimates and the summaries' gamma
come from the modules that own them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import circle, hamtorus, validation
from .circle import CircleProblem, rotation_number, solve
from .dyadic import level_bound, top_level
from .errors import ConfigError, ParatorusError, ResonantModeError, SolverError
from .hamtorus import HamiltonianData, flow_oracle, solve_torus
from .paraprod import low_pass_bytes
from .reporting import fmt, write_rows_csv
from .smalldiv import (
    FrequencyVector,
    RotationAngle,
    certify_diophantine,
    certify_rotation_angle,
    scan_bytes,
)
from .spectral import SpectralField, TorusGrid, _json_number, field_from_json
from .spectral import field_to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

# a config error: a grid or validate-ops probe grid whose solve would need more than this (the
# torus solver's estimate, or one scalar handle's low-passes), or a Diophantine scan that would
# hold more than this at once (smalldiv.scan_bytes)
MEMORY_BUDGET_BYTES = 512 * 2**20


def _require_budget(need: int, path: str, what: str) -> None:
    """A ConfigError at path when what, needing `need` bytes, would exceed MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        raise ConfigError(f"{path}: {what} about {need / 2**20:.0f} MiB, more than the budget of "
                          f"{MEMORY_BUDGET_BYTES / 2**20:.0f} MiB")


def _scalar_bytes(grid: TorusGrid) -> int:
    """The guards' estimate of a scalar solve or probe on grid: one scalar handle's low-passes."""
    return low_pass_bytes(grid, (), level_bound(grid.max_mode))


def _require_keys(obj: dict, allowed: dict, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = {k for k, required in allowed.items() if required and k not in obj}
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _finite(value, path: str) -> float:
    """A finite float from a JSON number; NaN, Infinity, booleans and strings are config errors."""
    try:
        x = _json_number(value, path)
    except TypeError:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: {x} is not finite")
    return x


def _integer(value, path: str, minimum: int) -> int:
    """An integer config value >= minimum (8.0 is one); anything else is a config error."""
    _finite(value, path)
    try:
        if (x := _json_number(value, path, integral=True)) >= minimum:
            return x
    except ValueError:  # a fraction
        pass
    raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")


def _file_name(outputs: dict, key: str, default: str) -> str:
    """outputs[key], or default: a plain file name, so every output is written inside --out."""
    name = outputs.get(key, default)
    if not isinstance(name, str) or name in ("", "..") or Path(name).name != name or "\0" in name:
        raise ConfigError(f"outputs.{key}: expected a plain file name, got {name!r}")
    return name


def _list(value, path: str, item) -> list:
    """A non-empty config list, each entry parsed by item(entry, entry_path)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _field_from_modes_config(grid: TorusGrid, modes, path: str) -> SpectralField:
    """Trig-polynomial input as [{k, re, im}]; Hermitian symmetry validated."""
    if not isinstance(modes, list):
        raise ConfigError(f"{path}: expected a list of mode entries")
    for e in modes:
        _require_keys(e, {"k": True, "re": True, "im": True}, path)
    doc = {"dim": grid.dim, "K": grid.max_mode, "coeffs": modes}
    try:
        return field_from_json(doc)
    except ParatorusError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_grid(cfg, kind: str) -> TorusGrid:
    _require_keys(cfg, {"dim": True, "K": True}, "grid")
    try:
        grid = TorusGrid(_integer(cfg["dim"], "grid.dim", 1), _integer(cfg["K"], "grid.K", 1))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    need = hamtorus.solve_bytes(grid) if kind == "torus" else _scalar_bytes(grid)
    _require_budget(need, "grid", "the para-product low-passes and step samples need")
    return grid


def _parse_solver(cfg, modes) -> dict:
    """Solver settings; the mode is one of the solver module's modes, by default its first.

    tol and max_iter are passed only when the config gives them, so the solver's defaults apply.
    """
    cfg = cfg or {}
    _require_keys(cfg, {"s": False, "tol": False, "max_iter": False, "mode": False}, "solver")
    sv = {"mode": cfg.get("mode", modes[0])}
    if sv["mode"] not in modes:
        raise ConfigError(f"solver.mode: {sv['mode']!r} not in {modes}")
    if "tol" in cfg:
        sv["tol"] = _finite(cfg["tol"], "solver.tol")
        if sv["tol"] <= 0.0:
            raise ConfigError(f"solver.tol: expected a number > 0, got {sv['tol']}")
    sv["s"] = _finite(cfg.get("s", 3.0), "solver.s")
    if "max_iter" in cfg:
        sv["max_iter"] = _integer(cfg["max_iter"], "solver.max_iter", 1)
    return sv


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _solve_saving_trajectory(solve_fn, csv_path: Path):
    """Run a solve; if it fails inside its Picard loop, write its partial report to csv_path."""
    try:
        return solve_fn()
    except ParatorusError as exc:
        if exc.report is not None:
            exc.report.write_csv(csv_path)
        raise


# top-level keys of a circle or torus solve config (True: required)
_SOLVE_KEYS = {"kind": True, "grid": True, "frequency": True, "problem": True,
               "solver": False, "outputs": False}


# --- circle -------------------------------------------------------------------


def run_circle(cfg: dict, out: Path) -> int:
    _require_keys(cfg, _SOLVE_KEYS, "config")
    grid = _parse_grid(cfg["grid"], "circle")
    if grid.dim != 1:
        raise ConfigError("circle experiments need grid.dim = 1")
    _require_keys(cfg["frequency"], {"alpha": True, "sigma": True}, "frequency")
    try:
        alpha = RotationAngle.certify(
            _finite(cfg["frequency"]["alpha"], "frequency.alpha"),
            _finite(cfg["frequency"]["sigma"], "frequency.sigma"),
            grid.max_mode,
        )
    except ValueError as exc:
        raise ConfigError(f"frequency: {exc}") from exc
    _require_keys(cfg["problem"], {"f_modes": True}, "problem")
    f = _field_from_modes_config(grid, cfg["problem"]["f_modes"], "problem.f_modes")
    sv = _parse_solver(cfg.get("solver"), circle.MODES)
    outputs = cfg.get("outputs") or {}
    _require_keys(
        outputs,
        {"csv": False, "field_dump": False, "rotation_oracle_iterations": False},
        "outputs",
    )
    # absent or 0: no orbit oracle
    orbit_m = _integer(outputs.get("rotation_oracle_iterations", 0),
                       "outputs.rotation_oracle_iterations", 0)
    problem = CircleProblem(alpha=alpha, f=f, **sv)
    csv_path = out / _file_name(outputs, "csv", "circle.csv")
    dump_path = out / _file_name(outputs, "field_dump", "circle_solution.json")
    sol = _solve_saving_trajectory(lambda: solve(problem), csv_path)
    rep = sol.report
    if orbit_m:
        rho = rotation_number(alpha, f, sol.lam, orbit_m)
        rep.extras["rotation_defect"] = abs(rho - float(alpha))
    rep.write_csv(csv_path)
    _write_json(dump_path, field_to_json(sol.u))
    print(f"circle: converged in {rep.iterations} iterations, "
          f"residual_sup = {rep.extras['residual_sup']:.3e} (wall {rep.wall_time:.2f}s)")
    return EXIT_OK


# --- torus --------------------------------------------------------------------


def _nested(value, shape: tuple, path: str, leaf) -> list:
    """A config value nested as lists to shape, each leaf parsed by leaf(entry, entry_path)."""
    if not shape:
        return leaf(value, path)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ConfigError(f"{path}: expected a list of {shape[0]} entries, got {value!r}")
    return [_nested(v, shape[1:], f"{path}[{i}]", leaf) for i, v in enumerate(value)]


def _parse_tensor_of_fields(grid, cfg, shape: tuple, key: str, path: str) -> SpectralField:
    """Fields of component shape `shape`: {"constant": numbers} or {key: mode lists}, nested to it."""
    if isinstance(cfg, dict) and "constant" in cfg:
        _require_keys(cfg, {"constant": True}, path)
        values = _nested(cfg["constant"], shape, f"{path}.constant", _finite)
        return SpectralField.constant(grid, values)
    if isinstance(cfg, dict) and key in cfg:
        _require_keys(cfg, {key: True}, path)
        modes = lambda m, p: _field_from_modes_config(grid, m, p)
        return SpectralField.stack(_nested(cfg[key], shape, f"{path}.{key}", modes))
    raise ConfigError(f"{path}: expected 'constant' or {key!r}")


def run_torus(cfg: dict, out: Path) -> int:
    _require_keys(cfg, _SOLVE_KEYS, "config")
    grid = _parse_grid(cfg["grid"], "torus")
    _require_keys(cfg["frequency"], {"omega": True, "sigma": True}, "frequency")
    try:
        omega = FrequencyVector.certify(
            _nested(cfg["frequency"]["omega"], (grid.dim,), "frequency.omega", _finite),
            _finite(cfg["frequency"]["sigma"], "frequency.sigma"),
            grid.max_mode,
        )
    except ValueError as exc:
        raise ConfigError(f"frequency: {exc}") from exc
    prob = cfg["problem"]
    _require_keys(prob, {"a0_modes": True, "a1": True, "Q": True}, "problem")
    n = grid.dim
    a0 = _field_from_modes_config(grid, prob["a0_modes"], "problem.a0_modes")
    a1 = _parse_tensor_of_fields(grid, prob["a1"], (n,), "components", "problem.a1")
    Q = _parse_tensor_of_fields(grid, prob["Q"], (n, n), "entries", "problem.Q")
    try:
        h = HamiltonianData(a0=a0, a1=a1, Q=Q)
    except ValueError as exc:  # HamiltonianData owns the symmetry check of Q
        raise ConfigError(f"problem: {exc}") from exc
    sv = _parse_solver(cfg.get("solver"), hamtorus.MODES)
    outputs = cfg.get("outputs") or {}
    _require_keys(outputs, {"csv": False, "field_dump": False, "flow_oracle": False}, "outputs")
    oracle = outputs.get("flow_oracle")
    if oracle:
        path = "outputs.flow_oracle"
        _require_keys(oracle, {"theta0": True, "T": True, "dt": True}, path)
        theta0 = _nested(oracle["theta0"], (grid.dim,), f"{path}.theta0", _finite)
        T, dt = _finite(oracle["T"], f"{path}.T"), _finite(oracle["dt"], f"{path}.dt")
        if T < 0 or dt <= 0 or not math.isfinite(T / dt):
            raise ConfigError(f"{path}: need T >= 0, dt > 0 and T / dt finite, got T={T}, dt={dt}")
    csv_path = out / _file_name(outputs, "csv", "torus.csv")
    dump_path = out / _file_name(outputs, "field_dump", "torus_solution.json")
    sol = _solve_saving_trajectory(lambda: solve_torus(h, omega, **sv), csv_path)
    rep = sol.report
    if oracle:
        rep.extras["flow_deviation"] = flow_oracle(
            h, sol.u, sol.xi, omega, theta0=theta0, T=T, dt=dt
        )
    rep.write_csv(csv_path)
    dump = {
        "ux": [field_to_json(f) for f in sol.u.ux],
        "uy": [field_to_json(f) for f in sol.u.uy],
        "xi": [float(x) for x in sol.xi],
        "mu": [float(m) for m in sol.mu],
    }
    _write_json(dump_path, dump)
    print(f"torus[{sv['mode']}]: converged in {rep.iterations} iterations, "
          f"residual_sup = {rep.extras['residual_sup']:.3e} (wall {rep.wall_time:.2f}s)")
    return EXIT_OK


# --- validate-ops ----------------------------------------------------------------


def run_validate_ops(cfg: dict, out: Path, seed: int) -> int:
    _require_keys(cfg, {"kind": True, "grid": False, "probes": False, "outputs": False}, "config")
    grid = _parse_grid(cfg.get("grid") or {"dim": 1, "K": 256}, "validate-ops")
    if grid.dim != 1:
        raise ConfigError("grid: the validate-ops probes run in dim 1")
    K = grid.max_mode
    probes = cfg.get("probes") or {}
    _require_keys(
        probes,
        {"regularities": False, "j_range": False, "boundedness_K": False,
         "identity_K": False, "identity_trials": False},
        "probes",
    )
    regs = _list(probes.get("regularities", [1.0, 2.0]), "probes.regularities", _finite)
    top = top_level(1, K)
    j_range = _list(probes.get("j_range", [3, min(7, top)]), "probes.j_range",
                    lambda v, p: _integer(v, p, 0))
    if len(j_range) != 2 or not j_range[0] < j_range[1] <= top:
        raise ConfigError(f"probes.j_range: need [j_lo, j_hi], 0 <= j_lo < j_hi <= "
                          f"{top} at K={K}, got {j_range}")
    sizes = {key: _integer(probes.get(key, default), f"probes.{key}", 1) for key, default in
             (("identity_K", 64), ("identity_trials", 100), ("boundedness_K", 32))}
    # the boundedness probe runs on K and 2K; every probe grid is sized before any probe runs
    for key, probe_K in (("identity_K", sizes["identity_K"]),
                         ("boundedness_K", 2 * sizes["boundedness_K"])):
        _require_budget(_scalar_bytes(TorusGrid(1, probe_K)), f"probes.{key}",
                        f"the probe grid of K={probe_K} needs")
    outputs = cfg.get("outputs") or {}
    _require_keys(outputs, {"csv": False}, "outputs")
    csv_path = out / _file_name(outputs, "csv", "validate_ops.csv")

    rows = []  # a row lists only the cells it has; write_rows_csv leaves the others empty
    part = validation.partition_probe(K)
    rows.append({"probe": "partition", "value": part["partition_residual"],
                 "bound": part["bound"], "passed": int(part["passed"])})
    ident = validation.paraproduct_identity_probe(
        sizes["identity_K"], seed, sizes["identity_trials"]
    )
    rows.append({"probe": "paraproduct_identities",
                 "value": max(ident["const_symbol_defect"], ident["const_operand_defect"]),
                 "bound": ident["bound"], "passed": int(ident["passed"])})
    for r in regs:
        cm = validation.cm_smoothing_probe(K, r, seed, *j_range)
        pl = validation.pl_smoothing_probe(K, r, seed, *j_range)
        for name, probe, value in (("cm", cm, {"value": cm["const_defect"]}), ("pl", pl, {})):
            rows += [{"probe": f"{name}_ratio", "r": r, "j": rec["j"], "value": rec["ratio"]}
                     for rec in probe["rows"]]
            rows.append({"probe": f"{name}_slope", "r": r, **value, "slope": probe["slope"],
                         "bound": probe["slope_bound"], "passed": int(probe["passed"])})
    bound = validation.boundedness_stability_probe(sizes["boundedness_K"])
    rows.append({"probe": "boundedness_drift", "value": bound["drift"],
                 "bound": bound["bound"], "passed": int(bound["passed"])})
    verdicts = [r for r in rows if "passed" in r]
    summary = [("all_passed", int(all(r["passed"] for r in verdicts))),
               ("partition_residual", part["partition_residual"])]
    cols = ["probe", "r", "j", "value", "slope", "bound", "passed"]
    write_rows_csv(csv_path, cols, rows, summary, "row")
    for r in verdicts:
        print(f"validate-ops {r['probe']}(r={r.get('r', '')}): {'pass' if r['passed'] else 'FAIL'}")
    return EXIT_OK


# --- diophantine -------------------------------------------------------------------


def run_diophantine(cfg: dict, out: Path) -> int:
    _require_keys(cfg, {"kind": True, "frequency": True, "scan": True, "outputs": False}, "config")
    freq = cfg["frequency"]
    _require_keys(freq, {"omega": False, "alpha": False, "sigma": True}, "frequency")
    if ("omega" in freq) == ("alpha" in freq):
        raise ConfigError("frequency: give exactly one of omega or alpha")
    sigma = _finite(freq["sigma"], "frequency.sigma")
    if "omega" in freq:
        omega = _list(freq["omega"], "frequency.omega", _finite)
        certify = lambda K: certify_diophantine(omega, sigma, K)
    else:
        alpha = _finite(freq["alpha"], "frequency.alpha")
        certify = lambda K: certify_rotation_angle(alpha, sigma, K)
    _require_keys(cfg["scan"], {"K_values": True}, "scan")
    K_values = _list(cfg["scan"]["K_values"], "scan.K_values", lambda v, p: _integer(v, p, 1))
    n = len(omega) if "omega" in freq else 1  # an angle scans q <= K, fewer than a 1-D box
    for i, K in enumerate(K_values):  # every K, before any scan
        _require_budget(scan_bytes(n, K), f"scan.K_values[{i}]", f"the scan of K={K} needs")
    outputs = cfg.get("outputs") or {}
    _require_keys(outputs, {"csv": False}, "outputs")
    csv_path = out / _file_name(outputs, "csv", "diophantine.csv")
    rows = []
    for K in K_values:
        try:
            rows.append({"K": K, "gamma": certify(K), "status": "ok"})
        except ResonantModeError as exc:
            rows.append({"K": K, "status": "resonant",
                         "resonant_mode": "(" + " ".join(str(m) for m in exc.mode) + ")"})
        except ValueError as exc:
            raise ConfigError(f"frequency: {exc}") from exc
    cols = ["K", "gamma", "status", "resonant_mode"]
    write_rows_csv(csv_path, cols, rows, [("n_rows", len(rows))], "row")
    for r in rows:
        print(f"diophantine K={r['K']}: {r['status']}"
              + (f" gamma={fmt(r['gamma'])}" if r["status"] == "ok" else f" at {r['resonant_mode']}"))
    return EXIT_OK


# --- driver -------------------------------------------------------------------------


_RUNNERS = {
    "circle": run_circle,
    "torus": run_torus,
    "validate-ops": run_validate_ops,
    "diophantine": run_diophantine,
}


# the stderr prefix and exit code of each error class a run reports, most specific first
_FAILURES = ((ConfigError, "config error", EXIT_CONFIG),
             (SolverError, "solver error", EXIT_SOLVER),
             (ParatorusError, "internal invariant violation", EXIT_INTERNAL))


def _run_one(config_path: Path, out: Path, expected_kind: str, options: dict) -> int:
    try:
        try:
            with open(config_path) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # unreadable, not UTF-8, not JSON, or an integer too long or nesting too deep to parse
            raise ConfigError(str(exc)) from exc
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise ConfigError("config must be an object with a 'kind'")
        kind = cfg["kind"]
        if not isinstance(kind, str) or kind not in _RUNNERS:
            raise ConfigError(f"kind: expected one of {sorted(_RUNNERS)}, got {kind!r}")
        if kind != expected_kind:
            raise ConfigError(f"subcommand {expected_kind!r} got config of kind {kind!r}")
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config_echo.json", cfg)
        return _RUNNERS[kind](cfg, out, **options)
    except ParatorusError as exc:
        prefix, code = next((p, c) for cls, p, c in _FAILURES if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        _write_json(out / "error.json", {"error": type(exc).__name__, "message": str(exc)})
        return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paratorus",
        description="Spectral para-differential toolkit: conjugacy solves and operator validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", action="append", required=True,
                       help="path to a JSON experiment config (repeatable with --batch)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--batch", action="store_true",
                       help="run several configs into isolated subdirectories")
        if name == "validate-ops":  # the one run with random inputs
            p.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    args = parser.parse_args(argv)
    configs = [Path(c) for c in args.config]
    if len(configs) > 1 and not args.batch:
        print("multiple configs need --batch", file=sys.stderr)
        return EXIT_CONFIG
    out_root = Path(args.out)
    options = {"seed": args.seed} if args.command == "validate-ops" else {}
    worst = EXIT_OK
    for cfg_path in configs:
        out = out_root / cfg_path.stem if args.batch else out_root
        code = _run_one(cfg_path, out, args.command, options)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
