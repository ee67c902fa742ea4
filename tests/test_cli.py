"""CLI harness: strict configs, artifacts on disk, determinism, exit codes."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from paratorus import SpectralField, TorusGrid, cli, field_from_json, make_cutoff
from paratorus.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, EXIT_SOLVER, main
from paratorus.dyadic import level_bound
from paratorus.paraprod import ParaOpHandle, low_pass_bytes
from paratorus.reporting import write_rows_csv
from paratorus.smalldiv import scan_bytes
from paratorus.errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DiffeomorphismLostError,
    EnergyDriftError,
    GridMismatchError,
    MaxIterExceededError,
    NonContractiveError,
    NonFiniteError,
    NonzeroMeanError,
    ResonantModeError,
    SerializationError,
    SingularAverageError,
    SolverError,
)

from test_circle import nan_field, patch_g_map, stall

GOLDEN_ALPHA = math.pi * (math.sqrt(5.0) - 1.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def circle_config(amp=0.0, K=32, max_iter=30, mode="standard"):
    return {
        "kind": "circle",
        "grid": {"dim": 1, "K": K},
        "frequency": {"alpha": GOLDEN_ALPHA, "sigma": 1.0},
        "problem": {"f_modes": [{"k": [1], "re": 0.0, "im": -amp / 2}]},
        "solver": {"s": 3.0, "tol": 1e-10, "max_iter": max_iter, "mode": mode},
        "outputs": {"csv": "run.csv", "field_dump": "u.json"},
    }


def test_circle_zero_perturbation_single_row(tmp_path):
    cfg = write_config(tmp_path, "c.json", circle_config(amp=0.0))
    out = tmp_path / "out"
    assert main(["circle", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "run.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 1 iteration + summary
    row = lines[1].split(",")
    assert row[0] == "iter"
    assert float(row[3]) == 0.0  # residual_sup
    assert (out / "config_echo.json").exists()
    u = field_from_json(json.loads((out / "u.json").read_text()))
    assert u.l2_norm() == 0.0


def test_circle_run_deterministic(tmp_path):
    cfg = write_config(tmp_path, "c.json", circle_config(amp=0.04))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["circle", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["circle", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
    assert (out1 / "u.json").read_bytes() == (out2 / "u.json").read_bytes()


def test_circle_nonconvergence_exit_code(tmp_path):
    doc = circle_config(amp=0.04, max_iter=2)
    doc["solver"]["tol"] = 1e-30
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["circle", "--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "MaxIterExceededError"


def test_unknown_key_rejected(tmp_path):
    doc = circle_config()
    doc["grid"]["extra"] = 1
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["circle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_hermitian_violation_rejected(tmp_path):
    doc = circle_config()
    doc["problem"]["f_modes"] = [
        {"k": [1], "re": 1.0, "im": 0.0},
        {"k": [-1], "re": 0.5, "im": 0.0},
    ]
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["circle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_kind_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", circle_config())
    assert main(["torus", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def torus_config():
    return {
        "kind": "torus",
        "grid": {"dim": 2, "K": 8},
        "frequency": {"omega": [1.0, GOLDEN], "sigma": 1.0},
        "problem": {
            "a0_modes": [],
            "a1": {"constant": [1.0 + 0.01, GOLDEN]},
            "Q": {"constant": [[0.0, 0.0], [0.0, 0.0]]},
        },
        "solver": {"s": 3.0, "mode": "thm2"},
        "outputs": {"csv": "torus.csv", "field_dump": "sol.json"},
    }


def test_torus_integrable_summary(tmp_path):
    doc = torus_config()
    doc["problem"]["a1"] = {"constant": [1.0, GOLDEN]}
    cfg = write_config(tmp_path, "t.json", doc)
    out = tmp_path / "out"
    assert main(["torus", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    sol = json.loads((out / "sol.json").read_text())
    assert sol["xi"] == [0.0, 0.0]
    assert all(doc_i["coeffs"] == [] for doc_i in sol["ux"] + sol["uy"])


def test_torus_thm2_shift_recovered(tmp_path):
    cfg = write_config(tmp_path, "t.json", torus_config())
    out = tmp_path / "out"
    assert main(["torus", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    sol = json.loads((out / "sol.json").read_text())
    assert abs(sol["xi"][0] + 0.01) < 1e-10
    assert abs(sol["xi"][1]) < 1e-10


def test_torus_run_deterministic(tmp_path):
    doc = torus_config()
    doc["problem"]["a0_modes"] = [{"k": [1, 0], "re": 0.005, "im": 0.0}]
    doc["problem"]["a1"] = {"constant": [1.0, GOLDEN]}
    doc["problem"]["Q"] = {"constant": [[1.0, 0.0], [0.0, 1.0]]}
    doc["solver"]["mode"] = "thm1"
    doc["outputs"]["flow_oracle"] = {"theta0": [0.7, 1.9], "T": 0.5, "dt": 0.01}
    cfg = write_config(tmp_path, "t.json", doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["torus", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["torus", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert "flow_deviation" in (out1 / "torus.csv").read_text()
    assert (out1 / "torus.csv").read_bytes() == (out2 / "torus.csv").read_bytes()
    assert (out1 / "sol.json").read_bytes() == (out2 / "sol.json").read_bytes()


def test_torus_dim_1_flow_oracle(tmp_path):
    doc = {
        "kind": "torus",
        "grid": {"dim": 1, "K": 16},
        "frequency": {"omega": [1.0], "sigma": 1.0},
        "problem": {"a0_modes": [{"k": [1], "re": 0.0025, "im": 0.0}],  # 0.005 cos(theta)
                    "a1": {"constant": [1.0]}, "Q": {"constant": [[1.0]]}},
        "solver": {"s": 3.0, "mode": "thm1"},
        "outputs": {"csv": "torus.csv", "flow_oracle": {"theta0": [0.7], "T": 1.0, "dt": 0.01}},
    }
    code, out = run_code(tmp_path, doc, kind="torus")
    assert code == EXIT_OK
    summary = (out / "torus.csv").read_text().splitlines()[-1]
    assert "status=converged" in summary
    assert float(summary.split("flow_deviation=")[1].split(",")[0]) < 1e-10


def test_validate_ops_report(tmp_path):
    doc = {
        "kind": "validate-ops",
        "grid": {"dim": 1, "K": 128},
        "probes": {"regularities": [1.0], "j_range": [3, 6], "boundedness_K": 32,
                   "identity_K": 32, "identity_trials": 20},
        "outputs": {"csv": "ops.csv"},
    }
    cfg = write_config(tmp_path, "v.json", doc)
    out = tmp_path / "out"
    assert main(["validate-ops", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == EXIT_OK
    text = (out / "ops.csv").read_text()
    assert "all_passed=1" in text
    assert "cm_slope" in text and "pl_slope" in text
    # seeded: identical rerun is bit-identical
    out2 = tmp_path / "out2"
    main(["validate-ops", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
    assert (out / "ops.csv").read_bytes() == (out2 / "ops.csv").read_bytes()


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def test_validate_ops_j_range_ends_at_the_top_level(tmp_path):
    # at K = 256 the highest nonzero block is 8; the shipped [3, 7] runs, [3, 9] is refused;
    # at K = 32 it is 5, where the default [3, 7] ends, so a grid alone runs
    doc = json.loads((SHIPPED / "validate_ops.json").read_text())
    assert doc["grid"]["K"] == 256 and doc["probes"]["j_range"] == [3, 7]
    code, out = run_code(tmp_path, doc, kind="validate-ops")
    assert code == EXIT_OK and "all_passed=1" in (out / "validate_ops.csv").read_text()
    doc["probes"]["j_range"] = [3, 9]
    code, out = run_code(tmp_path, doc, kind="validate-ops")
    err = json.loads((out / "error.json").read_text())
    assert code == EXIT_CONFIG and err["error"] == "ConfigError"
    assert "<= 8 at K=256, got [3, 9]" in err["message"]
    doc["probes"]["j_range"] = [3, 9.0]  # read as integers: the refusal prints 9, not 9.0
    assert "got [3, 9]" in json.loads((run_code(tmp_path, doc, kind="validate-ops")[1]
                                       / "error.json").read_text())["message"]
    code, out = run_code(tmp_path, {"kind": "validate-ops", "grid": {"dim": 1, "K": 32}},
                         kind="validate-ops")
    assert code == EXIT_OK
    rows = [line.split(",") for line in (out / "validate_ops.csv").read_text().splitlines()]
    assert sorted({int(r[3]) for r in rows if r[1] == "cm_ratio"}) == [3, 4, 5]


def test_the_golden_circle_stops_on_its_residual(tmp_path):
    # its last increment, 1.4e-9, is above tol = 1e-10; the residual sup, 1.1e-12, is below tol/10
    code, out = run_code(tmp_path, json.loads((SHIPPED / "circle_golden.json").read_text()))
    assert code == EXIT_OK
    summary = (out / "circle.csv").read_text().splitlines()[-1].split(",")
    assert "stop_rule=residual" in summary and "status=converged" in summary


def test_write_rows_csv_leaves_an_absent_column_empty(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["a", "b", "c"], [{"a": 1, "c": 0.5}, {"b": "x"}], [("n", 2)], "row")
    assert path.read_text() == "row_kind,a,b,c\nrow,1,,0.5\nrow,,x,\nsummary,n=2\n"


def test_diophantine_scan_and_resonance(tmp_path):
    doc = {
        "kind": "diophantine",
        "frequency": {"omega": [1.0, GOLDEN], "sigma": 1.0},
        "scan": {"K_values": [8, 16, 32]},
        "outputs": {"csv": "dio.csv"},
    }
    cfg = write_config(tmp_path, "d.json", doc)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "dio.csv").read_text().strip().splitlines()
    gammas = [float(l.split(",")[2]) for l in lines[1:-1]]
    assert all(g > 0 for g in gammas)
    assert gammas == sorted(gammas)  # monotone nondecreasing in K

    res = {
        "kind": "diophantine",
        "frequency": {"omega": [1.0, 1.0], "sigma": 1.0},
        "scan": {"K_values": [4]},
    }
    cfg2 = write_config(tmp_path, "d2.json", res)
    out2 = tmp_path / "out2"
    assert main(["diophantine", "--config", str(cfg2), "--out", str(out2)]) == EXIT_OK
    text = (out2 / "diophantine.csv").read_text()
    assert "resonant" in text and "(1 -1)" in text


def test_rational_angle_resonance_row(tmp_path):
    doc = {
        "kind": "diophantine",
        "frequency": {"alpha": 2.0 * math.pi * 3.0 / 7.0, "sigma": 1.0},
        "scan": {"K_values": [16]},
    }
    cfg = write_config(tmp_path, "d.json", doc)
    out = tmp_path / "out"
    assert main(["diophantine", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    text = (out / "diophantine.csv").read_text()
    assert "resonant" in text and "(7)" in text


def test_batch_isolated_outputs(tmp_path):
    c1 = write_config(tmp_path, "one.json", circle_config(amp=0.0))
    c2 = write_config(tmp_path, "two.json", circle_config(amp=0.01))
    out = tmp_path / "out"
    code = main([
        "circle", "--config", str(c1), "--config", str(c2), "--out", str(out), "--batch",
    ])
    assert code == EXIT_OK
    assert (out / "one" / "run.csv").exists()
    assert (out / "two" / "run.csv").exists()


def test_multiple_configs_require_batch(tmp_path):
    c1 = write_config(tmp_path, "one.json", circle_config())
    c2 = write_config(tmp_path, "two.json", circle_config())
    assert main(["circle", "--config", str(c1), "--config", str(c2),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


# --- boundary validation and failure forensics -----------------------------------


def run_code(tmp_path, doc, kind="circle"):
    cfg = write_config(tmp_path, "bad.json", doc)
    out = tmp_path / "out"
    code = main([kind, "--config", str(cfg), "--out", str(out)])
    return code, out


BOUNDARY_CONFIGS = {
    "circle": circle_config,
    "torus": torus_config,
    "diophantine": lambda: {"kind": "diophantine", "scan": {"K_values": [8]},
                            "frequency": {"omega": [1.0, GOLDEN], "sigma": 1.0}},
    "validate-ops": lambda: {"kind": "validate-ops", "grid": {"dim": 1, "K": 32},
                             "probes": {"regularities": [1.0], "identity_trials": 2}},
}


@pytest.mark.parametrize(
    "kind, key, value",
    [("diophantine", "kind", ["diophantine"]), ("circle", "kind", {"a": 1}),
     ("circle", "csv", 1), ("torus", "field_dump", None), ("circle", "csv", "ABSOLUTE"),
     ("torus", "field_dump", "../escaped.json"), ("validate-ops", "csv", "sub/ops.csv"),
     ("diophantine", "csv", ""), ("validate-ops", "csv", "."), ("circle", "field_dump", ".."),
     ("diophantine", "csv", "a\0b.csv")],
    ids=["kind-list", "kind-object", "csv-number", "dump-null", "csv-absolute", "dump-parent",
         "csv-subdirectory", "csv-empty", "csv-dot", "dump-dot-dot", "csv-nul"],
)
def test_kind_and_output_names_are_checked_at_the_boundary(tmp_path, monkeypatch, kind, key,
                                                          value):
    # kind is a string and each output a plain file name inside --out; else exit 2 naming the key
    monkeypatch.setattr(cli, "solve", no_solve)
    monkeypatch.setattr(cli, "solve_torus", no_solve)
    doc = BOUNDARY_CONFIGS[kind]()
    if value == "ABSOLUTE":
        value = str(tmp_path / "escaped.csv")
    if key == "kind":
        doc["kind"] = value
    else:
        doc.setdefault("outputs", {})[key] = value
    code, out = run_code(tmp_path, doc, kind=kind)
    assert code == EXIT_CONFIG
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ConfigError"
    assert error["message"].startswith("kind:" if key == "kind" else f"outputs.{key}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "out"]
    assert {p.name for p in out.iterdir()} <= {"config_echo.json", "error.json"}


@pytest.mark.parametrize("kind", ["circle", "torus"])
def test_grid_points_is_an_unknown_key(tmp_path, kind):
    # the collocation grid is always N = 4K points per axis
    doc = circle_config() if kind == "circle" else torus_config()
    doc["grid"]["points"] = 4 * doc["grid"]["K"]
    code, out = run_code(tmp_path, doc, kind=kind)
    assert code == EXIT_CONFIG
    assert "unknown keys ['points']" in json.loads((out / "error.json").read_text())["message"]


def test_non_finite_mode_is_config_error(tmp_path):
    for value in (float("nan"), float("inf")):
        doc = circle_config(amp=0.04)
        doc["problem"]["f_modes"][0]["im"] = value
        code, out = run_code(tmp_path, doc)
        assert code == EXIT_CONFIG
        assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


def test_non_integral_mode_index_is_config_error(tmp_path):
    doc = circle_config(amp=0.04)
    doc["problem"]["f_modes"][0]["k"] = [1.5]
    code, out = run_code(tmp_path, doc)
    assert code == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and "non-integral mode index" in err["message"]


def test_max_iter_below_one_is_config_error(tmp_path):
    code, out = run_code(tmp_path, circle_config(amp=0.04, max_iter=0))
    assert code == EXIT_CONFIG
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


def test_nan_tol_is_config_error(tmp_path):
    doc = circle_config(amp=0.04)
    doc["solver"]["tol"] = float("nan")
    assert run_code(tmp_path, doc)[0] == EXIT_CONFIG


@pytest.mark.parametrize("kind", ["circle", "torus"])
@pytest.mark.parametrize("tol", [-1.0, 0.0])
def test_tol_not_above_zero_is_config_error_and_writes_no_csv(tmp_path, kind, tol):
    doc = circle_config(amp=0.04) if kind == "circle" else torus_config()
    doc["solver"]["tol"] = tol
    code, out = run_code(tmp_path, doc, kind)
    assert code == EXIT_CONFIG
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "section, key", [("solver", "s"), ("frequency", "alpha"), ("frequency", "sigma")]
)
def test_non_finite_circle_numbers_are_config_errors(tmp_path, section, key):
    doc = circle_config(amp=0.04)
    doc[section][key] = float("nan")
    assert run_code(tmp_path, doc)[0] == EXIT_CONFIG


def test_non_finite_omega_is_config_error(tmp_path):
    doc = torus_config()
    doc["frequency"]["omega"] = [1.0, float("inf")]
    assert run_code(tmp_path, doc, kind="torus")[0] == EXIT_CONFIG


def test_circle_nonconvergence_keeps_trajectory(tmp_path):
    doc = circle_config(amp=0.04, max_iter=3)
    doc["solver"]["tol"] = 1e-30
    code, out = run_code(tmp_path, doc)
    assert code == EXIT_SOLVER
    lines = (out / "run.csv").read_text().strip().splitlines()
    assert [l.split(",")[0] for l in lines[1:-1]] == ["iter"] * 3
    assert "status=max_iter_exceeded" in lines[-1]
    assert (out / "error.json").exists()


@pytest.mark.parametrize(
    "outcome, error, status",
    [(nan_field, "NonFiniteError", "non_finite"), (stall, "NonContractiveError", "failed")],
)
def test_circle_solver_error_keeps_trajectory(tmp_path, monkeypatch, outcome, error, status):
    # the 2nd step fails: a NaN iterate is stopped by the driver, a stall by the step itself
    patch_g_map(monkeypatch, 2, outcome)
    doc = circle_config(amp=0.04, max_iter=10)
    doc["solver"]["tol"] = 1e-30
    with np.errstate(all="ignore"):
        code, out = run_code(tmp_path, doc)
    assert code == EXIT_SOLVER
    assert json.loads((out / "error.json").read_text())["error"] == error
    lines = (out / "run.csv").read_text().strip().splitlines()
    rows = 2 if status == "non_finite" else 1  # the NaN row is kept, where it appeared
    assert [l.split(",")[0] for l in lines[1:-1]] == ["iter"] * rows
    assert f"status={status}" in lines[-1]


def test_torus_nonconvergence_keeps_trajectory(tmp_path):
    doc = torus_config()
    doc["problem"]["a0_modes"] = [{"k": [1, 0], "re": 0.005, "im": 0.0}]
    doc["problem"]["a1"] = {"constant": [1.0, GOLDEN]}
    doc["problem"]["Q"] = {"constant": [[1.0, 0.0], [0.0, 1.0]]}
    doc["solver"] = {"s": 3.0, "tol": 1e-30, "max_iter": 2, "mode": "thm1"}
    code, out = run_code(tmp_path, doc, kind="torus")
    assert code == EXIT_SOLVER
    lines = (out / "torus.csv").read_text().strip().splitlines()
    assert [l.split(",")[0] for l in lines[1:-1]] == ["iter"] * 2
    assert "status=max_iter_exceeded" in lines[-1]


@pytest.mark.parametrize(
    "frequency, K_values",
    [
        ({"omega": [1.0, GOLDEN], "sigma": 0.0}, [8]),
        ({"omega": [1.0, GOLDEN], "sigma": 1.0}, [0]),
        ({"omega": [1.0, float("nan")], "sigma": 1.0}, [8]),
        ({"omega": [1.0, GOLDEN], "sigma": float("nan")}, [8]),
    ],
    ids=["sigma-zero", "K-zero", "nan-omega", "nan-sigma"],
)
def test_bad_diophantine_config_is_config_error(tmp_path, frequency, K_values):
    doc = {"kind": "diophantine", "frequency": frequency, "scan": {"K_values": K_values}}
    code, out = run_code(tmp_path, doc, kind="diophantine")
    assert code == EXIT_CONFIG
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


@pytest.mark.parametrize(
    "frequency, K_values, path",
    [({"omega": [1.0, GOLDEN], "sigma": True}, [8], "frequency.sigma"),
     ({"omega": [1.0, GOLDEN], "sigma": 1.0}, [True], "scan.K_values[0]"),
     ({"omega": [1.0, GOLDEN], "sigma": 1.0}, [8, "4"], "scan.K_values[1]"),
     ({"omega": ["1.0", GOLDEN], "sigma": 1.0}, [8], "frequency.omega[0]")],
    ids=["bool-sigma", "bool-K", "string-K", "string-omega"],
)
def test_a_config_value_that_is_not_a_json_number_is_config_error(tmp_path, frequency, K_values,
                                                                   path):
    # float() reads true as 1.0 and "4" as 4.0: without the check such a scan runs and exits 0
    doc = {"kind": "diophantine", "frequency": frequency, "scan": {"K_values": K_values}}
    code, out = run_code(tmp_path, doc, kind="diophantine")
    assert code == EXIT_CONFIG and not (out / "diophantine.csv").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["message"].startswith(f"{path}: expected a number")


@pytest.mark.parametrize(
    "frequency, K_values, path",
    [({"omega": [1.0, GOLDEN], "sigma": 10**400}, [8], "frequency.sigma"),
     ({"omega": [1.0, GOLDEN], "sigma": 1.0}, [8, 10**400], "scan.K_values[1]")],
    ids=["huge-sigma", "huge-K"],
)
def test_an_integer_beyond_the_float_range_is_not_finite(tmp_path, frequency, K_values, path):
    # float() of such an integer raises OverflowError; the config reads it as Infinity
    doc = {"kind": "diophantine", "frequency": frequency, "scan": {"K_values": K_values}}
    code, out = run_code(tmp_path, doc, kind="diophantine")
    assert code == EXIT_CONFIG and not (out / "diophantine.csv").exists()
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["message"] == f"{path}: inf is not finite"


def test_an_integral_float_is_a_config_integer(tmp_path):
    doc = {"kind": "diophantine", "frequency": {"omega": [1.0, GOLDEN], "sigma": 1.0},
           "scan": {"K_values": [8.0]}}
    code, out = run_code(tmp_path, doc, kind="diophantine")
    assert code == EXIT_OK
    assert (out / "diophantine.csv").read_text().splitlines()[1].startswith("row,8,")


def no_scan(*args):
    raise AssertionError("a scan ran before every K was checked against the budget")


@pytest.mark.parametrize(
    "frequency, K_values",
    [({"omega": [1.0, GOLDEN], "sigma": 1.0}, [8, 20000]),
     ({"omega": [1.0, GOLDEN, 2.0**0.5 - 1.0], "sigma": 1.0}, [8, 200]),
     ({"alpha": GOLDEN_ALPHA, "sigma": 1.0}, [8, 10**10])],
    ids=["omega-2d", "omega-3d", "alpha"],
)
def test_a_diophantine_scan_over_the_memory_budget_is_config_error(tmp_path, monkeypatch,
                                                                   frequency, K_values):
    # K = 20000 in 2-D is 1.6e9 modes, about 106 GB at 66 bytes a mode; no scan may start
    monkeypatch.setattr(cli, "certify_diophantine", no_scan)
    monkeypatch.setattr(cli, "certify_rotation_angle", no_scan)
    doc = {"kind": "diophantine", "frequency": frequency, "scan": {"K_values": K_values}}
    code, out = run_code(tmp_path, doc, kind="diophantine")
    assert code == EXIT_CONFIG
    message = json.loads((out / "error.json").read_text())["message"]
    assert message.startswith(f"scan.K_values[1]: the scan of K={K_values[1]} needs about")


@pytest.mark.parametrize("n, K", [(1, 50000), (2, 150), (3, 22), (4, 8)])
def test_scan_bytes_bounds_the_scan_peak(n, K):
    # 8e4 to 1e5 modes each: the scan's fixed overhead, some 50 kB, is then below the margin
    omega = [1.0, GOLDEN, 2.0**0.5 - 1.0, 3.0**0.5 - 1.0][:n]
    tracemalloc.start()
    try:
        cli.certify_diophantine(omega, 1.0, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= scan_bytes(n, K)


@pytest.mark.parametrize(
    "section, key, value",
    [("grid", "K", 0), ("probes", "j_range", [3]), ("probes", "regularities", [float("nan")]),
     ("grid", "dim", 3), ("grid", "points", 200)],
    ids=["K-zero", "short-j-range", "nan-regularity", "dim-3", "non-default-points"],
)
def test_bad_validate_ops_config_is_config_error(tmp_path, section, key, value):
    doc = {
        "kind": "validate-ops",
        "grid": {"dim": 1, "K": 32},
        "probes": {"regularities": [1.0], "j_range": [3, 5], "boundedness_K": 16,
                   "identity_K": 16, "identity_trials": 2},
    }
    doc[section][key] = value
    code, out = run_code(tmp_path, doc, kind="validate-ops")
    assert code == EXIT_CONFIG
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


def no_probe(*args):
    raise AssertionError("a probe ran before every probe grid was checked against the budget")


@pytest.mark.parametrize("key, value", [("identity_K", 4096), ("boundedness_K", 2048)])
def test_a_probe_grid_over_the_memory_budget_is_config_error(tmp_path, monkeypatch, key, value):
    # at a budget of 100,000 bytes the grid of K = 32 (1,944 bytes) passes, but a probe grid of
    # K = 4096 (829,440 bytes), identity_K's own or boundedness_K's doubled one, does not
    monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", 100_000)
    monkeypatch.setattr(cli.validation, "partition_probe", no_probe)
    doc = {"kind": "validate-ops", "grid": {"dim": 1, "K": 32},
           "probes": {"regularities": [1.0], "j_range": [3, 5], "boundedness_K": 16,
                      "identity_K": 16, "identity_trials": 2}}
    doc["probes"][key] = value
    code, out = run_code(tmp_path, doc, kind="validate-ops")
    assert code == EXIT_CONFIG and not (out / "validate_ops.csv").exists()
    message = json.loads((out / "error.json").read_text())["message"]
    assert message.startswith(f"probes.{key}: the probe grid of K=4096 needs about")


@pytest.mark.parametrize("kind", ["circle", "torus", "diophantine"])
def test_seed_is_refused_where_no_run_reads_it(tmp_path, capsys, kind):
    # only validate-ops draws random inputs; argparse refuses --seed elsewhere before any run
    cfg = write_config(tmp_path, "c.json", {"kind": kind})
    with pytest.raises(SystemExit) as exc:
        main([kind, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_of_range_frequency_is_config_error(tmp_path):
    doc = circle_config(amp=0.04)
    doc["frequency"]["alpha"] = 7.0  # outside (0, 2 pi)
    assert run_code(tmp_path, doc)[0] == EXIT_CONFIG
    doc = torus_config()
    doc["frequency"]["sigma"] = -1.0
    assert run_code(tmp_path, doc, kind="torus")[0] == EXIT_CONFIG


def no_solve(*args, **kwargs):
    raise AssertionError("the solve ran before the config was checked")


@pytest.mark.parametrize("value", [float("nan"), -5, 2.5], ids=["nan", "negative", "fraction"])
def test_bad_rotation_oracle_iterations_is_config_error(tmp_path, monkeypatch, value):
    monkeypatch.setattr(cli, "solve", no_solve)
    doc = circle_config(amp=0.04)
    doc["outputs"]["rotation_oracle_iterations"] = value
    code, out = run_code(tmp_path, doc)
    assert code == EXIT_CONFIG
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


@pytest.mark.parametrize(
    "key, value",
    [("T", float("nan")), ("dt", 0), ("dt", -1e-3), ("theta0", [0.3])],
    ids=["nan-T", "zero-dt", "negative-dt", "short-theta0"],
)
def test_bad_flow_oracle_is_config_error(tmp_path, monkeypatch, key, value):
    monkeypatch.setattr(cli, "solve_torus", no_solve)
    doc = torus_config()
    doc["outputs"]["flow_oracle"] = {"theta0": [0.7, 1.9], "T": 1.0, "dt": 1e-3, key: value}
    code, out = run_code(tmp_path, doc, kind="torus")
    assert code == EXIT_CONFIG
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


def test_flow_oracle_step_count_that_overflows_is_config_error(tmp_path, monkeypatch):
    # T and dt are finite, T / dt is not: rejected before the solve, not after it
    monkeypatch.setattr(cli, "solve_torus", no_solve)
    doc = torus_config()
    doc["outputs"]["flow_oracle"] = {"theta0": [0.7, 1.9], "T": 1e300, "dt": 1e-300}
    code, out = run_code(tmp_path, doc, kind="torus")
    assert code == EXIT_CONFIG
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ConfigError" and "T / dt" in error["message"]


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("a1", {"constant": 1.0}, "problem.a1.constant"),
        ("Q", {"entries": [[[], []]]}, "problem.Q.entries"),
        ("Q", {"constant": [["a", 0.0], [0.0, 0.0]]}, "problem.Q.constant[0][0]"),
        ("Q", {"constant": [[0.0], [0.0, 0.0]]}, "problem.Q.constant[0]"),
        ("a1", {"constant": [1.0, GOLDEN, 1.0]}, "problem.a1.constant"),
        ("Q", {"constant": [[1.0, 0.5], [0.0, 1.0]]}, "Q is not symmetric"),
    ],
    ids=["scalar-a1", "one-row-Q", "string-Q-entry", "ragged-Q", "long-a1", "asymmetric-Q"],
)
def test_misshapen_torus_data_is_config_error(tmp_path, key, value, where):
    doc = torus_config()
    doc["problem"][key] = value
    code, out = run_code(tmp_path, doc, kind="torus")
    assert code == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert where in err["message"]


# the failures a solve of a valid problem can meet: each one exits 3
EXIT_3_ERRORS = (
    MaxIterExceededError, NonContractiveError, DiffeomorphismLostError, DegenerateEmbeddingError,
    ResonantModeError, NonzeroMeanError, EnergyDriftError, NonFiniteError,
)


@pytest.mark.parametrize(
    "data", [None, b"{", b"[1, 2", b"\xff\xfe{", b"9" * 5000, b"[" * 100_000 + b"]" * 100_000],
    ids=["missing", "brace", "truncated", "not-utf-8", "long-integer", "deep"])
def test_an_unreadable_config_writes_error_json(tmp_path, capsys, data):
    cfg = tmp_path / "c.json"
    if data is not None:
        cfg.write_bytes(data)
    out = tmp_path / "out"
    assert main(["circle", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ConfigError"
    assert capsys.readouterr().err == f"config error: {error['message']}\n"


def test_exit_3_is_exactly_the_solver_errors():
    assert all(issubclass(e, SolverError) for e in EXIT_3_ERRORS + (SingularAverageError,))
    assert not any(issubclass(e, SolverError)
                   for e in (ConfigError, GridMismatchError, SerializationError))


@pytest.mark.parametrize(
    "error, code",
    [(NonzeroMeanError("mean"), EXIT_SOLVER), (SingularAverageError("singular"), EXIT_SOLVER),
     (ResonantModeError((1,), 0.0), EXIT_SOLVER), (GridMismatchError("grids"), EXIT_INTERNAL)],
    ids=["nonzero-mean", "singular-average", "resonant", "grid-mismatch"],
)
def test_solve_errors_map_to_their_exit_codes(tmp_path, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve", fail)
    got, out = run_code(tmp_path, circle_config(amp=0.04))
    assert got == code
    assert json.loads((out / "error.json").read_text())["error"] == type(error).__name__


def dim3_torus_config(K):
    doc = torus_config()
    doc["grid"] = {"dim": 3, "K": K}
    doc["frequency"]["omega"] = [1.0, math.sqrt(2.0), math.sqrt(3.0)]
    doc["problem"]["a1"] = {"constant": doc["frequency"]["omega"]}
    doc["problem"]["Q"] = {"constant": np.eye(3).tolist()}
    doc["solver"]["mode"] = "thm1"
    return doc


@pytest.mark.parametrize("dim, Ks", [(1, range(262_000, 262_300)), (2, range(190, 280)),
                                     (3, range(16, 32))])
def test_the_guard_admits_no_torus_grid_that_the_full_grid_stack_rejects(dim, Ks):
    # the guard once sized a torus by one (2n)^2 low-pass stack on the 4K grid; the para-product
    # grid shrinks the stack, and the step's samples keep out every grid that it rejected. The
    # windows hold both thresholds; above them the step's samples alone exceed the budget at
    # dim 2 and 3
    for K in Ks:
        levels = max(0, (math.ceil(math.log2(K)) + 1 if K > 1 else 1) - 3)
        full_grid_stack = levels * (2 * dim) ** 2 * (4 * K) ** dim * 8
        try:
            cli._parse_grid({"dim": dim, "K": K}, "torus")
        except ConfigError:
            continue
        assert full_grid_stack <= cli.MEMORY_BUDGET_BYTES, K


class SolveReached(Exception):
    pass


def reach_solve(*args, **kwargs):
    raise SolveReached


@pytest.mark.parametrize("dim, K", [(1, 64), (1, 4), (2, 16), (2, 4), (3, 8), (3, 2)])
@pytest.mark.parametrize("torus", [False, True], ids=["scalar", "2n x 2n"])
def test_memory_estimate_is_the_bytes_of_the_handle_low_passes(dim, K, torus):
    """low_pass_bytes at the handle's top level is what a handle keeps, and the guards' count is
    no less; K = 4 and K = 2 have no level above 3."""
    grid = TorusGrid(dim, K)
    cut = make_cutoff(grid)
    shape = (2 * dim,) * 2 if torus else ()
    symbol = SpectralField(grid, np.zeros(shape + grid.mode_shape, dtype=complex))
    kept = ParaOpHandle(symbol, cut).low.nbytes
    assert low_pass_bytes(grid, shape, cut.j_max) == kept
    assert low_pass_bytes(grid, shape, level_bound(K)) >= kept


@pytest.mark.parametrize("dim, K, admitted", [(1, 262_144, True), (1, 262_145, False),
                                              (3, 17, True), (3, 18, False)])
def test_the_guard_admits_the_grids_it_admitted_before_the_top_level_was_pruned(dim, K, admitted):
    # the handle of a 1-D grid keeps one level less than level_bound, but the guard counts
    # level_bound until its estimate is checked against measured peaks: the last grids it
    # admits stay 1-D K = 262,144 and dim 3 K = 17
    try:
        cli._parse_grid({"dim": dim, "K": K}, "torus")
    except ConfigError:
        assert not admitted
    else:
        assert admitted


def test_torus_grid_over_the_memory_budget_is_config_error(tmp_path, monkeypatch):
    # dim 3 at K = 32: 3 levels of 6 x 6 low-passes on 81^3 points, about 438 MiB, and the
    # step's samples on 128^3 points, about 2.1 GiB
    monkeypatch.setattr(cli, "solve_torus", no_solve)
    code, out = run_code(tmp_path, dim3_torus_config(32), kind="torus")
    assert code == EXIT_CONFIG
    assert "MiB" in json.loads((out / "error.json").read_text())["message"]


def test_torus_grid_within_the_memory_budget_reaches_the_solve(tmp_path, monkeypatch):
    # dim 3 at K = 16: 2 levels on 45^3 points, about 50 MiB, and the step's samples on 64^3
    # points, about 270 MiB
    monkeypatch.setattr(cli, "solve_torus", reach_solve)
    with pytest.raises(SolveReached):
        run_code(tmp_path, dim3_torus_config(16), kind="torus")


def test_a_torus_config_without_tol_or_max_iter_gets_the_solver_defaults(tmp_path, monkeypatch):
    # the solver owns its defaults: max_iter is solve_torus's 50, not a CLI constant
    calls = []

    def capture(*args, **kwargs):
        calls.append(kwargs)
        raise SolveReached

    monkeypatch.setattr(cli, "solve_torus", capture)
    with pytest.raises(SolveReached):
        run_code(tmp_path, torus_config(), kind="torus")
    assert calls == [{"mode": "thm2", "s": 3.0}]
