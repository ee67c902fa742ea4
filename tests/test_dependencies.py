"""The package needs nothing beyond the standard library and NumPy, its one declared dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SOLVES = """
import math, sys
before = set(sys.modules)
import paratorus as pt

K = 16
g = pt.TorusGrid(1, K)
alpha = pt.RotationAngle.certify(math.pi * (math.sqrt(5.0) - 1.0), 1.0, K)
circle = pt.solve(pt.CircleProblem(alpha=alpha, f=pt.SpectralField.from_modes(g, {1: -0.025j}), s=3.0))
g = pt.TorusGrid(2, 8)
om = pt.FrequencyVector.certify([1.0, (1.0 + math.sqrt(5.0)) / 2.0], 1.0, 8)
h = pt.HamiltonianData(a0=pt.SpectralField.from_modes(g, {(1, 0): 0.005}),
                       a1=pt.SpectralField.constant(g, list(om.omega)),
                       Q=pt.SpectralField.constant(g, [[1.0, 0.0], [0.0, 1.0]]))
torus = pt.solve_torus(h, om, mode="thm1", s=3.0)
assert circle.report.status == torus.report.status == "converged"
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "paratorus"})))
"""


def test_a_circle_and_a_torus_solve_load_only_the_stdlib_and_numpy():
    # SciPy may be importable where the suite runs, but pyproject.toml declares NumPy only
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", SOLVES], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == []
