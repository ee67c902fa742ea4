"""Spans around the public entry points of each paratorus layer, and per-layer metrics.

The tracer wraps public functions and methods from the outside. A name
imported with ``from .spectral import analyze`` is a separate binding in every
importing module, so each wrapped function is replaced in every paratorus
module that binds it. Spans (name, start, end, parent) and a per-span work
count are kept in flat arrays while tracing, and turned into metrics (and
optionally written to disk) afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np


def _field_points(self):
    return self.grid.points_per_dim ** self.grid.dim


def _grid_points(grid, samples, return_tail=False):
    return grid.points_per_dim ** grid.dim


def _warp_mode_points(f, warped_points, drop_tol=0.0):
    modes = int(np.count_nonzero(np.abs(f.coeffs) > drop_tol))
    return modes * (warped_points.size // warped_points.shape[0])


def _orbit_steps(alpha, f, lam, iterations, x0=0.1):
    return int(iterations)


def _flow_rhs_evals(h, u, xi, omega, theta0, T, dt, energy_tol=1e-6):
    return 4 * int(round(T / dt))  # classical RK4: four right-hand sides per step


# (span name, module, attribute, work count or None); the layer is the module
FUNCTIONS = [
    ("spectral.analyze", "spectral", "analyze", _grid_points),
    ("spectral.warp_samples", "spectral", "warp_samples", _warp_mode_points),
    ("spectral.compose_warped", "spectral", "compose_warped", None),
    ("spectral.synthesize", "spectral", "synthesize", None),
    ("dyadic.make_cutoff", "dyadic", "make_cutoff", None),
    ("paraprod.para_invert", "paraprod", "para_invert", None),
    ("paraprod.para_invert_with_handle", "paraprod", "para_invert_with_handle", None),
    ("paraprod.para_compose", "paraprod", "para_compose", None),
    ("smalldiv.certify_diophantine", "smalldiv", "certify_diophantine", None),
    ("smalldiv.certify_rotation_angle", "smalldiv", "certify_rotation_angle", None),
    ("smalldiv.delta_alpha_inverse", "smalldiv", "delta_alpha_inverse", None),
    ("smalldiv.omega_directional_inverse", "smalldiv", "omega_directional_inverse", None),
    ("circle.solve", "circle", "solve", None),
    ("circle.g_map", "circle", "g_map", None),
    ("circle.residual", "circle", "residual", None),
    ("circle.certify", "circle", "certify", None),
    ("circle.rotation_number", "circle", "rotation_number", _orbit_steps),
    ("hamtorus.solve_torus", "hamtorus", "solve_torus", None),
    ("hamtorus.error_fields", "hamtorus", "error_fields", None),
    ("hamtorus.hamiltonian_vector_field", "hamtorus", "hamiltonian_vector_field", None),
    ("hamtorus.assemble_rhs", "hamtorus", "assemble_rhs", None),
    ("hamtorus.linear_para_homological_solve", "hamtorus", "linear_para_homological_solve", None),
    ("hamtorus.residual_torus", "hamtorus", "residual_torus", None),
    ("hamtorus.neumann_certificate", "hamtorus", "neumann_certificate", None),
    ("hamtorus.counterterm_check", "hamtorus", "counterterm_check", None),
    ("hamtorus.frame", "hamtorus", "frame", None),
    ("hamtorus.b_matrices", "hamtorus", "b_matrices", None),
    ("hamtorus.flow_oracle", "hamtorus", "flow_oracle", _flow_rhs_evals),
]

# (span name, module, class, method, work count or None)
METHODS = [
    ("spectral.samples", "spectral", "SpectralField", "samples", _field_points),
    ("dyadic.block", "dyadic", "DyadicCutoff", "block", None),
    ("dyadic.partial_sum", "dyadic", "DyadicCutoff", "partial_sum", None),
    ("paraprod.handle_build", "paraprod", "ParaOpHandle", "__init__", None),
    ("paraprod.apply", "paraprod", "ParaOpHandle", "apply", None),
    ("paraprod.apply_vector", "paraprod", "ParaOpHandle", "apply_vector", None),
]

LAYERS = ("spectral", "dyadic", "paraprod", "smalldiv", "circle", "hamtorus")

_INVERT = ("paraprod.para_invert", "paraprod.para_invert_with_handle")
_APPLY = ("paraprod.apply", "paraprod.apply_vector")

# metric -> span names whose calls it counts
CALLS = {
    "spectral.synth_calls": ("spectral.samples",),
    "spectral.analyze_calls": ("spectral.analyze",),
    "spectral.warp_calls": ("spectral.warp_samples",),
    "dyadic.block_calls": ("dyadic.block", "dyadic.partial_sum"),
    "paraprod.handle_builds": ("paraprod.handle_build",),
    "paraprod.handle_applies": _APPLY,
    "paraprod.invert_calls": _INVERT,
    "smalldiv.inverse_calls": (
        "smalldiv.delta_alpha_inverse", "smalldiv.omega_directional_inverse",
    ),
    "circle.picard_iters": ("circle.g_map",),  # one g_map per Picard step
    "hamtorus.picard_iters": ("hamtorus.assemble_rhs",),  # one right-hand side per step
}

# metric -> span names whose work counts it sums
WORK = {
    "spectral.fft_points": ("spectral.samples", "spectral.analyze"),
    "spectral.warp_mode_points": ("spectral.warp_samples",),
    "circle.oracle_steps": ("circle.rotation_number",),
    "hamtorus.oracle_rhs_evals": ("hamtorus.flow_oracle",),
}

# metric -> span names whose wall time it sums (a span inside another of the
# same set is not counted twice)
TIMES = {
    "spectral.transform_s": ("spectral.samples", "spectral.analyze"),
    "spectral.warp_s": ("spectral.warp_samples",),
    "dyadic.cutoff_build_s": ("dyadic.make_cutoff",),
    "paraprod.handle_build_s": ("paraprod.handle_build",),
    "paraprod.handle_apply_s": _APPLY,
    "paraprod.invert_s": _INVERT,
    "paraprod.compose_s": ("paraprod.para_compose",),
    "smalldiv.inverse_s": CALLS["smalldiv.inverse_calls"],
    "smalldiv.certify_s": ("smalldiv.certify_diophantine", "smalldiv.certify_rotation_angle"),
    "circle.gmap_s": ("circle.g_map",),
    "circle.residual_s": ("circle.residual",),
    "circle.certify_s": ("circle.certify",),
    "circle.oracle_s": ("circle.rotation_number",),
    "hamtorus.assemble_rhs_s": ("hamtorus.assemble_rhs",),
    "hamtorus.linear_solve_s": ("hamtorus.linear_para_homological_solve",),
    "hamtorus.residual_s": ("hamtorus.residual_torus",),
    "hamtorus.certificate_s": ("hamtorus.neumann_certificate", "hamtorus.counterterm_check"),
    "hamtorus.oracle_s": ("hamtorus.flow_oracle",),
}


class Tracer:
    """Records one span per call of every wrapped entry point while patched in."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]

    def _wrap(self, fn, name, work):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, counts, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            counts.append(work(*args, **kwargs) if work is not None else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every entry point in every paratorus module binding it; undo on exit."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "paratorus" or name.startswith("paratorus.")
        ]
        undo = []
        try:
            for name, mod, attr, work in FUNCTIONS:
                original = getattr(sys.modules[f"paratorus.{mod}"], attr)
                wrapper = self._wrap(original, name, work)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, binding, original))
                            setattr(m, binding, wrapper)
            for name, mod, cls_name, meth, work in METHODS:
                cls = getattr(sys.modules[f"paratorus.{mod}"], cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, work))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, within=None) -> dict:
        """Per-layer counts and times from the recorded spans.

        With ``within`` (span names), only spans nested inside one of those
        spans count, e.g. the solver's share of a solve-and-verify pass.
        """
        a = self.arrays()
        n = a["name_id"].size
        dur = a["end"] - a["start"]
        parent = np.where(a["parent"] < 0, n, a["parent"])  # n is a sentinel root

        def has_ancestor_in(m):
            m_ext = np.append(m, False)
            found = m_ext[parent]
            while True:
                nxt = found | np.append(found, False)[parent]
                if np.array_equal(nxt, found):
                    return found
                found = nxt

        keep = np.ones(n, dtype=bool)

        def mask(names):
            ids = [self._ids[x] for x in names if x in self._ids]
            return np.isin(a["name_id"], ids) & keep

        if within is not None:
            keep = has_ancestor_in(mask(within))

        def outer_time(names):
            m = mask(names)
            return float(dur[m & ~has_ancestor_in(m)].sum())

        out = {}
        for metric, names in CALLS.items():
            out[metric] = int(mask(names).sum())
        for metric, names in WORK.items():
            out[metric] = int(a["work"][mask(names)].sum())
        for metric, names in TIMES.items():
            out[metric] = outer_time(names)

        parent_ids = np.append(a["name_id"], -1)[parent]
        invert_ids = [self._ids[x] for x in _INVERT if x in self._ids]
        inner = mask(_APPLY) & np.isin(parent_ids, invert_ids)
        out["paraprod.invert_inner_iters"] = int(inner.sum())  # one apply per Neumann step
        out["paraprod.invert_apply_s"] = float(dur[inner].sum())
        builds = out["paraprod.handle_builds"]
        out["paraprod.applies_per_build"] = out["paraprod.handle_applies"] / builds if builds else 0.0

        child = np.zeros(n + 1)
        np.add.at(child, parent, dur)
        self_time = dur - child[:n]
        layer_of = np.array([self.names[i].split(".")[0] for i in range(len(self.names))])
        span_layer = layer_of[a["name_id"]] if n else np.array([], dtype=str)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[(span_layer == layer) & keep].sum())
        return out
