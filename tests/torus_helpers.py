"""Torus test data shared by the unit and acceptance suites: sparse fields, embeddings and the
remainder amplitude sweep."""

import math

import numpy as np

from paratorus import (
    FrequencyVector,
    HamiltonianData,
    SpectralField,
    TorusEmbedding,
    TorusGrid,
    assemble_rhs,
    error_fields,
    hamiltonian_vector_field,
    make_cutoff,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sparse_field(grid, rng, amp, band=3):
    f = SpectralField.constant(grid, 0.0)
    K = grid.max_mode
    for _ in range(5):
        k = tuple(int(rng.integers(-band, band + 1)) for _ in range(grid.dim))
        v = amp * (rng.standard_normal() + 1j * rng.standard_normal())
        idx = tuple(c + K for c in k)
        ridx = tuple(-c + K for c in k)
        f.coeffs[idx] += v
        f.coeffs[ridx] += np.conj(v)
    return f


def random_embedding(grid, rng, amp, band=3):
    n = grid.dim
    return TorusEmbedding(
        ux=SpectralField.stack([sparse_field(grid, rng, amp, band) for _ in range(n)]),
        uy=SpectralField.stack([sparse_field(grid, rng, amp, band) for _ in range(n)]),
    )


def flat_xh(h):
    """X_h at the flat torus, the base point of the para-linearization remainder."""
    return hamiltonian_vector_field(h, TorusEmbedding.flat(h.grid))


def step_rhs(h, u, om, cut, e0):
    """The right-hand side assemble_rhs gives the Picard step from u."""
    return assemble_rhs(h, u, hamiltonian_vector_field(h, u), e0, flat_xh(h), om, cut)[0]


def remainder_amplitude_sweep(amps, K=8, seed=11):
    """Joint sweep: Hamiltonian perturbation and displacement both scale with amp.

    This is the regime of the quadratic smallness structure (the displacement
    of a true solution scales with the perturbation); the two remainder terms
    then shrink like amp^2.
    """
    g = TorusGrid(2, K)
    om = FrequencyVector.certify([1.0, GOLDEN], 1.0, K)
    cut = make_cutoff(g)
    rng = np.random.default_rng(seed)
    p0 = sparse_field(g, rng, 1.0)
    p1 = [sparse_field(g, rng, 1.0) for _ in range(2)]
    pq = sparse_field(g, rng, 1.0)
    u1 = random_embedding(g, rng, 1.0)
    sizes = []
    for amp in amps:
        a1 = SpectralField.stack([p1[i] * amp + om.omega[i] for i in range(2)])
        Q = SpectralField.stack(
            [
                [pq * amp + 1.0, SpectralField.constant(g, 0.0)],
                [SpectralField.constant(g, 0.0), pq * amp + 1.2],
            ]
        )
        h = HamiltonianData(a0=p0 * amp, a1=a1, Q=Q)
        e0, _ = error_fields(h, om)
        u = TorusEmbedding(
            ux=SpectralField.stack([f * amp for f in u1.ux]),
            uy=SpectralField.stack([f * amp for f in u1.uy]),
        )
        sizes.append((step_rhs(h, u, om, cut, e0) + e0).l2_norm())  # remainder part only
    return sizes
