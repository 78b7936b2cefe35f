"""Mesh construction, barycentric interpolation, wavenumber transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import barycentric_eval, k_forward, k_inverse
from wigsolve.errors import DomainError, ParameterError
from wigsolve.grid import (
    PhaseSpaceGrid,
    WignerState,
    build_spatial_mesh,
    build_wavenumber_mesh,
    _interp_rows,
    clenshaw_curtis_weights,
    uniform_mesh,
)
from wigsolve.observables import resample_uniform


def test_three_point_element_nodes():
    mesh = build_spatial_mesh(-1.0, 1.0, 1, 3)
    np.testing.assert_allclose(mesh.collocation_points, [-1.0, 0.0, 1.0], atol=0)


def test_five_point_element_nodes():
    mesh = build_spatial_mesh(0.0, 2.0, 1, 5)
    r = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(
        mesh.collocation_points, [0.0, 1.0 - r, 1.0, 1.0 + r, 2.0], atol=1e-15
    )


def test_reference_grid_20_cells():
    mesh = build_spatial_mesh(-30.0, 30.0, 20, 55)
    assert mesh.num_points == 1100
    widths = np.diff(mesh.element_boundaries)
    np.testing.assert_allclose(widths, 3.0, rtol=1e-15)
    # shared nodes stored twice, bit-identical
    pts = mesh.points_by_element
    np.testing.assert_array_equal(pts[1:, 0], pts[:-1, -1])
    assert np.all(np.diff(pts, axis=1) > 0)


@pytest.mark.parametrize("bad", [(-1, 1, 0, 5), (-1, 1, 4, 2), (2, 2, 4, 5), (3, -3, 4, 5)])
def test_mesh_parameter_errors(bad):
    with pytest.raises(ParameterError):
        build_spatial_mesh(*bad)


def test_barycentric_reproduces_constants_and_cubics():
    mesh = build_spatial_mesh(-2.0, 4.0, 3, 4)
    nodes = mesh.points_by_element[1]
    assert barycentric_eval(mesh, np.full(4, 3.7), 1, nodes[0] + 0.3) == pytest.approx(3.7)
    vals = nodes**3
    for xs in np.linspace(nodes[0], nodes[-1], 17):
        assert barycentric_eval(mesh, vals, 1, xs) == pytest.approx(xs**3, abs=1e-12)


def test_barycentric_matches_direct_lagrange():
    # degree-6 polynomial through M = 7 nodes against the product formula
    rng = np.random.default_rng(42)
    mesh = build_spatial_mesh(-1.0, 5.0, 2, 7)
    nodes = mesh.points_by_element[0]
    coeffs = rng.standard_normal(7)
    vals = np.polyval(coeffs, nodes)

    def lagrange(x):
        total = 0.0
        for j in range(7):
            term = vals[j]
            for i in range(7):
                if i != j:
                    term *= (x - nodes[i]) / (nodes[j] - nodes[i])
            total += term
        return total

    for xs in rng.uniform(nodes[0], nodes[-1], 25):
        got = barycentric_eval(mesh, vals, 0, xs)
        assert got == pytest.approx(lagrange(xs), rel=1e-12, abs=1e-12)


def test_barycentric_exact_at_nodes_and_domain_error():
    mesh = build_spatial_mesh(0.0, 1.0, 2, 5)
    vals = np.arange(5.0)
    nodes = mesh.points_by_element[0]
    for j, xn in enumerate(nodes):
        assert barycentric_eval(mesh, vals, 0, xn) == vals[j]
    with pytest.raises(DomainError):
        barycentric_eval(mesh, vals, 0, 0.9)


def test_wavenumber_mesh_layout():
    km = build_wavenumber_mesh(-np.pi, np.pi, 8)
    np.testing.assert_allclose(km.collocation_k, -np.pi + np.arange(8) * np.pi / 4)
    np.testing.assert_array_equal(km.mode_indices, [-3, -2, -1, 0, 1, 2, 3, 4])
    assert km.mode_position(0) == 3
    with pytest.raises(ParameterError):
        build_wavenumber_mesh(0.0, 1.0, 7)


def test_k_forward_constant_and_single_mode():
    km = build_wavenumber_mesh(-np.pi, np.pi, 16)
    alpha = k_forward(np.ones(16), km)
    expect = np.zeros(16)
    expect[km.mode_position(0)] = 1.0
    np.testing.assert_allclose(alpha, expect, atol=1e-15)

    vals = np.cos(2 * np.pi * (km.collocation_k - km.k_min) / km.length)
    alpha = k_forward(vals, km)
    assert alpha[km.mode_position(1)] == pytest.approx(0.5, abs=1e-14)
    assert alpha[km.mode_position(-1)] == pytest.approx(0.5, abs=1e-14)
    others = np.delete(np.abs(alpha), [km.mode_position(1), km.mode_position(-1)])
    assert others.max() < 1e-14


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=8, deadline=None)
def test_k_roundtrip_and_parseval(log2n):
    n = 2**log2n
    rng = np.random.default_rng(n)
    km = build_wavenumber_mesh(-2.0, 3.0, n)
    v = rng.standard_normal(n)
    alpha = k_forward(v, km)
    back = k_inverse(alpha, km)
    assert np.abs(back.imag).max() < 1e-13
    np.testing.assert_allclose(back.real, v, atol=1e-13)
    # direct O(N^2) discrete Fourier sum as oracle
    j = np.arange(n)
    oracle = np.array([np.sum(v * np.exp(-2j * np.pi * nu * j / n)) / n for nu in km.mode_indices])
    np.testing.assert_allclose(alpha, oracle, atol=1e-12)
    assert np.sum(np.abs(alpha) ** 2) * n == pytest.approx(np.sum(v**2), rel=1e-12)


def test_conjugate_symmetry_for_real_input():
    km = build_wavenumber_mesh(-np.pi, np.pi, 32)
    v = np.random.default_rng(3).standard_normal(32)
    alpha = k_forward(v, km)
    for nu in range(1, 16):
        a = alpha[km.mode_position(nu)]
        b = alpha[km.mode_position(-nu)]
        assert b == pytest.approx(np.conj(a), abs=1e-13)


def test_uniform_mesh_offsets():
    pts = uniform_mesh(-30.0, 30.0, 600)
    assert pts[0] == pytest.approx(-30.0 + 0.05)
    assert pts[-1] == pytest.approx(30.0 - 0.05)
    assert len(pts) == 600


def _plane_grid(X=3.0, Q=4, M=9, N=32):
    return PhaseSpaceGrid.plane(
        build_spatial_mesh(-X, X, Q, M), build_wavenumber_mesh(-np.pi, np.pi, N)
    )


def test_resample_constant_field():
    grid = _plane_grid()
    state = WignerState(grid, np.full(grid.shape, 2.5))
    out = resample_uniform(state, 40)
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def test_resample_exact_on_mode_times_polynomial():
    grid = _plane_grid()
    xm, km = grid.x, grid.k
    x = xm.collocation_points
    poly = 0.3 * x**2 - x + 0.5
    mode = np.cos(3 * 2 * np.pi * (km.collocation_k - km.k_min) / km.length)
    state = WignerState(grid, np.outer(poly, mode))
    n = 25
    out = resample_uniform(state, n)
    xs = uniform_mesh(xm.domain_lo, xm.domain_hi, n)
    ks = uniform_mesh(km.k_min, km.k_max, n)
    expect = np.outer(0.3 * xs**2 - xs + 0.5, np.cos(3 * 2 * np.pi * (ks - km.k_min) / km.length))
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_resample_no_blowup_on_random_fields():
    grid = _plane_grid()
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = WignerState(grid, rng.standard_normal(grid.shape))
        out = resample_uniform(state, 64)
        assert np.abs(out).max() <= 5.0 * np.abs(state.values).max()


def test_resample_reproduces_the_wavenumber_nodes():
    # at N_um = N_k / 2 the cell-centred k targets are the odd nodes, and a
    # field of degree below M in x is reproduced exactly between the nodes
    grid = PhaseSpaceGrid.plane(
        build_spatial_mesh(-3.0, 3.0, 4, 9), build_wavenumber_mesh(-1.0, 4.0, 16)
    )
    x = grid.x.collocation_points
    data = np.random.default_rng(12).standard_normal(16)
    state = WignerState(grid, np.outer(0.3 * x**2 - x + 0.5, data))
    xs = uniform_mesh(-3.0, 3.0, 8)
    out = resample_uniform(state, 8)
    np.testing.assert_allclose(out, np.outer(0.3 * xs**2 - xs + 0.5, data[1::2]), atol=1e-12)


def test_interp_rows_reject_outside_targets():
    mesh = build_spatial_mesh(-1.0, 1.0, 2, 5)
    for outside in (1.5, -1.0 - 1e-12):
        with pytest.raises(DomainError):
            _interp_rows(mesh, np.array([0.0, outside]))


@pytest.mark.parametrize("M", [3, 5, 8, 21, 55])
def test_clenshaw_curtis_exact_on_polynomials(M):
    w = clenshaw_curtis_weights(M)
    nodes = -np.cos(np.arange(M) * np.pi / (M - 1))
    for p in range(M):
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)  # int_{-1}^{1} x^p dx
        assert w @ nodes**p == pytest.approx(exact, abs=1e-13)


def test_state_shape_validation():
    grid = _plane_grid()
    with pytest.raises(ParameterError):
        WignerState(grid, np.zeros((3, 3)))
