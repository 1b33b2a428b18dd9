import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairpois import gauss_hermite
from pairpois.model import _TensorKernel

SQRT_PI = math.sqrt(math.pi)


def test_one_point_rule_is_analytic():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert_allclose(rule.weights, [SQRT_PI], rtol=0, atol=1e-15)


def test_two_point_rule_is_analytic():
    rule = gauss_hermite(2)
    assert_allclose(rule.nodes, [-1.0 / math.sqrt(2), 1.0 / math.sqrt(2)], atol=1e-14)
    assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], atol=1e-14)


def test_five_point_rule_matches_independent_oracle():
    # numpy's hermgauss is an independent companion-matrix implementation
    nodes, weights = np.polynomial.hermite.hermgauss(5)
    rule = gauss_hermite(5)
    assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-12)
    assert_allclose(rule.weights, weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [0, -1, 101, 2.5, "10", True])
def test_invalid_order_rejected(bad):
    with pytest.raises(ValueError):
        gauss_hermite(bad)


@pytest.mark.parametrize("order", [1, 2, 3, 7, 20, 51, 100])
def test_rule_structure(order):
    rule = gauss_hermite(order)
    assert rule.nodes.shape == (order,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # symmetry about zero
    assert_allclose(rule.nodes, -rule.nodes[::-1], rtol=0, atol=1e-12)
    assert_allclose(rule.weights, rule.weights[::-1], rtol=0, atol=1e-14)
    assert abs(rule.weights.sum() - SQRT_PI) < 1e-10


def tridiagonal_route(order):
    # the rule as built with scipy's tridiagonal eigensolver, followed by
    # the same symmetrisation and Christoffel weights
    from scipy.linalg import eigh_tridiagonal

    if order == 1:
        return np.zeros(1), np.array([SQRT_PI])
    nodes = eigh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1, order) / 2.0), eigvals_only=True)
    nodes = 0.5 * (nodes - nodes[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    p_prev = np.zeros(order)
    p = np.full(order, math.pi**-0.25)
    total = p * p
    for k in range(1, order):
        p, p_prev = nodes * p * math.sqrt(2.0 / k) - p_prev * math.sqrt((k - 1.0) / k), p
        total += p * p
    weights = 1.0 / total
    return nodes, 0.5 * (weights + weights[::-1])


@pytest.mark.parametrize("order", range(1, 101))
def test_rule_bit_identical_to_tridiagonal_eigensolver(order):
    nodes, weights = tridiagonal_route(order)
    rule = gauss_hermite(order)
    assert rule.nodes.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()


def test_rules_are_cached_and_readonly():
    rule = gauss_hermite(20)
    assert rule is gauss_hermite(20)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


def gaussian_moment(k: int) -> float:
    # integral of x^k exp(-x^2) over the real line
    return 0.0 if k % 2 else math.gamma((k + 1) / 2)


@pytest.mark.parametrize("order", range(2, 21))
def test_polynomial_exactness(order):
    # relative to the absolute-moment scale, which also covers the odd
    # moments whose true value is zero
    rule = gauss_hermite(order)
    for k in range(2 * order):
        approx = float(np.sum(rule.weights * rule.nodes**k))
        scale = math.gamma((k + 1) / 2)
        assert abs(approx - gaussian_moment(k)) <= 1e-9 * scale, (order, k)


# ---------------------------------------------------------------------------
# the kernel grid as a bivariate-normal rule


def lag_grid(rule, tau2, rho):
    """Slot 0 of :meth:`_TensorKernel.grid` of a one-pair kernel, the
    kernel grid at latent variance ``tau2`` and correlation ``rho``."""
    kernel = _TensorKernel(rule, [0, 1], np.zeros((2, 1)), np.zeros((2, 1)))
    grids, _ = kernel.grid(math.sqrt(2.0 * tau2), [rho])
    return grids[0]


class GridRule:
    """The kernel grid of :meth:`_TensorKernel.grid` read as a cubature rule for
    E[f(u, v)]: probability weights exp(row 0), points (row 1, row 3)."""

    def __init__(self, rule, tau2, rho):
        grid = lag_grid(rule, tau2, rho)
        self.weights = np.exp(grid[0])
        self.points = np.column_stack([grid[1], grid[3]])

    def expect(self, f):
        return float(np.sum(self.weights * f(self.points[:, 0], self.points[:, 1])))


def test_bivariate_weights_are_probability_measure():
    rule = GridRule(gauss_hermite(13), tau2=0.7, rho=-0.4)
    assert abs(rule.weights.sum() - 1.0) < 1e-10
    assert np.all(rule.weights > 0)
    assert rule.points.shape == (13 * 13, 2)


@pytest.mark.parametrize("tau2,rho", [(1.0, 0.0), (2.0369, 0.5), (0.0645, -0.9), (0.51, 0.99)])
def test_bivariate_second_moments_exact(tau2, rho):
    rule = GridRule(gauss_hermite(2), tau2, rho)
    assert abs(rule.expect(lambda u, v: u * u) - tau2) < 1e-12 * max(1.0, tau2)
    assert abs(rule.expect(lambda u, v: v * v) - tau2) < 1e-12 * max(1.0, tau2)
    assert abs(rule.expect(lambda u, v: u * v) - rho * tau2) < 1e-12 * max(1.0, tau2)


def test_independence_factorizes():
    rule = GridRule(gauss_hermite(11), tau2=0.8, rho=0.0)
    gh = gauss_hermite(11)
    scale = math.sqrt(2 * 0.8)
    f = lambda x: np.cos(x)
    g = lambda x: x**4
    joint = rule.expect(lambda u, v: f(u) * g(v))
    marg_f = float(np.sum(gh.weights / SQRT_PI * f(scale * gh.nodes)))
    marg_g = float(np.sum(gh.weights / SQRT_PI * g(scale * gh.nodes)))
    assert abs(joint - marg_f * marg_g) < 1e-10


@pytest.mark.parametrize(
    "f",
    [
        lambda u, v: u,
        lambda u, v: v,
        lambda u, v: u**3 + v**3,
        lambda u, v: u * v * v,
        lambda u, v: np.sin(u + v),
    ],
)
def test_odd_functions_integrate_to_zero(f):
    rule = GridRule(gauss_hermite(14), tau2=1.3, rho=0.6)
    assert abs(rule.expect(f)) < 1e-12


def test_lognormal_moment_identity():
    # E exp(u + v) = exp(var(u + v) / 2) = exp(tau2 * (1 + rho))
    tau2, rho = 2.0369, 0.5
    rule = GridRule(gauss_hermite(20), tau2, rho)
    assert abs(rule.expect(lambda u, v: np.exp(u + v)) - math.exp(tau2 * (1 + rho))) < 1e-6


@pytest.mark.parametrize(
    "order,tau2,rho", [(1, 0.3, 0.2), (5, 1.7, -0.6), (20, 0.5109, 0.0), (20, 2.0369, 0.729)]
)
def test_kernel_grid_uses_bivariate_points(order, tau2, rho):
    # the nodes mapped through the Cholesky factor of the latent covariance:
    # u = sqrt(2 tau2) x_j, v = sqrt(2 tau2) (rho x_j + sqrt(1 - rho^2) x_k)
    rule = gauss_hermite(order)
    grid = lag_grid(rule, tau2, rho)
    x_j, x_k = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    scale = math.sqrt(2.0 * tau2)
    s = math.sqrt(1.0 - rho * rho)
    assert np.array_equal(grid[1], (scale * x_j).ravel())
    assert np.array_equal(grid[3], (scale * (rho * x_j + s * x_k)).ravel())
