"""Gauss-Hermite rules.

Rules follow the physicists' convention: an order-n rule integrates
f(x) exp(-x^2) exactly for polynomials f of degree <= 2n - 1, and the
weights sum to sqrt(pi).  The pair-density kernel in
:mod:`pairpois.model` maps the tensor product of two rules onto the
stationary law of two latent values (:func:`pairpois.model._pass_grid`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 100


@dataclass(frozen=True)
class QuadRule:
    """One-dimensional Gauss-Hermite rule for the weight exp(-x^2).

    Nodes are strictly increasing and symmetric about zero; weights are
    positive, symmetric, and sum to sqrt(pi).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadRule:
    """Build the order-point Gauss-Hermite rule.

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix, taken with dense ``numpy.linalg.eigvalsh`` (at most 100 x
    100), which is stable for all supported orders; weights come from
    the Christoffel function at the nodes.
    The rule is cached, and its arrays are marked read-only.

    Parameters
    ----------
    order : int
        Number of nodes, between 1 and 100.

    Raises
    ------
    ValueError
        If ``order`` is not an integer in [1, 100].
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    order = int(order)
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")

    if order == 1:
        nodes = np.zeros(1)
        weights = np.array([math.sqrt(math.pi)])
    else:
        off_diag = np.sqrt(np.arange(1, order) / 2.0)
        nodes = np.linalg.eigvalsh(np.diag(off_diag, 1) + np.diag(off_diag, -1))
        # enforce the exact symmetry the continuous rule has
        nodes = 0.5 * (nodes - nodes[::-1])
        if order % 2 == 1:
            nodes[order // 2] = 0.0
        # Weights through the Christoffel function 1 / sum_k p_k(x)^2 of
        # the orthonormal recurrence: positive by construction, and free
        # of the underflow the eigenvector route suffers at high order.
        p_prev = np.zeros(order)
        p = np.full(order, math.pi**-0.25)
        total = p * p
        for k in range(1, order):
            p, p_prev = nodes * p * math.sqrt(2.0 / k) - p_prev * math.sqrt((k - 1.0) / k), p
            total += p * p
        weights = 1.0 / total
        weights = 0.5 * (weights + weights[::-1])

    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(order=order, nodes=nodes, weights=weights)
