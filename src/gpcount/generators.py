"""Seeded random instance generators for the self-verification suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .ehrhart import HPolytope, box, standard_simplex
from .hypergraph import Hypergraph, hypergraphic_setfn
from .setfn import SetFn

SETFN_MAX_EDGES = 5   # edge draws for a hypergraphic set function
SETFN_MAX_WEIGHT = 3  # copies of each drawn edge, 0..SETFN_MAX_WEIGHT
POLY_MAX_D = 3        # dimension of a random box or simplex, 1..POLY_MAX_D
POLY_MAX_DEN = 3      # denominators of its bounds, 1..POLY_MAX_DEN


def random_hypergraph(rng: random.Random, max_d: int = 5,
                      max_edges: int = 5) -> Hypergraph:
    d = rng.randint(2, max_d)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, d)
        edges.append(frozenset(rng.sample(range(1, d + 1), size)))
    return Hypergraph(d, tuple(edges))


def random_hypergraphic_setfn(rng: random.Random, max_d: int = 5) -> SetFn:
    """Nonnegative-integer-weighted sum of edge-intersection counters;
    submodular by construction."""
    d = rng.randint(2, max_d)
    edges = []
    for _ in range(rng.randint(1, SETFN_MAX_EDGES)):
        size = rng.randint(1, d)
        edge = frozenset(rng.sample(range(1, d + 1), size))
        edges.extend([edge] * rng.randint(0, SETFN_MAX_WEIGHT))
    if not edges:
        edges = [frozenset({rng.randint(1, d)})]
    return hypergraphic_setfn(Hypergraph(d, tuple(edges)))


def random_rational_box(rng: random.Random) -> tuple[HPolytope, int, int]:
    """A full-dimensional box with denominators <= POLY_MAX_DEN.

    Returns (polytope, degree, period): the degree is the dimension, and the
    period is the lcm of the endpoint denominators, which every vertex
    denominator divides.
    """
    d = rng.randint(1, POLY_MAX_D)
    bounds = []
    dens = [1]
    for _ in range(d):
        den = rng.randint(1, POLY_MAX_DEN)
        lo = Fraction(rng.randint(-2 * den, den), den)
        hi = lo + Fraction(rng.randint(1, 2 * den), den)
        bounds.append((lo, hi))
        dens.append(lo.denominator)
        dens.append(hi.denominator)
    return box(bounds), d, lcm(*dens)


def random_rational_simplex(rng: random.Random) -> tuple[HPolytope, int, int]:
    """A scaled standard simplex with a denominator <= POLY_MAX_DEN."""
    d = rng.randint(1, POLY_MAX_D)
    den = rng.randint(1, POLY_MAX_DEN)
    scale = Fraction(rng.randint(den, 3 * den), den)
    return standard_simplex(d, scale), d, scale.denominator
