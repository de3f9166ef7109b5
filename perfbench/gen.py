"""Seeded input documents for the benchmark workloads.

Everything here is plain stdlib and writes the program's JSON document
formats directly, so the inputs do not change when the program's own
generators do.  Each function takes a `random.Random` and returns the
document together with the facts the oracles need (edges, weights, bounds).

Hypergraphs and hypergraphic set functions start from a fixed edge list
(`template_edges`) that the seed relabels by a permutation of the ground set
and weighs; rational boxes and simplices have fixed denominators and side
lengths, and the seed picks offsets.  The seed thus changes every document
but not its combinatorial type, so a request costs about the same for every
seed and the run-to-run spread measures the machine and the program, not the
draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor, lcm

NODE_NAMES = "abcdefghij"


def rat(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def random_edges(rng: random.Random, d: int, sizes) -> list[tuple[int, ...]]:
    """One edge per entry of `sizes`, members drawn from 1..d."""
    return [tuple(sorted(rng.sample(range(1, d + 1), s))) for s in sizes]


def template_edges(name: str, d: int, sizes) -> list[tuple[int, ...]]:
    """A fixed edge list, one edge per entry of `sizes`, the same for every seed."""
    return random_edges(random.Random(f"template/{name}"), d, sizes)


def relabel(rng: random.Random, d: int, edges) -> list[tuple[int, ...]]:
    """The edges under a random permutation of 1..d: an isomorphic hypergraph."""
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    return [tuple(sorted(perm[i - 1] for i in e)) for e in edges]


def hypergraph_doc(d: int, edges) -> dict:
    names = NODE_NAMES[:d]
    return {"nodes": list(names),
            "edges": [[names[i - 1] for i in e] for e in edges]}


def hypergraphic_values(d: int, edges, weights) -> list[Fraction]:
    """z(T) = sum of the weights of the edges meeting T; subsets as bitmasks."""
    masks = [sum(1 << (i - 1) for i in e) for e in edges]
    return [Fraction(sum(w for em, w in zip(masks, weights) if em & mask))
            for mask in range(1 << d)]


def setfn_doc(d: int, values) -> dict:
    return {"d": d, "values": [rat(v) for v in values]}


def standard_perm_values(d: int) -> list[Fraction]:
    return [Fraction(k * d - k * (k - 1) // 2)
            for k in (bin(mask).count("1") for mask in range(1 << d))]


def unit_row(d: int, i: int, sign: int) -> list[str]:
    return [str(sign) if j == i else "0" for j in range(d)]


def box_doc(bounds) -> dict:
    d = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        rows.append({"a": unit_row(d, i, -1), "rel": "<=", "b": rat(-lo)})
        rows.append({"a": unit_row(d, i, 1), "rel": "<=", "b": rat(hi)})
    return {"d": d, "rows": rows,
            "bbox": [[floor(lo), ceil(hi)] for lo, hi in bounds]}


def simplex_doc(d: int, scale) -> dict:
    """x_i >= 0 and sum x_i <= scale."""
    rows = [{"a": unit_row(d, i, -1), "rel": "<=", "b": "0"} for i in range(d)]
    rows.append({"a": ["1"] * d, "rel": "<=", "b": rat(scale)})
    return {"d": d, "rows": rows, "bbox": [[0, ceil(scale)]] * d}


def random_hypergraph(rng: random.Random, d: int, template) -> dict:
    """The template edges, relabelled."""
    edges = relabel(rng, d, template)
    return {"doc": hypergraph_doc(d, edges), "d": d, "edges": edges}


def random_hypergraphic_setfn(rng: random.Random, d: int, template,
                              max_weight: int = 3) -> dict:
    """The template edges, relabelled, with weights from 1..max_weight."""
    edges = relabel(rng, d, template)
    weights = [rng.randint(1, max_weight) for _ in edges]
    return {"doc": setfn_doc(d, hypergraphic_values(d, edges, weights)),
            "d": d, "edges": edges, "weights": weights}


def random_rational_box(rng: random.Random, dens, lengths) -> dict:
    """Axis i has endpoints with denominator dens[i] and side about lengths[i].

    The declared period is lcm(dens): every vertex denominator divides it,
    so the declaration is valid even when a drawn endpoint reduces.
    """
    bounds = []
    for q, length in zip(dens, lengths):
        lo = Fraction(rng.randint(-q, q), q)
        hi = lo + Fraction(rng.randint(length * q - 1, length * q + 1), q)
        bounds.append((lo, hi))
    return {"doc": box_doc(bounds), "degree": len(dens), "period": lcm(*dens),
            "bounds": bounds}


def random_rational_simplex(rng: random.Random, d: int, den: int,
                            scale_range) -> dict:
    """A scaled standard simplex; the declared period is the denominator."""
    lo, hi = scale_range
    scale = Fraction(rng.randint(lo * den + 1, hi * den - 1), den)
    return {"doc": simplex_doc(d, scale), "degree": d, "period": den,
            "d": d, "scale": scale}
