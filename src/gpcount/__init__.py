"""Exact counting polynomials and reciprocity checks for generalized
permutahedra, hypergraph colorings, and lattice points of rational polytopes."""

__version__ = "0.1.0"
