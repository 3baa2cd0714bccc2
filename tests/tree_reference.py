"""Reference geometry of a tree measure, for tests: the package keeps no
atom coordinates and no pair-level table, only the ancestor codes and the
norms they imply."""

import numpy as np

from overlap_lab.measures import DiscreteMeasure


def tree_atoms(structure) -> np.ndarray:
    """(m, d) leaf coordinates, d = B + B**2 + ... + B**k: leaf i has
    coordinate sqrt(q_l - q_(l-1)) on the axis of its depth-l ancestor, so
    two leaves' inner product is the q of their deepest shared ancestor."""
    coefs = np.sqrt(np.diff([0.0, *structure.q]))
    B, m = structure.B, structure.m
    atoms = np.zeros((m, sum(B ** (l + 1) for l in range(structure.k))))
    offset = 0
    for l, code in enumerate(structure.codes):
        atoms[np.arange(m), offset + code] = coefs[l]
        offset += B ** (l + 1)
    return atoms


def digit_levels(B, k, i, j):
    """Reference tree pair levels: 1 + the length of the common leading run
    of two leaves' base-B path digits, most significant first. One digit
    at a time, so that an (m, m) table holds no (m, m, k) temporaries."""
    i, j = np.asarray(i), np.asarray(j)
    run = np.ones(np.broadcast_shapes(i.shape, j.shape), dtype=bool)
    levels = np.ones(run.shape, dtype=np.int16)
    for radix in B ** np.arange(k - 1, -1, -1):
        run &= i // radix % B == j // radix % B
        levels += run
    return levels


def tree_table(structure) -> np.ndarray:
    """(m, m) digit_levels of every pair of a tree's leaves."""
    leaves = np.arange(structure.m)
    return digit_levels(structure.B, structure.k, leaves[:, None],
                        leaves[None, :])


def explicit_tree(measure) -> DiscreteMeasure:
    """The explicit measure with a tree measure's weights, grid and norms,
    and tree_table as its pair-level table."""
    return DiscreteMeasure(measure.weights, measure.grid, "explicit",
                           norms_sq=measure.norms_sq,
                           table=tree_table(measure.tree))
