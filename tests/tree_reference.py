"""Reference geometry of a tree measure, for tests: the package keeps no
atom coordinates, only the ancestor codes and the norms they imply."""

import numpy as np


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
