"""Level matrices for the grid and eigen tests: symmetric int16 arrays of
grid-level indices with a DIAG diagonal, as the samplers draw them. A
grid's values_by_index()[levels] gives their values."""

import numpy as np

from overlap_lab.grid import DIAG


def from_offdiag(n, offdiag_levels):
    """The (n, n) level matrix of row-major upper-triangle level indices."""
    levels = np.full((n, n), DIAG, dtype=np.int16)
    iu, ju = np.triu_indices(n, k=1)
    levels[iu, ju] = levels[ju, iu] = offdiag_levels
    return levels

