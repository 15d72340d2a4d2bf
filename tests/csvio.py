"""CSV serialization helpers for cross-implementation comparison."""

import numpy as np


def save_matrix_csv(path, matrix):
    """Write a numeric matrix (row = AP index, column = UE index) as plain CSV."""
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)),
               delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
