"""Field containers: physical scalars and vectors on one grid."""

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid


def _check_shape(grid, values, extra=()):
    want = tuple(extra) + tuple(grid.resolution)
    if values.shape != want:
        raise ValueError(f"field shape {values.shape} does not match grid {want}")


@dataclass
class ScalarField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_shape(self.grid, self.values)


@dataclass
class VectorField:
    """Three scalar components on one shared grid, stored stacked as
    an array of shape (3, N1, N2, N3)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_shape(self.grid, self.values, extra=(3,))

    def component(self, i):
        return ScalarField(self.grid, self.values[i])

    @classmethod
    def from_components(cls, c1, c2, c3):
        if not (c1.grid == c2.grid == c3.grid):
            raise ValueError("vector components must share one grid")
        return cls(c1.grid, np.stack([c1.values, c2.values, c3.values]))
