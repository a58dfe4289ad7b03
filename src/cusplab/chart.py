"""(r, theta) chart grid of a truncated cusp and its quadrature weights
(surface case)."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class ChartGrid:
    """Uniform (r, theta) grid on [r_min, r_max] x (R/Z) for d = 1.

    r nodes include both ends (Dirichlet boundary); theta nodes are periodic
    with the endpoint excluded.
    """

    r_min: float
    r_max: float
    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.r_max <= self.r_min:
            raise InvalidInputError("empty radial range")
        if self.n_r < 8 or self.n_theta < 4:
            raise InvalidInputError("grid too coarse")

    @property
    def dr(self):
        return (self.r_max - self.r_min) / (self.n_r - 1)

    @property
    def dtheta(self):
        return 1.0 / self.n_theta

    @property
    def r(self):
        return np.linspace(self.r_min, self.r_max, self.n_r)

    @property
    def theta(self):
        return np.arange(self.n_theta) * self.dtheta

    @property
    def mesh(self):
        return np.meshgrid(self.r, self.theta, indexing="ij")

    @property
    def exp_r(self):
        return np.exp(self.r)

    def theta_frequencies(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n_theta, d=self.dtheta)

    def radial_weights(self):
        """Trapezoidal weights in r times the area density e^{-r}."""
        wr = np.full(self.n_r, self.dr)
        wr[0] *= 0.5
        wr[-1] *= 0.5
        return wr * np.exp(-self.r)

    def quadrature_weights(self):
        """Weights for the hyperbolic area element e^{-r} dr dtheta,
        trapezoidal in r and exact (uniform) in theta."""
        return np.outer(self.radial_weights(), np.full(self.n_theta, self.dtheta))

    def refine(self, factor=2):
        return ChartGrid(
            self.r_min,
            self.r_max,
            (self.n_r - 1) * factor + 1,
            self.n_theta * factor,
        )
