"""Trigonometric basis on [0,1]^d and the Monte-Carlo bandwidth regularizer.

A bandlimit-B function is a combination of cos(2 pi v.x) and
sin(2 pi v.x) over integer frequencies v in [-B, B]^d. Since v and -v
index the same mode, coefficients are stored only on the canonical half
of the lattice (first nonzero coordinate positive, plus zero). The
regularizer estimates a function's energy outside that span by the
residual of projecting its values at m fixed sample points onto the
basis columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "canonical_frequencies",
    "HarmonicFunction",
    "sample_harmonic",
    "build_basis_matrix",
    "BandwidthRegularizer",
    "regularizer_value",
]

FreqVec = tuple[int, ...]


def canonical_frequencies(B: int, d: int) -> list[FreqVec]:
    """The canonical half of the lattice [-B, B]^d, in lexicographic order.

    A vector whose first nonzero coordinate is positive is exactly a
    vector lexicographically above zero; those are kept, and zero itself,
    which comes first. Exactly one of {v, -v} is kept for every nonzero v.
    """
    if B < 0:
        raise ValueError(f"bandlimit: must be >= 0, got {B}")
    if d < 1:
        raise ValueError(f"d: dimension must be >= 1, got {d}")
    zero = (0,) * d
    return [v for v in itertools.product(range(-B, B + 1), repeat=d) if v >= zero]


def _basis_blocks(B: int, d: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine block (m, k) and the sine block (m, k - 1) of the basis at m points.

    Cosines run over the canonical frequencies, sines over the same
    frequencies without zero.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must have shape (m, {d}), got {points.shape}")
    freqs = np.array(canonical_frequencies(B, d), dtype=float)
    cos = np.cos(2.0 * math.pi * (points @ freqs.T))
    sin = np.sin(2.0 * math.pi * (points @ freqs[1:].T))
    return cos, sin


@dataclass
class HarmonicFunction:
    """Bandlimited target: one coefficient per column of build_basis_matrix.

    ``coeffs`` holds the cosine coefficients over the canonical
    frequencies, then the sine coefficients over the same frequencies
    without zero: (2B+1)^d values. Treated as immutable.
    """

    B: int
    d: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        size = 2 * len(canonical_frequencies(self.B, self.d)) - 1
        if self.coeffs.shape != (size,):
            raise ValueError(f"need {size} coefficients for B={self.B}, d={self.d}, got {self.coeffs.shape}")

    def norm_squared(self) -> float:
        """Exact squared L2 norm over [0,1]^d.

        The constant mode has unit norm while every other basis function
        has norm 1/sqrt(2), hence the half weights.
        """
        k = (len(self.coeffs) + 1) // 2
        c = self.coeffs.tolist()
        return c[0] * c[0] + 0.5 * (sum(a * a for a in c[1:k]) + sum(b * b for b in c[k:]))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Values at the m points x, shape (m, d)."""
        cos, sin = _basis_blocks(self.B, self.d, x)
        k = cos.shape[1]
        # One product per block: a single product over build_basis_matrix
        # rounds differently, and pinned training results rest on these bits.
        return cos @ self.coeffs[:k] + sin @ self.coeffs[k:]


def sample_harmonic(B: int, d: int, rng: np.random.Generator) -> HarmonicFunction:
    """Random unit-norm target: i.i.d. standard normal coefficients, rescaled.

    The rescaling makes the exact function norm 1, so errors are
    comparable across draws.
    """
    h = HarmonicFunction(B=B, d=d, coeffs=rng.standard_normal((2 * B + 1) ** d))
    h.coeffs *= 1.0 / math.sqrt(h.norm_squared())
    return h


def build_basis_matrix(B: int, d: int, points: np.ndarray) -> np.ndarray:
    """Evaluate the full bandlimit-B basis at m points.

    Returns an (m, (2B+1)^d) matrix whose columns are the cosines over
    the canonical half-lattice followed by the sines over the canonical
    half-lattice minus zero, in lattice order.
    """
    cos, sin = _basis_blocks(B, d, points)
    if len(cos) < 1:
        raise ValueError("need at least one sample point")
    return np.concatenate((cos, sin), axis=1)


@dataclass
class BandwidthRegularizer:
    """Projection-residual penalty (1/m) |y - V V^+ y|^2 on m fixed points.

    The residual projector P = I - V V^+ is never materialized; its
    action is cached as an orthonormal basis Q of the column span
    (P y = y - Q Q' y), computed once with a singular-value cutoff of
    max(m, k) * eps * s_max.
    """

    B: int
    d: int
    points: np.ndarray
    span: np.ndarray = field(init=False, repr=False)
    # span cast to the dtype of the last residual call, kept across calls.
    _working_span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        # Checked before the m x k basis is built, which can outgrow memory.
        m, k = len(self.points), (2 * self.B + 1) ** self.d
        if m <= k:
            # The k columns can then span all of R^m, and every y has P y ~ 0.
            raise ValueError(f"reg_points: need more points than basis columns: {k} columns, got {m} points")
        basis = build_basis_matrix(self.B, self.d, self.points)
        u, sigma, _ = np.linalg.svd(basis, full_matrices=False)
        cutoff = max(m, k) * np.finfo(float).eps * sigma[0]
        self.span = np.ascontiguousarray(u[:, sigma > cutoff])
        self._working_span = self.span

    @property
    def m(self) -> int:
        return len(self.points)

    def residual(self, y: np.ndarray) -> np.ndarray:
        """P y, computed through the low-rank complement in O(m k)."""
        y = np.asarray(y)
        if y.shape != (self.m,):
            raise ValueError(f"value vector must have shape ({self.m},), got {y.shape}")
        if self._working_span.dtype != y.dtype:
            self._working_span = self.span.astype(y.dtype)
        span = self._working_span
        return y - span @ (y @ span)


def regularizer_value(reg: BandwidthRegularizer, y: np.ndarray) -> float:
    """(1/m) |P y|^2, the minimum of (1/m) |V z - y|^2 over z."""
    r = reg.residual(y)
    return float(r @ r) / reg.m
