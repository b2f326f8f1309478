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
    "frequency_lattice",
    "nneg",
    "HarmonicFunction",
    "eval_harmonic",
    "sample_harmonic",
    "build_basis_matrix",
    "BandwidthRegularizer",
    "regularizer_value",
    "regularizer_gradient",
]

FreqVec = tuple[int, ...]


def frequency_lattice(B: int, d: int) -> list[FreqVec]:
    """All integer vectors in [-B, B]^d, in lexicographic order."""
    if B < 0 or d < 1:
        raise ValueError(f"need bandlimit >= 0 and dimension >= 1, got B={B}, d={d}")
    return list(itertools.product(range(-B, B + 1), repeat=d))


def nneg(vs) -> list[FreqVec]:
    """Keep the canonical half of a frequency list, preserving order.

    A vector survives when its first nonzero coordinate is positive;
    the all-zero vector survives too. Exactly one of {v, -v} is kept
    for every nonzero v.
    """

    def include(v) -> bool:
        for coord in v:
            if coord != 0:
                return coord > 0
        return True

    return [tuple(int(c) for c in v) for v in vs if include(v)]


def _canonical_frequencies(B: int, d: int) -> list[FreqVec]:
    return nneg(frequency_lattice(B, d))


@dataclass
class HarmonicFunction:
    """Bandlimited target: cos/sin coefficients on the canonical half-lattice.

    Treated as immutable; evaluation arrays are precomputed once.
    """

    B: int
    d: int
    cos_coeffs: dict[FreqVec, float]
    sin_coeffs: dict[FreqVec, float]
    _cos_freqs: np.ndarray = field(init=False, repr=False)
    _sin_freqs: np.ndarray = field(init=False, repr=False)
    _cos_amps: np.ndarray = field(init=False, repr=False)
    _sin_amps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        canon = _canonical_frequencies(self.B, self.d)
        if set(self.cos_coeffs) != set(canon):
            raise ValueError("cosine coefficients must cover the canonical half-lattice exactly")
        zero = (0,) * self.d
        if set(self.sin_coeffs) != set(canon) - {zero}:
            raise ValueError("sine coefficients must cover the canonical half-lattice minus zero")
        sin_keys = [v for v in canon if v != zero]
        self._cos_freqs = np.array(canon, dtype=float).reshape(len(canon), self.d)
        self._sin_freqs = np.array(sin_keys, dtype=float).reshape(len(sin_keys), self.d)
        self._cos_amps = np.array([self.cos_coeffs[v] for v in canon])
        self._sin_amps = np.array([self.sin_coeffs[v] for v in sin_keys])

    def norm_squared(self) -> float:
        """Exact squared L2 norm over [0,1]^d.

        The constant mode has unit norm while every other basis function
        has norm 1/sqrt(2), hence the half weights.
        """
        zero = (0,) * self.d
        a0 = self.cos_coeffs[zero]
        rest = sum(a * a for v, a in self.cos_coeffs.items() if v != zero)
        rest += sum(b * b for b in self.sin_coeffs.values())
        return a0 * a0 + 0.5 * rest

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return eval_harmonic(self, x)


def eval_harmonic(h: HarmonicFunction, x) -> float | np.ndarray:
    """Evaluate h at one point (shape (d,)) or a batch (shape (m, d))."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != h.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, target has {h.d}")
    phase_cos = 2.0 * math.pi * (pts @ h._cos_freqs.T)
    vals = np.cos(phase_cos) @ h._cos_amps
    if len(h._sin_amps):
        phase_sin = 2.0 * math.pi * (pts @ h._sin_freqs.T)
        vals = vals + np.sin(phase_sin) @ h._sin_amps
    return float(vals[0]) if single else vals


def sample_harmonic(B: int, d: int, rng: np.random.Generator) -> HarmonicFunction:
    """Random unit-norm target: i.i.d. standard normal coefficients, rescaled.

    The rescaling makes the exact function norm 1, so errors are
    comparable across draws.
    """
    canon = _canonical_frequencies(B, d)
    zero = (0,) * d
    cos_coeffs = {v: float(rng.standard_normal()) for v in canon}
    sin_coeffs = {v: float(rng.standard_normal()) for v in canon if v != zero}
    raw = HarmonicFunction(B=B, d=d, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)
    scale = 1.0 / math.sqrt(raw.norm_squared())
    return HarmonicFunction(
        B=B,
        d=d,
        cos_coeffs={v: a * scale for v, a in cos_coeffs.items()},
        sin_coeffs={v: b * scale for v, b in sin_coeffs.items()},
    )


def build_basis_matrix(B: int, d: int, points: np.ndarray) -> np.ndarray:
    """Evaluate the full bandlimit-B basis at m points.

    Returns an (m, (2B+1)^d) matrix whose columns are the cosines over
    the canonical half-lattice followed by the sines over the canonical
    half-lattice minus zero, in lattice order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must have shape (m, {d}), got {points.shape}")
    if len(points) < 1:
        raise ValueError("need at least one sample point")
    canon = _canonical_frequencies(B, d)
    zero = (0,) * d
    sin_keys = [v for v in canon if v != zero]
    cos_phase = 2.0 * math.pi * (points @ np.array(canon, dtype=float).reshape(len(canon), d).T)
    cols = [np.cos(cos_phase)]
    if sin_keys:
        sin_phase = 2.0 * math.pi * (points @ np.array(sin_keys, dtype=float).T)
        cols.append(np.sin(sin_phase))
    return np.concatenate(cols, axis=1)


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
    lam: float
    span: np.ndarray = field(init=False, repr=False)
    # span cast to the dtype of the last residual call, kept across calls.
    _working_span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"regularization weight must be >= 0, got {self.lam}")
        self.points = np.asarray(self.points, dtype=float)
        basis = build_basis_matrix(self.B, self.d, self.points)
        u, sigma, _ = np.linalg.svd(basis, full_matrices=False)
        cutoff = max(basis.shape) * np.finfo(float).eps * (sigma[0] if len(sigma) else 0.0)
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

    def residual_matrix(self) -> np.ndarray:
        """Dense P = I - V V^+ for small-m diagnostics and tests."""
        return np.eye(self.m) - self.span @ self.span.T


def regularizer_value(reg: BandwidthRegularizer, y: np.ndarray) -> float:
    """(1/m) |P y|^2, the minimum of (1/m) |V z - y|^2 over z."""
    r = reg.residual(y)
    return float(r @ r) / reg.m


def regularizer_gradient(reg: BandwidthRegularizer, y: np.ndarray) -> np.ndarray:
    """Exact gradient (2/m) P y of regularizer_value with respect to y."""
    return (2.0 / reg.m) * reg.residual(y)
