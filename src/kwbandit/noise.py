"""Reward-perturbation models with a uniform variance bound.

``NoiseModel.draw`` samples one stream with NumPy's ``normal`` and
``uniform``; ``NoiseModel.fill``, the engine's path, writes a block of many
streams' samples in place, equal to ``draw``'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exceptions import raise_first
from .rng import RandomStream

GAUSSIAN = "gaussian"
UNIFORM_BOUNDED = "uniform-bounded"
NONE = "none"

KINDS = (GAUSSIAN, UNIFORM_BOUNDED, NONE)


def sigma2_problems(kind: str, sigma2: float) -> list[str]:
    """The value rules of a variance bound: finite and >= 0, 0 for ``none``
    and > 0 for ``uniform-bounded`` (gaussian noise of variance 0 is none)."""
    if not (sigma2 >= 0 and np.isfinite(sigma2)):
        return [f"sigma2 must be a finite value >= 0, got {sigma2}"]
    if kind == NONE and sigma2 != 0.0:
        return [f"noise kind 'none' requires sigma2 = 0, got {sigma2}"]
    if kind == UNIFORM_BOUNDED and sigma2 == 0.0:
        return ["uniform-bounded noise requires sigma2 > 0"]
    return []


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean reward noise with variance at most ``sigma2``.

    * ``gaussian``: N(0, sigma2), variance exactly sigma2.
    * ``uniform-bounded``: uniform on [-w, w] with w = sqrt(3*sigma2),
      variance exactly sigma2 and bounded support.
    * ``none``: no perturbation (sigma2 must be 0).

    Every draw or fill consumes a fixed number of generator values (1 per
    sample for the stochastic kinds, 0 for ``none``), so replaying a stream
    reproduces a trajectory exactly.
    """

    kind: str
    sigma2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {KINDS}")
        raise_first(sigma2_problems(self.kind, self.sigma2))

    @classmethod
    def gaussian(cls, sigma2: float) -> "NoiseModel":
        return cls(GAUSSIAN, sigma2)

    @classmethod
    def uniform_bounded(cls, sigma2: float) -> "NoiseModel":
        return cls(UNIFORM_BOUNDED, sigma2)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(NONE, 0.0)

    @property
    def support_half_width(self) -> float:
        """Half-width of the support ([-w, w]); inf for gaussian, 0 for none."""
        if self.kind == UNIFORM_BOUNDED:
            return float(np.sqrt(3.0 * self.sigma2))
        return 0.0 if self.kind == NONE else float("inf")

    def sigma_tilde2(self, dimension: int) -> float:
        """Aggregated variance constant 4 * d * sigma2 used by the bounds."""
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        return 4.0 * dimension * self.sigma2

    def draw(self, rng: RandomStream, size=None):
        """Noise sample(s); the stream is advanced identically whether
        values are drawn one at a time or as a block."""
        if self.kind == NONE:
            return 0.0 if size is None else np.zeros(size)
        if self.kind == GAUSSIAN:
            return rng.normal(0.0, np.sqrt(self.sigma2), size)
        w = self.support_half_width
        return rng.uniform(-w, w, size)

    def fill(self, rngs: Iterable[RandomStream], out: np.ndarray) -> None:
        """Overwrite row r of ``out`` with ``draw(rngs[r], out[r].shape)``,
        bit for bit and advancing each stream identically.

        The stochastic kinds iterate ``rngs`` once, in row order, and need
        exactly one stream per row (``ValueError`` otherwise), so a lazy
        ``rng.StreamChunk`` builds each stream just before its row is drawn.
        Each row must be C-contiguous (the block as a whole need not be).
        Each stream makes one call that writes its row's standard draws,
        then one affine pass scales the block: NumPy's ``normal`` computes
        ``loc + scale * z`` and ``uniform`` computes
        ``low + (high - low) * u``.  The ``+ 0.0`` of the gaussian turns
        the -0.0 of ``0 * z`` (sigma2 = 0) into 0.0, as ``draw`` does."""
        if self.kind == NONE:
            out[...] = 0.0
            return
        if self.kind == GAUSSIAN:
            for rng, row in zip(rngs, out, strict=True):
                rng.standard_normal(out=row)
            low, scale = 0.0, np.sqrt(self.sigma2)
        else:
            for rng, row in zip(rngs, out, strict=True):
                rng.random(out=row)
            w = self.support_half_width
            low, scale = -w, w - -w
        np.multiply(out, scale, out=out)
        np.add(out, low, out=out)
