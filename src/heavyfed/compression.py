"""Gradient compressors with energy-retention guarantees and byte accounting.

Every compressor Q satisfies ||Q(x) - x||^2 <= (1 - delta) * ||x||^2 for its
declared delta -- per instance for top-k and the sign quantizer, and in
expectation for random sparsification.  Byte accounting is nominal: 8-byte
values, 4-byte indices, 1-bit signs; the simulator reports these counts, not
serialized wire bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig

COMPRESSOR_KINDS = ("identity", "topk", "randk", "l1")


@dataclass(frozen=True)
class CompressorSpec:
    """Compressor family plus its parameter (k for topk, p for randk)."""

    kind: str = "identity"
    k: int = 1
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in COMPRESSOR_KINDS:
            raise InvalidConfig(f"unknown compressor kind {self.kind!r}")
        if self.kind == "topk" and self.k < 1:
            raise InvalidConfig(f"topk needs k >= 1, got {self.k}")
        if self.kind == "randk" and not 0.0 < self.p <= 1.0:
            raise InvalidConfig(f"randk needs keep probability in (0, 1], got {self.p}")

    def declared_delta(self, d: int) -> float:
        """Guaranteed retained-energy fraction for dimension d."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "topk":
            return self.k / d
        if self.kind == "randk":
            return self.p  # holds in expectation
        return 1.0 / d


@dataclass(frozen=True)
class CompressedMessage:
    """One device upload in wire form.

    ``values``/``indices`` carry sparse payloads (dense for identity);
    ``scale``/``signs`` carry the sign-quantized form.
    """

    kind: str
    dim: int
    values: np.ndarray | None = None
    indices: np.ndarray | None = None
    scale: float = 0.0
    signs: np.ndarray | None = None


def compress(spec: CompressorSpec, x, rng=None) -> CompressedMessage:
    """Encode a gradient vector under the given compressor.

    ``randk`` requires an explicit ``rng`` so that draws are reproducible
    and attributable to one stream.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DimensionMismatch(f"compress expects a non-empty 1-d vector, got shape {x.shape}")
    d = x.shape[0]
    if spec.kind == "identity":
        return CompressedMessage("identity", d, values=x.copy())
    if spec.kind == "topk":
        if spec.k > d:
            raise InvalidConfig(f"topk k={spec.k} exceeds dimension {d}")
        top = np.argsort(-np.abs(x), kind="stable")[: spec.k]  # ties: lowest index
        idx = np.sort(top).astype(np.int64)
        return CompressedMessage("topk", d, values=x[idx].copy(), indices=idx)
    if spec.kind == "randk":
        if rng is None:
            raise InvalidConfig("randk compression requires an explicit rng")
        idx = np.flatnonzero(rng.random(d) < spec.p).astype(np.int64)
        return CompressedMessage("randk", d, values=x[idx].copy(), indices=idx)
    scale = float(np.abs(x).sum() / d)
    signs = np.where(x < 0.0, -1, 1).astype(np.int8)  # sign(0) = +1
    return CompressedMessage("l1", d, scale=scale, signs=signs)


def decompress(msg: CompressedMessage) -> np.ndarray:
    """Reconstruct the dense vector a message encodes."""
    if msg.kind == "identity":
        return msg.values.copy()
    if msg.kind in ("topk", "randk"):
        out = np.zeros(msg.dim)
        out[msg.indices] = msg.values
        return out
    return msg.scale * msg.signs.astype(float)


def effective_delta(spec: CompressorSpec, x, rng=None) -> float:
    """Measured retained-energy fraction 1 - ||Q(x) - x||^2 / ||x||^2 (1.0 at x = 0)."""
    x = np.asarray(x, dtype=float)
    energy = float(x @ x)
    if energy == 0.0:
        return 1.0
    err = decompress(compress(spec, x, rng)) - x
    return 1.0 - float(err @ err) / energy


def nominal_bytes(msg: CompressedMessage) -> int:
    """Message size under the nominal accounting rule.

    Dense: 8 bytes per coordinate.  Sparse: 12 bytes per kept coordinate
    (8-byte value + 4-byte index).  Sign-quantized: one 8-byte scale plus a
    packed sign bitmap.
    """
    if msg.kind == "identity":
        return 8 * msg.dim
    if msg.kind in ("topk", "randk"):
        return 12 * len(msg.values)
    return 8 + math.ceil(msg.dim / 8)
