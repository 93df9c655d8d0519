"""Gradient compressors with energy-retention guarantees and byte accounting.

Every compressor Q satisfies ||Q(x) - x||^2 <= (1 - delta) * ||x||^2 for its
delta -- k/d for top-k and 1/d for the sign quantizer per instance, p for
random sparsification in expectation, 1 for identity.  Byte accounting is
nominal: 8-byte values, 4-byte indices, 1-bit signs; the simulator reports
these counts, not serialized wire bytes.

The codec works on the whole ``(m, d)`` upload array at once: ``encode``
turns it into its wire payload (``compress``) and back (``decompress``), and
``nominal_bytes`` prices the kept counts it reports.  A position the receiver
can derive costs nothing: ``keep_mask`` draws random-k's, which do not depend
on the values, from a stream the server repeats.  The codec draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig

# Each kind and the CompressorSpec fields it reads.
COMPRESSOR_READS = {"identity": (), "topk": ("k",), "randk": ("p",), "l1": ()}
COMPRESSOR_KINDS = tuple(COMPRESSOR_READS)


@dataclass(frozen=True)
class CompressorSpec:
    """Compressor family plus its parameter; ``COMPRESSOR_READS`` says which it reads."""

    kind: str = "identity"
    k: int = 1
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in COMPRESSOR_KINDS:
            raise InvalidConfig(f"unknown compressor kind {self.kind!r}")
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.kind == "randk" and not 0.0 < self.p <= 1.0:
            raise InvalidConfig(f"randk needs keep probability in (0, 1], got {self.p}")


def keep_mask(spec: CompressorSpec, shape, rng):
    """Random-k's boolean keep mask for uploads of ``shape``; ``None`` for
    the other kinds, whose kept positions depend on the values.

    Draws one uniform block of ``shape`` from the explicit ``rng`` and keeps
    each entry with probability p.
    """
    if spec.kind != "randk":
        return None
    if rng is None:
        raise InvalidConfig("randk compression requires an explicit rng")
    return rng.random(shape) < spec.p


def encode(spec: CompressorSpec, U, mask=None):
    """Encode the ``(m, d)`` uploads, one row per device.

    Returns the decoded wire array the server sees and the number of values
    each row kept.  Identity returns ``U`` itself.  ``randk`` codes with
    ``mask``, a ``keep_mask`` of ``U``'s shape: the codec draws nothing, so
    every draw comes from the stream its caller drew the mask from.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.size == 0:
        raise DimensionMismatch(f"encode expects a non-empty (m, d) array, got shape {U.shape}")
    m, d = U.shape
    if spec.kind == "identity":
        return U, np.full(m, d)
    payload = compress(spec, U, mask)
    # sparse payloads keep their mask's positions; the sign quantizer keeps every sign
    kept = np.full(m, d) if spec.kind == "l1" else np.count_nonzero(payload[0], axis=1)
    return decompress(spec, payload), kept


def compress(spec: CompressorSpec, U: np.ndarray, mask=None):
    """Wire payload of a non-empty ``(m, d)`` float array (``encode``'s first half).

    Sparse kinds: ``(mask, values)``, the kept positions and their values in
    row-major order.  ``l1``: ``(scale, signs)``, one scale per row and int8
    signs with sign(0) = +1.  Random-k needs ``mask``, its keep mask.
    """
    d = U.shape[1]
    if spec.kind == "topk":
        if spec.k > d:
            raise InvalidConfig(f"topk k={spec.k} exceeds dimension {d}")
        top = np.argsort(-np.abs(U), axis=1, kind="stable")[:, : spec.k]  # ties: lowest index
        mask = np.zeros(U.shape, dtype=bool)
        np.put_along_axis(mask, top, True, axis=1)
        return mask, U[mask]
    if spec.kind == "randk":
        if mask is None:
            raise InvalidConfig("randk compression requires a keep mask drawn by keep_mask")
        if np.shape(mask) != U.shape:
            raise DimensionMismatch(f"randk mask of shape {np.shape(mask)} for uploads of shape {U.shape}")
        return mask, U[mask]
    scale = np.abs(U).sum(axis=1) / d
    signs = np.where(U < 0.0, -1, 1).astype(np.int8)
    return scale, signs


def decompress(spec: CompressorSpec, payload) -> np.ndarray:
    """The dense ``(m, d)`` array a ``compress`` payload encodes."""
    if spec.kind == "l1":
        scale, signs = payload
        return scale[:, None] * signs
    mask, values = payload
    out = np.zeros(mask.shape)
    out[mask] = values
    return out


def nominal_bytes(spec: CompressorSpec, kept) -> int:
    """Upload size under the nominal accounting rule, from ``encode``'s kept counts.

    Dense and random-k (positions from the shared keep mask): 8 bytes per sent
    value, whatever its value.  Top-k: 12 (8-byte value + 4-byte index).
    Sign-quantized: per row one 8-byte scale plus a packed sign bitmap.
    """
    kept = np.asarray(kept)
    if spec.kind == "l1":
        return 8 * kept.size + int(((kept + 7) // 8).sum())
    return (12 if spec.kind == "topk" else 8) * int(kept.sum())
