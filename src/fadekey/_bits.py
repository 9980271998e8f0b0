"""Packed GF(2) bit vectors (quantized bits, syndromes, keys, MAC tags) and the
Gray codeword map the quantizers share."""
from __future__ import annotations

import numpy as np


def gray_codewords(cells, width: int) -> np.ndarray:
    """Reflected-binary codewords of integer cell indices, most significant bit first.

    Returns uint8 0/1 values with the shape of ``cells`` plus a trailing
    axis of length ``width``.
    """
    g = np.asarray(cells).astype(np.int64)
    g ^= g >> 1
    return ((g[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


class BitString:
    """An immutable bit vector stored packed, eight bits to a byte.

    Supports the GF(2) operations the key-agreement pipeline needs (XOR,
    Hamming weight, slicing, concatenation) plus byte serialization for
    MAC inputs.  Equality means equal length and equal bits.
    """

    __slots__ = ("_packed", "_n")

    def __init__(self, bits=()):
        arr = np.asarray(bits)
        if arr.dtype == object:
            arr = arr.astype(np.int64)
        arr = (arr.astype(np.uint8) & 1).ravel()
        self._packed = np.packbits(arr)
        self._n = int(arr.size)

    @classmethod
    def _wrap(cls, packed: np.ndarray, n: int) -> "BitString":
        out = cls.__new__(cls)
        out._packed = packed
        out._n = n
        return out

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls._wrap(np.zeros((n + 7) // 8, dtype=np.uint8), int(n))

    @classmethod
    def concat(cls, parts) -> "BitString":
        arrs = [p.to_array() if isinstance(p, BitString) else np.asarray(p, np.uint8) for p in parts]
        if not arrs:
            return cls.zeros(0)
        return cls(np.concatenate(arrs))

    def to_array(self) -> np.ndarray:
        """Unpacked uint8 array of 0/1 values, length ``len(self)``."""
        if self._n == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.unpackbits(self._packed, count=self._n)

    def to_bytes(self) -> bytes:
        """Packed bytes, final byte zero-padded."""
        return self._packed.tobytes()

    @property
    def weight(self) -> int:
        return int(self.to_array().sum())

    def agreement(self, other: "BitString") -> float:
        """Fraction of positions where the two equal-length strings match."""
        if len(other) != self._n:
            raise ValueError("agreement requires equal lengths")
        if self._n == 0:
            return 1.0
        return float(np.mean(self.to_array() == other.to_array()))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitString(self.to_array()[idx])
        return int(self.to_array()[idx])

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if len(other) != self._n:
            raise ValueError("XOR requires equal lengths")
        # packbits pads with zeros, so padding bits XOR to zero as well
        return BitString._wrap(self._packed ^ other._packed, self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._n == other._n and bool(np.array_equal(self._packed, other._packed))

    def __repr__(self) -> str:
        head = "".join(str(b) for b in self.to_array()[:16])
        tail = "..." if self._n > 16 else ""
        return f"BitString({self._n} bits: {head}{tail})"
