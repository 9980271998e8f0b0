"""Distribution-free key generation via empirical-CDF data conversion.

Both parties map their raw samples into (approximately) uniform values on
[0,1) using only ranks — no knowledge of the source distribution — then
quantize, Gray-code, and reconcile with a syndrome code.  Bob's decoder is
driven by a heuristic per-bit LLR computed from his converted value and
Alice's published quantization errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bits import BitString, gray_codewords
from .channel import gen_iid_gaussian_source
from .reconcile import LdpcCode, SecretKeyOutcome, block_traces, decode_syndrome, privacy_amplify, syndrome

__all__ = [
    "UniformSamples",
    "UniversalConfig",
    "rank_convert",
    "bin_counts",
    "fixed_point_convert",
    "uniform_quantize",
    "heuristic_llr",
    "rescale_llr",
    "run_universal_system",
]


@dataclass
class UniformSamples:
    values: np.ndarray  # converted samples, each in [0, 1)
    resolution_bits: int  # fixed-point resolution A; 0 means exact ranks k/n

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.size and (self.values.min() < 0.0 or self.values.max() >= 1.0):
            raise ValueError("converted values must lie in [0, 1)")
        if self.resolution_bits < 0:
            raise ValueError("resolution_bits must be nonnegative")

    def __len__(self):
        return self.values.size


def rank_convert(xs) -> UniformSamples:
    """Empirical-CDF conversion U_i = K_n(X_i)/n.

    K_n counts samples strictly smaller than X_i plus equal samples with
    smaller index, so the output is always an exact permutation of
    {0, 1/n, ..., (n-1)/n}; ties are broken by original position.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("input must be nonempty")
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(xs.size, dtype=np.int64)
    ranks[order] = np.arange(xs.size)
    return UniformSamples(ranks / xs.size, resolution_bits=0)


def bin_counts(n: int, M: int) -> np.ndarray:
    """Rate-matched occupancy counts for distributing n items over M levels.

    C(j) = floor(j*n/M) - sum_{k<j} C(k); the counts sum to n and differ by
    at most one.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    j = np.arange(1, M + 1, dtype=np.int64)
    cum = (j * n) // M
    return np.diff(cum, prepend=0)


def fixed_point_convert(xs, A: int) -> UniformSamples:
    """Convert samples to A-bit fixed-point uniform values k/2^A.

    Equivalent to the incremental-credit procedure: sort ascending (stable),
    walk the 2^A levels adding n/2^A credit each and emitting the current
    level whenever a whole unit accumulates, then un-sort.  The occupancy of
    level k is exactly bin_counts(n, 2^A)[k].
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    if n < 1:
        raise ValueError("input must be nonempty")
    if A < 1:
        raise ValueError("A must be >= 1")
    levels = 1 << A
    counts = bin_counts(n, levels)
    sorted_vals = np.repeat(np.arange(levels) / levels, counts)
    order = np.argsort(xs, kind="stable")
    out = np.empty(n)
    out[order] = sorted_vals
    return UniformSamples(out, resolution_bits=A)


def uniform_quantize(u, v: int):
    """Quantize u in [0,1) to a v-bit Gray cell with its quantization error.

    Returns (bits, e) with bits the Gray code of cell = floor(u*2^v),
    most significant bit first, and e = u - cell/2^v in [0, 2^-v).  u may
    be a scalar or an array: bits has u's shape plus a trailing axis of
    length v, e has u's shape.  The arithmetic is type-generic so exact
    (rational) inputs, scalar or in object arrays, stay exact.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    u = np.asarray(u)
    if not np.all((0 <= u) & (u < 1)):
        raise ValueError("u must lie in [0, 1)")
    cell = (u * (1 << v)) // 1
    unit = (u - u) + 1  # one in the arithmetic type of u
    e = u - cell * (unit / (1 << v))
    return gray_codewords(cell, v), e


def heuristic_llr(V, E, v: int):
    """Heuristic per-bit LLR for Gray-coded uniform quantization.

    V is the decoder's own converted value, E the encoder's published
    quantization error; bit i's LLR is L_i = 2E - 2V + 1 - 2^-(v-i+1),
    after which the interval folds by the reflected-binary recursion:
    lower half V <- 2V, E <- 2E; upper half V <- 2-2V, E <- 2^-(v-i) - 2E.
    Positive LLR favours bit 0.  V and E broadcast against each other; the
    result has their shape plus a trailing axis of length v.  Arithmetic is
    type-generic, so Fraction inputs give exact rational outputs.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    V, E = np.asarray(V), np.asarray(E)
    unit = (V - V) + (E - E) + 1  # one in the common arithmetic type
    if not np.all((0 <= V) & (2 * V < 2 * unit)):
        raise ValueError("V must lie in [0, 1)")
    if not np.all((0 <= E) & ((1 << v) * E < unit)):
        raise ValueError("E must lie in [0, 2^-v)")
    out = []
    for i in range(1, v + 1):
        out.append(2 * E - 2 * V + unit - unit / 2 ** (v - i + 1))
        lower = 2 * V < unit
        V, E = (np.where(lower, 2 * V, 2 * unit - 2 * V),
                np.where(lower, 2 * E, unit / 2 ** (v - i) - 2 * E))
    return np.stack(out, axis=-1)


def rescale_llr(llr, scale):
    """Multiply raw heuristic LLRs into the decoder's operational range."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return np.asarray(llr) * scale


@dataclass
class UniversalConfig:
    v: int  # quantizer bits per sample
    n_samples: int  # samples per block; n_samples * v must equal code.n
    code: LdpcCode
    A: int | None = None  # fixed-point resolution; None selects v + 2
    scale: float = 8.0  # LLR rescale constant
    snr_db: float = 5.0  # Gaussian-source SNR when no custom trace is given
    seed: int = 0
    xs: np.ndarray | None = None  # custom trace, Alice side
    ys: np.ndarray | None = None  # custom trace, Bob side

    def __post_init__(self):
        if self.A is not None and self.A < self.v:
            raise ValueError("A must be >= v")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def run_universal_system(config: UniversalConfig) -> SecretKeyOutcome:
    """End-to-end distribution-free pipeline for one block.

    Alice fixed-point-converts her samples, quantizes to v Gray bits each,
    and publishes the block syndrome together with all quantization errors.
    Bob converts his own samples, forms heuristic LLRs from (V, E), and
    decodes Alice's bit block from the syndrome.  Net secret bits on success
    are the block length minus the syndrome length.
    """
    v, n = config.v, config.n_samples
    A = config.A if config.A is not None else v + 2
    xs, ys = block_traces(config.code, v, n, config.xs, config.ys)
    if xs is None:
        noise = 10.0 ** (-config.snr_db / 10.0)
        xs, ys = gen_iid_gaussian_source(1.0, noise, noise, n, seed=[config.seed, 0])

    u_alice = fixed_point_convert(xs, A)
    u_bob = fixed_point_convert(ys, A)

    bits, errors = uniform_quantize(u_alice.values, v)
    x_b = BitString(bits)
    syn = syndrome(config.code, x_b)
    llr = rescale_llr(heuristic_llr(u_bob.values, errors, v), config.scale).reshape(-1)
    result = decode_syndrome(config.code, syn, llr)

    agreement = x_b.agreement(result.bits)
    revealed = len(syn)
    if result.success:
        net = n * v - revealed
        key = privacy_amplify(x_b, net, seed=[config.seed, 7]) if net else BitString.zeros(0)
    else:
        net = 0
        key = BitString.zeros(0)
    return SecretKeyOutcome(
        key_bits=key,
        revealed_bits=revealed,
        decode_success=result.success,
        iterations=result.iterations,
        bit_agreement=agreement,
        net_bits=net,
        net_rate_bits_per_sample=net / n,
    )
