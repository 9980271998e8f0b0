"""Gaussian-source key generation with equiprobable quantization.

Three variants share one pipeline: Alice quantizes her jointly Gaussian
samples into Gray-coded bits and publishes a syndrome; Bob decodes from his
correlated samples.  The basic variant uses plain per-bit LLRs, the
over-quantized variant additionally publishes the least-significant
quantizer bits (independent of the kept bits under equiprobable cells) to
sharpen Bob's LLRs, and the soft-error variant publishes CDF-domain
quantization errors instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr, ndtri

from ._bits import BitString
from .channel import gen_iid_gaussian_source
from .reconcile import (
    LLR_CLAMP,
    LdpcCode,
    SecretKeyOutcome,
    block_traces,
    decode_syndrome,
    privacy_amplify,
    syndrome,
)

__all__ = [
    "QuantizerSpec",
    "GaussianConfig",
    "equiprobable_boundaries",
    "make_quantizer",
    "gray_encode",
    "gray_component",
    "quantize_and_code",
    "llr_overquantized",
    "cdf_transform_error",
    "llr_soft_error",
    "run_gaussian_system",
]

_PPF_EPS = 1e-12  # probability clamp for inverse-CDF arguments


@dataclass
class QuantizerSpec:
    v: int  # regularly quantized (kept) bits per sample
    m_over: int  # over-quantized (published) bits per sample
    boundaries: np.ndarray  # 2^(v+m_over)+1 cell edges, -inf/+inf sentinels

    def __post_init__(self):
        self.boundaries = np.asarray(self.boundaries, dtype=np.float64)
        if self.v < 1 or self.m_over < 0:
            raise ValueError("v must be >= 1 and m_over >= 0")
        k = self.v + self.m_over
        if self.boundaries.shape != (2**k + 1,):
            raise ValueError(f"need {2**k + 1} boundaries for {k} bits")
        if not (np.isneginf(self.boundaries[0]) and np.isposinf(self.boundaries[-1])):
            raise ValueError("first/last boundaries must be -inf/+inf sentinels")
        interior = self.boundaries[1:-1]
        if interior.size and np.any(np.diff(interior) <= 0):
            raise ValueError("interior boundaries must be strictly increasing")

    @property
    def total_bits(self) -> int:
        return self.v + self.m_over

    @property
    def n_cells(self) -> int:
        return 2**self.total_bits


def equiprobable_boundaries(variance, total_bits: int) -> np.ndarray:
    """Cell edges making every cell equally likely under N(0, variance).

    q_j = sqrt(variance) * Phi^-1(j / 2^total_bits) for j = 0 .. 2^total_bits,
    including the infinite sentinels at both ends; symmetric about zero.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    if total_bits < 1:
        raise ValueError("total_bits must be >= 1")
    grid = np.arange(2**total_bits + 1) / 2.0**total_bits
    return np.sqrt(variance) * ndtri(grid)


def make_quantizer(variance, v: int, m_over: int = 0) -> QuantizerSpec:
    """Equiprobable quantizer for N(0, variance) with v kept + m_over extra bits."""
    return QuantizerSpec(v, m_over, equiprobable_boundaries(variance, v + m_over))


def gray_encode(cell_index: int, width: int) -> BitString:
    """Reflected-binary codeword of the cell index, most significant bit first."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= cell_index < 2**width:
        raise ValueError("cell_index out of range")
    g = cell_index ^ (cell_index >> 1)
    return BitString([(g >> (width - 1 - t)) & 1 for t in range(width)])


def gray_component(cell_index: int, i: int, width: int) -> int:
    """The i-th bit (1 = most significant) of the width-bit Gray codeword."""
    if not 1 <= i <= width:
        raise ValueError("bit position out of range")
    if not 0 <= cell_index < 2**width:
        raise ValueError("cell_index out of range")
    g = cell_index ^ (cell_index >> 1)
    return (g >> (width - i)) & 1


def _cells_of(xs: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return np.searchsorted(spec.boundaries[1:-1], xs, side="right")


def _gray_bit_table(total_bits: int) -> np.ndarray:
    """(2^k, k) uint8 matrix of Gray codewords, MSB in column 0."""
    j = np.arange(2**total_bits, dtype=np.int64)
    g = j ^ (j >> 1)
    shifts = np.arange(total_bits - 1, -1, -1)
    return ((g[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def quantize_and_code(xs, spec: QuantizerSpec):
    """Gray-coded quantization split into kept and published bit planes.

    Returns (regular_bits, over_bits): per sample the first v Gray bits go
    to regular_bits and the last m_over to over_bits, in sample order.
    """
    xs = np.asarray(xs, dtype=np.float64)
    cells = _cells_of(xs, spec)
    table = _gray_bit_table(spec.total_bits)
    bits = table[cells]  # (n, v + m_over)
    regular = BitString(bits[:, : spec.v].reshape(-1))
    over = BitString(bits[:, spec.v :].reshape(-1))
    return regular, over


def _log_cell_probs(ys: np.ndarray, spec: QuantizerSpec, P, N) -> np.ndarray:
    """(n, n_cells) matrix of ln Pr(cell | y) under X|Y=y.

    X | Y=y is N((P/(P+N)) y, (2PN + N^2)/(P+N)); cell masses are tail
    differences evaluated in log space so deep-tail cells stay usable.
    """
    mu = (P / (P + N)) * ys
    sigma = np.sqrt((2.0 * P * N + N * N) / (P + N))
    a = (spec.boundaries[None, :] - mu[:, None]) / sigma
    ls = log_ndtr(-a)  # ln Q(a), decreasing in a
    diff = ls[:, 1:] - ls[:, :-1]  # <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = ls[:, :-1] + np.log(-np.expm1(diff))
    # cells whose upper tails coincide in floating point get zero mass
    return np.where(np.isnan(logp), -np.inf, logp)


def _llr_from_logp(logp: np.ndarray, spec: QuantizerSpec, over_patterns: np.ndarray) -> np.ndarray:
    """Per-bit LLRs for a batch given log cell masses and announced over-bits.

    over_patterns holds each sample's published bits packed as an integer
    (0 when m_over == 0).  Returns an (n, v) array clamped to +/-LLR_CLAMP.
    """
    table = _gray_bit_table(spec.total_bits)
    if spec.m_over:
        weights = 1 << np.arange(spec.m_over - 1, -1, -1)
        cell_pattern = table[:, spec.v :].astype(np.int64) @ weights
    else:
        cell_pattern = np.zeros(spec.n_cells, dtype=np.int64)
    n = logp.shape[0]
    out = np.empty((n, spec.v))
    for pat in np.unique(over_patterns):
        rows = np.flatnonzero(over_patterns == pat)
        consistent = cell_pattern == pat
        for i in range(spec.v):
            zero_cells = consistent & (table[:, i] == 0)
            one_cells = consistent & (table[:, i] == 1)
            lse0 = logsumexp(logp[np.ix_(rows, np.flatnonzero(zero_cells))], axis=1)
            lse1 = logsumexp(logp[np.ix_(rows, np.flatnonzero(one_cells))], axis=1)
            out[rows, i] = lse0 - lse1
    return np.clip(np.nan_to_num(out, nan=0.0, posinf=LLR_CLAMP, neginf=-LLR_CLAMP), -LLR_CLAMP, LLR_CLAMP)


def llr_overquantized(y, over_bits_for_sample, spec: QuantizerSpec, P, N) -> np.ndarray:
    """Per-bit LLRs of one sample's kept bits given its published bits.

    Sign convention: positive means bit 0 is more likely.  Exact cell-mass
    ratios restricted to cells consistent with the announced over-bits,
    clamped to +/-30.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    over = np.asarray(
        over_bits_for_sample.to_array() if hasattr(over_bits_for_sample, "to_array") else over_bits_for_sample,
        dtype=np.int64,
    )
    if over.size != spec.m_over:
        raise ValueError("announced bits must have length m_over")
    pattern = 0
    for b in over:
        pattern = (pattern << 1) | int(b)
    logp = _log_cell_probs(np.atleast_1d(np.float64(y)), spec, P, N)
    return _llr_from_logp(logp, spec, np.array([pattern]))[0]


def cdf_transform_error(x, v: int, variance) -> np.ndarray | float:
    """CDF-domain quantization error E = Phi(x) - Phi(rep(x)).

    rep(x) is the cell's CDF-midpoint representative, so the result lies in
    [-2^-(v+1), 2^-(v+1)] and is uniform under the source law.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    if v < 1:
        raise ValueError("v must be >= 1")
    xs = np.asarray(x, dtype=np.float64)
    interior = equiprobable_boundaries(variance, v)[1:-1]
    cells = np.searchsorted(interior, xs, side="right")
    e = ndtr(xs / np.sqrt(variance)) - (cells + 0.5) / 2.0**v
    return float(e) if np.isscalar(x) else e


def llr_soft_error(y, e, v: int, P, N) -> np.ndarray:
    """Per-bit LLRs from the announced CDF-domain error (unit-variance form).

    For each candidate cell j the sample would map to the point
    Phi^-1(e + (j - 1/2)/2^v); the LLR of bit i sums h(e,j,y) over cells
    with that bit equal to 1 minus those with it equal to 0, where
    h(e,j,y) = ((P+N)/(2(2PN+N^2))) (Phi^-1(e + (j-1/2)/2^v) - (P/(P+N))y)^2.
    Calibrated for P + N = 1; callers normalize first.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    if abs(e) > 2.0 ** -(v + 1) + 1e-15:
        raise ValueError("|e| must not exceed 2^-(v+1)")
    kappa = (P + N) / (2.0 * (2.0 * P * N + N * N))
    mu = (P / (P + N)) * y
    j = np.arange(1, 2**v + 1)
    args = np.clip(e + (j - 0.5) / 2.0**v, _PPF_EPS, 1.0 - _PPF_EPS)
    h = kappa * (ndtri(args) - mu) ** 2
    table = _gray_bit_table(v)
    signs = np.where(table == 0, -1.0, 1.0)  # cell j has row j-1
    return np.clip(signs.T @ h, -LLR_CLAMP, LLR_CLAMP)


@dataclass
class GaussianConfig:
    code: LdpcCode  # rate-1/2 syndrome code over the concatenated bits
    v: int  # kept bits per sample
    n_samples: int  # samples per block; n_samples * v == code.n
    variant: str = "basic"  # "basic" | "overquant" | "soft_error"
    m_over: int = 0  # published extra bits per sample (overquant)
    P: float = 1.0  # fading variance
    N: float = 0.1  # per-user estimation noise variance
    seed: int = 0
    xs: np.ndarray | None = None  # optional custom correlated traces
    ys: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("basic", "overquant", "soft_error"):
            raise ValueError("variant must be basic, overquant, or soft_error")
        if self.variant == "overquant" and self.m_over < 1:
            raise ValueError("overquant variant needs m_over >= 1")
        if self.variant != "overquant" and self.m_over != 0:
            raise ValueError("m_over applies to the overquant variant only")
        if self.P <= 0 or self.N < 0:
            raise ValueError("P must be positive and N nonnegative")


def run_gaussian_system(config: GaussianConfig) -> SecretKeyOutcome:
    """One reconciliation block of the Gaussian system.

    Alice quantizes, keeps v Gray bits per sample, and publishes the block
    syndrome plus the variant's side information (over-bits or CDF errors).
    Bob decodes her bit block from his samples.  Net secret bits on success
    are the kept bits minus the syndrome length; the published over-bits
    are independent of the kept bits under equiprobable cells and the CDF
    errors are announced in the idealized real-valued form, so neither adds
    to the revealed count against the key.
    """
    v, n = config.v, config.n_samples
    xs, ys = block_traces(config.code, v, n, config.xs, config.ys)
    if xs is None:
        xs, ys = gen_iid_gaussian_source(config.P, config.N, config.N, n, seed=[config.seed, 0])

    total_var = config.P + config.N
    spec = make_quantizer(total_var, v, config.m_over)
    x_b, over_bits = quantize_and_code(xs, spec)
    syn = syndrome(config.code, x_b)
    revealed = len(syn) + len(over_bits)

    if config.N == 0:
        # noiseless: Bob sees Alice's samples exactly; his own quantization
        # already equals her bits and the decoder stops before iterating
        bob_bits, _ = quantize_and_code(ys, spec)
        llr = LLR_CLAMP * (1.0 - 2.0 * bob_bits.to_array().reshape(n, v).astype(np.float64))
    elif config.variant == "soft_error":
        errors = cdf_transform_error(xs, v, total_var)
        p_unit = config.P / total_var
        n_unit = config.N / total_var
        y_unit = ys / np.sqrt(total_var)
        llr = np.empty((n, v))
        for i in range(n):
            llr[i] = llr_soft_error(y_unit[i], errors[i], v, p_unit, n_unit)
    else:
        patterns = np.zeros(n, dtype=np.int64)
        if config.m_over:
            over_mat = over_bits.to_array().reshape(n, config.m_over).astype(np.int64)
            weights = 1 << np.arange(config.m_over - 1, -1, -1)
            patterns = over_mat @ weights
        llr = np.empty((n, v))
        chunk = max(1, 2**22 // spec.n_cells)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            logp = _log_cell_probs(ys[lo:hi], spec, config.P, config.N)
            llr[lo:hi] = _llr_from_logp(logp, spec, patterns[lo:hi])

    result = decode_syndrome(config.code, syn, llr.reshape(-1))
    if result.success:
        net = n * v - len(syn)
        key = privacy_amplify(x_b, net, seed=[config.seed, 7]) if net else BitString.zeros(0)
    else:
        net = 0
        key = BitString.zeros(0)
    return SecretKeyOutcome(
        key_bits=key,
        revealed_bits=revealed,
        decode_success=result.success,
        iterations=result.iterations,
        bit_agreement=x_b.agreement(result.bits),
        net_bits=net,
        net_rate_bits_per_sample=net / n,
    )
