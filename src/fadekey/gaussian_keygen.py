"""Gaussian-source key generation with equiprobable quantization.

Three variants share one pipeline: Alice quantizes her jointly Gaussian
samples into Gray-coded bits and publishes a syndrome; Bob decodes from his
correlated samples.  The basic variant uses plain per-bit LLRs, the
over-quantized variant additionally publishes the least-significant
quantizer bits (independent of the kept bits under equiprobable cells) to
sharpen Bob's LLRs, and the soft-error variant publishes CDF-domain
quantization errors instead, which pin Alice's sample to one candidate
point per cell.  Each variant scores Bob's 2^v candidate cells by their
exact log posterior, and one reduction turns those scores into per-bit
LLRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._bits import BitString, gray_codewords
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
    return BitString(gray_codewords(cell_index, width))


def gray_component(cell_index: int, i: int, width: int) -> int:
    """The i-th bit (1 = most significant) of the width-bit Gray codeword."""
    if not 1 <= i <= width:
        raise ValueError("bit position out of range")
    if not 0 <= cell_index < 2**width:
        raise ValueError("cell_index out of range")
    return int(gray_codewords(cell_index, width)[i - 1])


def _cells_of(xs: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return np.searchsorted(spec.boundaries[1:-1], xs, side="right")


def quantize_and_code(xs, spec: QuantizerSpec):
    """Gray-coded quantization split into kept and published bit planes.

    Returns (regular_bits, over_bits): per sample the first v Gray bits go
    to regular_bits and the last m_over to over_bits, in sample order.
    """
    xs = np.asarray(xs, dtype=np.float64)
    bits = gray_codewords(_cells_of(xs, spec), spec.total_bits)  # (n, v + m_over)
    regular = BitString(bits[:, : spec.v].reshape(-1))
    over = BitString(bits[:, spec.v :].reshape(-1))
    return regular, over


def _over_patterns(over_bits, n: int, m_over: int) -> np.ndarray:
    """Each of n samples' m_over published bits packed MSB-first into one integer."""
    bits = np.asarray(over_bits, dtype=np.int64).reshape(n, m_over)
    return bits @ (1 << np.arange(m_over - 1, -1, -1))


def _consistent_cells(spec: QuantizerSpec) -> np.ndarray:
    """(2^m_over, 2^v) table: the cell whose Gray word is (kept << m_over) | pattern.

    The Gray map is a bijection, so a published pattern leaves exactly 2^v
    candidate cells, one per kept codeword.
    """
    j = np.arange(spec.n_cells)
    inverse_gray = np.empty_like(j)
    inverse_gray[j ^ (j >> 1)] = j
    kept = np.arange(2**spec.v)
    patterns = np.arange(2**spec.m_over)
    return inverse_gray[(kept[None, :] << spec.m_over) | patterns[:, None]]


def _log_cell_probs(ys: np.ndarray, spec: QuantizerSpec, P, N, patterns: np.ndarray) -> np.ndarray:
    """(n, 2^v) matrix of ln Pr(cell | y) over each sample's consistent cells.

    Column c is the cell with kept Gray codeword c and the sample's
    published pattern.  X | Y=y is N((P/(P+N)) y, (2PN + N^2)/(P+N)); cell
    masses are tail differences evaluated in log space so deep-tail cells
    stay usable.
    """
    cells = _consistent_cells(spec)[patterns]
    mu = ((P / (P + N)) * ys)[:, None]
    sigma = np.sqrt((2.0 * P * N + N * N) / (P + N))
    ls_lo = log_ndtr(-(spec.boundaries[cells] - mu) / sigma)  # ln Q(a), decreasing in a
    ls_hi = log_ndtr(-(spec.boundaries[cells + 1] - mu) / sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = ls_lo + np.log(-np.expm1(ls_hi - ls_lo))
    # cells whose upper tails coincide in floating point get zero mass
    return np.where(np.isnan(logp), -np.inf, logp)


def _log_candidate_probs(ys: np.ndarray, errors: np.ndarray, spec: QuantizerSpec, P, N) -> np.ndarray:
    """(n, 2^v) matrix of ln Pr(cell | y, e), up to a per-row constant.

    Column c is the cell with kept Gray codeword c.  The published
    CDF-domain error e pins Alice's sample in cell j to the point
    x_j = sqrt(P+N) Phi^-1(e + (j + 1/2)/2^v); the cells are equiprobable
    given e, so each scores the likelihood of y under
    Y | X=x_j ~ N((P/(P+N)) x_j, (2PN + N^2)/(P+N)).
    """
    total = P + N
    cells = _consistent_cells(spec)[0]
    args = np.clip(errors[:, None] + (cells + 0.5) / 2.0**spec.v, _PPF_EPS, 1.0 - _PPF_EPS)
    points = np.sqrt(total) * ndtri(args)
    return -((ys[:, None] - (P / total) * points) ** 2) * (total / (2.0 * (2.0 * P * N + N * N)))


def _llr_from_logp(logp: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Per-bit LLRs from (n, 2^v) log masses indexed by kept codeword.

    Returns an (n, v) array clamped to +/-LLR_CLAMP.
    """
    v = spec.v
    # sides[:, i, b] gathers the columns whose codeword bit i (MSB first) is b
    bits = (np.arange(2**v) >> np.arange(v - 1, -1, -1)[:, None]) & 1
    sides = logp[:, np.argsort(bits, axis=1, kind="stable").reshape(v, 2, -1)]
    # log-sum-exp per side, shifted by that side's own max: one shift per row
    # would underflow the weaker side once |LLR| passes ~745
    top = sides.max(axis=3, keepdims=True)
    top[np.isneginf(top)] = 0.0  # massless side: exp(-inf) sums to 0, log to -inf
    with np.errstate(divide="ignore", invalid="ignore"):  # both sides massless: nan, read as 0
        lse = np.log(np.exp(sides - top).sum(axis=3)) + top[..., 0]
        out = lse[:, :, 0] - lse[:, :, 1]
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
    logp = _log_cell_probs(np.atleast_1d(np.float64(y)), spec, P, N, _over_patterns(over, 1, spec.m_over))
    return _llr_from_logp(logp, spec)[0]


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
        if not 0 < self.P < math.inf:
            raise ValueError(f"P must be positive and finite, got {self.P}")
        if not 0 <= self.N < math.inf:
            raise ValueError(f"N must be nonnegative and finite, got {self.N}")


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
        llr = _llr_from_logp(_log_candidate_probs(ys, errors, spec, config.P, config.N), spec)
    else:
        patterns = _over_patterns(over_bits.to_array(), n, config.m_over)
        llr = _llr_from_logp(_log_cell_probs(ys, spec, config.P, config.N, patterns), spec)

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
