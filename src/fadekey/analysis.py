"""Closed-form and Monte Carlo evaluation of key-generation performance.

Secret-key capacity for the jointly Gaussian source, orthant-probability
estimates for the level-crossing protocol's error and rate, level-crossing
rate and coherence-time formulas, a nearest-neighbor mutual-information
estimator, NIST-style randomness checks and min-entropy estimate, and the
empirical-converter convergence diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, erfc, j0

__all__ = [
    "McEstimate",
    "MiEstimate",
    "EstimateInfeasibleError",
    "MEASURED_MI_REFERENCE",
    "secret_key_capacity",
    "pe_levelcross",
    "rate_levelcross",
    "lcr",
    "coherence_time",
    "mutual_information_estimate",
    "randomness_tests",
    "markov_min_entropy",
    "converter_convergence_check",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

MIN_TRIALS = 10_000  # fewest Monte Carlo trials pe_levelcross/rate_levelcross accept
MIN_MI_SAMPLES = 100  # fewest sample pairs mutual_information_estimate accepts

# Reference mutual-information values (bits) measured on indoor hardware
# links, shipped for report comparison only — not a reproduction target.
MEASURED_MI_REFERENCE = {
    "alice_bob": 3.294,
    "bob_eve": 0.047,
    "alice_bob_mobile": 1.218,
    "bob_eve_mobile": 0.000,
}


class EstimateInfeasibleError(RuntimeError):
    """Raised when a Monte Carlo ratio estimate has an empty denominator."""


@dataclass
class McEstimate:
    value: float  # point estimate
    ci_low: float  # 95% confidence bound, lower
    ci_high: float  # 95% confidence bound, upper
    n_trials: int


@dataclass
class MiEstimate:
    bits: float
    degenerate: bool  # True when an input was constant (estimate forced to 0)


def secret_key_capacity(P, N_A, N_B) -> float:
    """Secret-key capacity of the jointly Gaussian pair, in bits/sample.

    C = log2(1 + P/(N_A + N_B + N_A*N_B/P)); degenerates to 0 at P = 0.
    With N_A = N_B = N this is log2(1 + SNR/(2 + 1/SNR)) for SNR = P/N.

    This is the complex-baseband form: it equals 2*I(X;Y) for the
    real-valued pair X = F + Z_A, Y = F + Z_B that the Gaussian sources in
    this package draw, whose mutual information is -1/2*log2(1 - rho^2)
    with rho^2 = P^2/((P + N_A)(P + N_B)).  Compare it with net rates per
    real sample only after halving.
    """
    if P < 0 or N_A <= 0 or N_B <= 0:
        raise ValueError("require P >= 0 and positive noise variances")
    if P == 0:
        return 0.0
    return math.log2(1.0 + P / (N_A + N_B + N_A * N_B / P))


def _observation_cov(m: int, fs, fd, P, N, onset: bool = False) -> np.ndarray:
    """Covariance of one observation's probes under the TDD geometry.

    Alice's m probes sit at k/fs, preceded with ``onset`` by one more of
    hers at -1/fs; Bob's max(m - 1, 1) probes follow, each 1/(2 fs) after
    the Alice probe of the same k.  Probes at lag t correlate as
    P J0(2 pi fd t), and each adds its own noise N.
    """
    t_alice = np.arange(m) / fs
    t_bob = np.arange(max(m - 1, 1)) / fs + 1.0 / (2.0 * fs)
    times = np.concatenate([[-1.0 / fs] if onset else [], t_alice, t_bob])
    k = P * j0(2.0 * np.pi * fd * np.abs(times[:, None] - times[None, :]))
    k[np.diag_indices_from(k)] += N
    return k


def _check_estimate_args(m, alpha, fs, fd, P, N, n_trials) -> None:
    """Reject an estimator argument outside its domain, naming it."""
    if n_trials < MIN_TRIALS:
        raise ValueError(f"n_trials must be >= {MIN_TRIALS}")
    if m < 1:
        raise ValueError("m must be >= 1")
    for name, value in (("fs", fs), ("P", P)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    for name, value in (("alpha", alpha), ("fd", fd), ("N", N)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _sampling_matrix(k: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = k, tolerating semidefinite matrices."""
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(k)
        return v * np.sqrt(np.maximum(w, 0.0))


def _wilson(successes: int, n: int):
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return center - half, center + half


def pe_levelcross(m: int, alpha, fs, fd, P, N, n_trials: int, seed) -> McEstimate:
    """Probability that Bob reads the opposite bit given Alice committed.

    Monte Carlo ratio of orthant probabilities under the joint Gaussian
    model of one observation (fading power P, noise variance N, Doppler fd,
    probe rate fs): numerator = {Alice's m estimates all > q_plus and Bob's
    max(m-1, 1) estimates all < q_minus}, denominator = {Alice's all >
    q_plus}, with q_plus/minus = +/- alpha * sqrt(P + N) and strict
    inequalities throughout.  Returns the estimate with a 95% Wilson CI
    conditional on the denominator count.
    """
    _check_estimate_args(m, alpha, fs, fd, P, N, n_trials)
    l_mat = _sampling_matrix(_observation_cov(m, fs, fd, P, N))
    q = alpha * math.sqrt(P + N)
    rng = np.random.default_rng([seed])
    num = den = 0
    done = 0
    while done < n_trials:
        chunk = min(200_000, n_trials - done)
        z = rng.standard_normal((chunk, l_mat.shape[0])) @ l_mat.T
        alice_up = np.all(z[:, :m] > q, axis=1)
        bob_down = np.all(z[:, m:] < -q, axis=1)
        den += int(alice_up.sum())
        num += int((alice_up & bob_down).sum())
        done += chunk
    if den == 0:
        raise EstimateInfeasibleError("conditioning event never occurred")
    lo, hi = _wilson(num, den)
    return McEstimate(num / den, lo, hi, n_trials)


def rate_levelcross(m: int, alpha, fs, fd, P, N, n_trials: int, seed) -> McEstimate:
    """Secret-bit rate of the level-crossing scheme, in bits/second.

    R = 2 (fs/m) Pr(observation yields an agreed bit), where the
    observation event is onset-conditioned so each qualifying excursion is
    counted once: Alice's estimate one probe period before the window is
    at or below q_plus, her m estimates are all above q_plus, and Bob's
    max(m-1, 1) estimates interleaved among them are all above q_plus as
    well.  The channel is the one ``pe_levelcross`` models.
    """
    _check_estimate_args(m, alpha, fs, fd, P, N, n_trials)
    l_mat = _sampling_matrix(_observation_cov(m, fs, fd, P, N, onset=True))
    q = alpha * math.sqrt(P + N)
    rng = np.random.default_rng([seed])
    hits = 0
    done = 0
    while done < n_trials:
        chunk = min(200_000, n_trials - done)
        z = rng.standard_normal((chunk, l_mat.shape[0])) @ l_mat.T
        event = (z[:, 0] <= q) & np.all(z[:, 1:] > q, axis=1)
        hits += int(event.sum())
        done += chunk
    scale = 2.0 * fs / m
    lo, hi = _wilson(hits, n_trials)
    return McEstimate(scale * hits / n_trials, scale * lo, scale * hi, n_trials)


def lcr(fd, rho) -> float:
    """Level-crossing rate sqrt(2 pi) fd rho exp(-rho^2) for Rayleigh fading.

    rho is the threshold normalized to the RMS envelope level; the rate is
    maximized at rho = 1/sqrt(2).
    """
    if fd <= 0 or rho < 0:
        raise ValueError("require fd > 0 and rho >= 0")
    return math.sqrt(2.0 * math.pi) * fd * rho * math.exp(-rho * rho)


def coherence_time(fd) -> float:
    """Empirical coherence time sqrt(9/(16 pi fd^2)) of the fading process."""
    if fd <= 0:
        raise ValueError("fd must be positive")
    return math.sqrt(9.0 / (16.0 * math.pi * fd * fd))


def mutual_information_estimate(xs, ys, k_neighbors: int = 4) -> MiEstimate:
    """Nearest-neighbor (KSG) mutual-information estimate in bits.

    Uses the Chebyshev-ball construction: for each point, the distance to
    its k-th neighbor in the joint space sets a radius, and the marginal
    neighbor counts within that radius enter through digamma terms.
    Constant inputs short-circuit to 0 with the degenerate flag set.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.size != ys.size:
        raise ValueError("inputs must have equal length")
    n = xs.size
    if n < MIN_MI_SAMPLES:
        raise ValueError(f"need at least {MIN_MI_SAMPLES} samples")
    if k_neighbors < 1 or k_neighbors >= n:
        raise ValueError("k_neighbors must be in [1, n)")
    if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        return MiEstimate(0.0, degenerate=True)
    from scipy.spatial import cKDTree  # deferred: scipy.spatial dominates import time

    joint = np.column_stack([xs, ys])
    tree = cKDTree(joint)
    dist, _ = tree.query(joint, k=k_neighbors + 1, p=np.inf, workers=-1)
    radius = np.nextafter(dist[:, -1], 0.0)  # strictly inside the k-NN ball
    tx = cKDTree(xs[:, None])
    ty = cKDTree(ys[:, None])
    cx = tx.query_ball_point(xs[:, None], radius, p=np.inf, return_length=True, workers=-1)
    cy = ty.query_ball_point(ys[:, None], radius, p=np.inf, return_length=True, workers=-1)
    nats = digamma(k_neighbors) + digamma(n) - np.mean(digamma(cx) + digamma(cy))
    return MiEstimate(float(nats / math.log(2.0)), degenerate=False)


def randomness_tests(bits) -> dict:
    """NIST SP800-22 monobit-frequency and runs test p-values.

    The runs test is reported as 0.0 when its monobit prerequisite
    |pi - 1/2| >= 2/sqrt(n) fails, per the test's applicability rule.
    """
    if hasattr(bits, "to_array"):
        b = bits.to_array()
    else:
        b = np.asarray(bits, dtype=np.uint8)
    n = b.size
    if n < 100:
        raise ValueError("need at least 100 bits")
    s = np.abs(2.0 * b.sum() - n)
    monobit_p = float(erfc(s / math.sqrt(n) / math.sqrt(2.0)))
    pi = b.mean()
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        runs_p = 0.0
    else:
        v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
        num = abs(v - 2.0 * n * pi * (1.0 - pi))
        den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
        runs_p = float(erfc(num / den))
    return {"monobit_p": monobit_p, "runs_p": runs_p}


# NIST SP 800-90B section 6.3.3 scores the most likely output sequence of
# this many bits under the fitted chain
_MARKOV_HORIZON = 128


def markov_min_entropy(bits) -> float:
    """Order-1 Markov min-entropy estimate of a bit string, bits per bit.

    NIST SP 800-90B section 6.3.3: fit the initial probabilities P_0, P_1
    and the transition probabilities P_ab = C_ab / (C_a0 + C_a1) from the
    counts C_ab of adjacent pairs, find the most probable 128-bit sequence
    under that chain (one of 0^128, 1^128, alternating from either start,
    or one switch into a constant run), and return
    min(-log2(p_max) / 128, 1).  A state the string never leaves is scored
    as absorbing (P_aa = 1), the lowest-entropy reading of no evidence.
    """
    b = bits.to_array() if hasattr(bits, "to_array") else np.asarray(bits, dtype=np.uint8)
    b = b.astype(np.int64)
    if b.size < 2:
        raise ValueError("need at least two bits")
    counts = np.zeros((2, 2))
    np.add.at(counts, (b[:-1], b[1:]), 1)
    rows = counts.sum(axis=1, keepdims=True)
    trans = np.where(rows > 0, counts / np.where(rows > 0, rows, 1), np.eye(2))
    p1 = float(b.mean())
    init = np.array([1.0 - p1, p1])
    k = _MARKOV_HORIZON
    with np.errstate(divide="ignore"):
        lp = np.log2(init)
        lt = np.log2(trans)
    candidates = [
        lp[0] + (k - 1) * lt[0, 0],
        lp[0] + (k // 2) * lt[0, 1] + (k // 2 - 1) * lt[1, 0],
        lp[0] + lt[0, 1] + (k - 2) * lt[1, 1],
        lp[1] + lt[1, 0] + (k - 2) * lt[0, 0],
        lp[1] + (k // 2) * lt[1, 0] + (k // 2 - 1) * lt[0, 1],
        lp[1] + (k - 1) * lt[1, 1],
    ]
    return float(max(0.0, min(-max(candidates) / k, 1.0)))


def converter_convergence_check(n_list, trials: int, seed) -> dict:
    """Monte Carlo check of the empirical-converter convergence bound.

    For i.i.d. standard Gaussian inputs, estimates E[||U^n - W^n||_4]
    where U is the rank conversion and W the true CDF transform; the
    theoretical bound is n^(-1/4).  Returns {n: estimate}.
    """
    from scipy.stats import norm

    from .universal import rank_convert

    if trials < 100:
        raise ValueError("trials must be >= 100")
    rng = np.random.default_rng([seed])
    out = {}
    for n in n_list:
        if n < 1:
            raise ValueError("each n must be >= 1")
        acc = 0.0
        for _ in range(trials):
            xs = rng.standard_normal(n)
            u = rank_convert(xs).values
            w = norm.cdf(xs)
            acc += float(np.sum((u - w) ** 4) ** 0.25)
        out[int(n)] = acc / trials
    return out
