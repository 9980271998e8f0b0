"""Output checks computed apart from fadekey.

Every reference here is written from the protocol's definition, not by
calling the function it checks: the Toeplitz product is a row-by-row matrix
product, the Markov min-entropy walks the six NIST sequences through the chain,
the equiprobable quantizer reads the Gaussian CDF instead of searching cell
edges, the rank quantizer uses closed-form level boundaries, and the
level-crossing steps 1-5 are re-run with a convolution filter.  The public
seed conventions (``default_rng(seed)`` expanded into the Toeplitz diagonal,
Alice's step-6 seed drawn from ``default_rng([config_seed, 6])``) are part of
the protocol transcript, so the references reproduce them.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import j0, jn_zeros, ndtr
from scipy.stats import norm

MAC_BITS = 128  # authentication bits consumed from the raw key material
PA_MARGIN_BITS = 128  # leftover-hash margin: 2 * 64 bits
MARKOV_HORIZON = 128  # NIST SP 800-90B 6.3.3 scores 128-bit sequences
# eavesdropper allowance: Gaussian information at the largest |J0| beyond
# one wavelength, the second zero of J1
EVE_LEAK = -0.5 * math.log2(1.0 - float(j0(jn_zeros(1, 2)[1])) ** 2)
LLR_CLAMP = 30.0
LLR_TOL = 1e-6
# trace variance within 15% of P.  The sample variance of a 200k-sample
# Jakes trace has an exponential right tail whose scale is the spectral mass
# in the frequency bin at +/-fd, about 0.009 P.  The 5% band of
# tests/test_channel.py, which checks one fixed seed, is crossed by about
# 0.5% of correct traces (2 of 100 campaigns read 1.056 and 1.058); 15% by
# about 1e-7.  Lag-1..5 ACF within 0.05 of J0, the band of test_channel.py.
VAR_BAND = 0.15
ACF_BAND = 0.05
ACF_LAGS = 5
EVE_BAND = 0.05


def bits_of(b) -> np.ndarray:
    """0/1 uint8 array of a BitString or array-like."""
    return np.asarray(b.to_array() if hasattr(b, "to_array") else b, dtype=np.uint8)


# --- privacy amplification -------------------------------------------------


def toeplitz_hash(bits, out_len: int, seed, rows_per_chunk: int = 512) -> np.ndarray:
    """T @ bits mod 2 with T[i, j] = t[i - j + L - 1], t drawn from ``seed``.

    Row i of T is t[i : i + L] reversed, so the product is a sliding window
    of t against the reversed input.  float32 sums of 0/1 terms are exact
    below 2^24 bits; rows are taken in chunks to keep the memory small.
    """
    b = bits_of(bits)
    L = b.size
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    t = np.random.default_rng(seed).integers(0, 2, size=out_len + L - 1, dtype=np.int64)
    windows = sliding_window_view(t.astype(np.float32), L)
    b_rev = b[::-1].astype(np.float32)
    out = np.empty(out_len, dtype=np.uint8)
    for lo in range(0, out_len, rows_per_chunk):
        hi = min(lo + rows_per_chunk, out_len)
        out[lo:hi] = (windows[lo:hi] @ b_rev).astype(np.int64) & 1
    return out


# --- min-entropy -------------------------------------------------------------


def nist_markov_paths(k: int = MARKOV_HORIZON) -> list[np.ndarray]:
    """The six k-bit sequences NIST SP 800-90B 6.3.3 scores: 0^k, 1^k,
    alternating from 0 and from 1, 01^(k-1) and 10^(k-1)."""
    alt = np.arange(k) % 2
    ones = np.ones(k, dtype=np.int64)
    return [0 * ones, ones, alt, 1 - alt, np.r_[0, ones[1:]], np.r_[1, 0 * ones[1:]]]


def markov_min_entropy(bits, horizon: int = MARKOV_HORIZON) -> float:
    """Order-1 Markov min-entropy per bit, NIST SP 800-90B section 6.3.3.

    Fits the initial and transition probabilities from the string (a state
    never left is absorbing), scores each of the six NIST sequences by
    walking it through the fitted chain, and returns
    min(-log2(p_max)/horizon, 1).
    """
    b = bits_of(bits).astype(np.int64)
    counts = np.zeros((2, 2))
    for a in (0, 1):
        prev = b[:-1] == a
        for c in (0, 1):
            counts[a, c] = np.count_nonzero(prev & (b[1:] == c))
    trans = np.eye(2)
    for a in (0, 1):
        if counts[a].sum() > 0:
            trans[a] = counts[a] / counts[a].sum()
    p1 = b.mean()
    with np.errstate(divide="ignore"):
        log_init = np.log2(np.array([1.0 - p1, p1]))
        log_trans = np.log2(trans)
    best = max(log_init[s[0]] + log_trans[s[:-1], s[1:]].sum() for s in nist_markov_paths(horizon))
    return float(max(0.0, min(-best / horizon, 1.0)))


# --- level crossing ----------------------------------------------------------


def detrend(u, window: int) -> np.ndarray:
    """u minus its centered moving average, window truncated at the edges."""
    u = np.asarray(u, dtype=np.float64)
    ones = np.ones(window)
    sums = np.convolve(u, ones, mode="same")
    counts = np.convolve(np.ones(u.size), ones, mode="same")
    return u - sums / counts


def run_states(u, alpha: float):
    """(+1/-1/0 state per sample, q_plus) for thresholds mean +/- alpha*sigma."""
    mu, sigma = u.mean(), u.std()
    q_plus, q_minus = mu + alpha * sigma, mu - alpha * sigma
    state = (u > q_plus).astype(np.int8) - (u < q_minus).astype(np.int8)
    return state, q_plus


def runs(state: np.ndarray, min_len: int):
    """(starts, ends) of maximal nonzero equal-state runs, ends exclusive."""
    change = np.flatnonzero(state[1:] != state[:-1]) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [state.size]])
    keep = (state[starts] != 0) & (ends - starts >= min_len)
    return starts[keep], ends[keep]


def run_mask(state: np.ndarray, min_len: int) -> np.ndarray:
    """Samples covered by a run of at least ``min_len``."""
    starts, ends = runs(state, min_len)
    edges = np.zeros(state.size + 1, dtype=np.int64)
    np.add.at(edges, starts, 1)
    np.add.at(edges, ends, -1)
    return np.cumsum(edges[:-1]) > 0


def levelcross_reference(x_hat, y_hat, e_hat, alpha, m, window, epsilon):
    """Steps 1-5 re-run apart: announced centers, Bob's check, raw keys, Eve.

    Returns a dict with the announced index count, whether Bob's step-3
    test passes, both raw keys after the MAC bits, and Eve's
    agreement with Alice on the bits she confirms by Bob's steps 3-4.
    """
    u_x, u_y, u_e = (detrend(v, window) for v in (x_hat, y_hat, e_hat))
    s_x, qx = run_states(u_x, alpha)
    s_y, qy = run_states(u_y, alpha)
    s_e, qe = run_states(u_e, alpha)
    starts, ends = runs(s_x, m)
    centers = (starts + ends - 1) // 2
    bob_len = max(m - 1, 1)
    mask_y = run_mask(s_y, bob_len)
    confirmed = centers[mask_y[centers]]
    alice = (u_x[confirmed] > qx).astype(np.uint8)
    bob = (u_y[confirmed] > qy).astype(np.uint8)
    eve_idx = centers[run_mask(s_e, bob_len)[centers]]
    eve_agree = float(np.mean((u_x[eve_idx] > qx) == (u_e[eve_idx] > qe))) if eve_idx.size else 0.0
    return {
        "announced": int(centers.size),
        "bob_check": bool(centers.size) and mask_y[centers].mean() >= 0.5 + epsilon,
        "raw_alice": alice[MAC_BITS:],
        "raw_bob": bob[MAC_BITS:],
        "eve_agreement": eve_agree,
        "eve_bits": int(eve_idx.size),
    }


def pa_length(n_raw: int, min_entropy: float) -> int:
    return max(0, math.floor(n_raw * (min_entropy - EVE_LEAK)) - PA_MARGIN_BITS)


def check_campaign_keys(result, ref, config_seed: int) -> list[str]:
    """Step-5/6 outputs of ``run_protocol`` against the apart reference."""
    fails = []
    if not result.authenticated or result.aborted_reason is not None:
        fails.append(f"campaign did not authenticate: {result.aborted_reason}")
    if not ref["bob_check"]:
        fails.append("reference step-3 check rejects Alice's list")
    raw = bits_of(result.raw_key_alice)
    if not np.array_equal(raw, ref["raw_alice"]):
        fails.append(f"raw key differs from the reference ({raw.size} vs {ref['raw_alice'].size} bits)")
    if not np.array_equal(ref["raw_alice"], ref["raw_bob"]):
        fails.append("reference raw keys of Alice and Bob disagree")
    ka, kb = bits_of(result.key_alice), bits_of(result.key_bob)
    if not np.array_equal(ka, kb):
        fails.append("key_alice != key_bob")
    want_len = pa_length(ref["raw_alice"].size, markov_min_entropy(ref["raw_alice"]))
    if ka.size != want_len or want_len == 0:
        fails.append(f"key length {ka.size}, reference {want_len}")
        return fails
    seed = int(np.random.default_rng([config_seed, 6]).integers(2**63))
    if not np.array_equal(ka, toeplitz_hash(ref["raw_alice"], want_len, seed)):
        fails.append("key is not the Toeplitz hash of the raw key")
    return fails


def check_channel(samples, fd: float, dt: float, P: float = 1.0) -> list[str]:
    """Trace variance and lag-1..5 ACF against P and J0(2 pi fd tau)."""
    fails = []
    x = np.asarray(samples, dtype=np.float64)
    if abs(x.var() - P) >= VAR_BAND * P:
        fails.append(f"trace variance {x.var():.4f}, want {P} +/- {VAR_BAND * P}")
    x = x - x.mean()
    denom = x @ x
    for lag in range(1, ACF_LAGS + 1):
        emp = (x[:-lag] @ x[lag:]) / denom
        want = float(j0(2.0 * np.pi * fd * lag * dt))
        if abs(emp - want) >= ACF_BAND:
            fails.append(f"lag-{lag} ACF {emp:.4f}, want {want:.4f} +/- {ACF_BAND}")
    return fails


def check_eve(ref) -> list[str]:
    if ref["eve_bits"] == 0 or abs(ref["eve_agreement"] - 0.5) > EVE_BAND:
        return [f"Eve's raw-bit agreement {ref['eve_agreement']:.4f} over {ref['eve_bits']} bits, "
                f"want 0.50 +/- {EVE_BAND}"]
    return []


# --- Gaussian and universal blocks ------------------------------------------


def gray_bits(cells: np.ndarray, width: int) -> np.ndarray:
    """(n, width) Gray codewords of the cell indices, MSB first."""
    g = cells ^ (cells >> 1)
    return ((g[:, None] >> np.arange(width - 1, -1, -1)[None, :]) & 1).astype(np.uint8)


def equiprobable_cells(xs, variance: float, total_bits: int) -> np.ndarray:
    """Cell index floor(2^k * Phi(x / sigma)) of the equiprobable quantizer."""
    u = ndtr(np.asarray(xs, dtype=np.float64) / math.sqrt(variance))
    return np.clip(np.floor(np.ldexp(u, total_bits)).astype(np.int64), 0, 2**total_bits - 1)


def gaussian_bits(xs, variance: float, v: int, m_over: int):
    """(kept bits, per-sample over-bit rows) of Alice's Gray quantizer."""
    table = gray_bits(equiprobable_cells(xs, variance, v + m_over), v + m_over)
    return table[:, :v].reshape(-1), table[:, v:]


def rank_quantizer_bits(xs, v: int, A: int) -> np.ndarray:
    """Kept bits of the A-bit fixed-point rank converter, then a v-bit Gray cell.

    Sorted position r falls on level ceil((r+1) M / n) - 1 for M = 2^A
    levels, which is the level the rate-matched counts floor(j n / M) give.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n, M = xs.size, 1 << A
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(xs, kind="stable")] = np.arange(n)
    level = ((rank + 1) * M + n - 1) // n - 1
    return gray_bits(level >> (A - v), v).reshape(-1)


def llr_reference(y: float, over_row, v: int, m_over: int, P: float, N: float) -> np.ndarray:
    """Cell-mass LLRs of one sample's kept bits given its published bits.

    X | Y = y is normal with mean P y/(P+N) and variance (2PN + N^2)/(P+N).
    Each cell's mass is a CDF difference, taken on the lower or upper tail
    so that it does not cancel; the LLR of kept bit i is the log ratio of the
    mass of consistent cells with bit i = 0 to those with bit i = 1.
    """
    k = v + m_over
    edges = math.sqrt(P + N) * norm.ppf(np.arange(2**k + 1) / 2.0**k)
    mu = P / (P + N) * y
    s = math.sqrt((2 * P * N + N * N) / (P + N))
    z = (edges - mu) / s
    lo, hi = z[:-1], z[1:]
    mass = np.where(lo > 0, norm.sf(lo) - norm.sf(hi), norm.cdf(hi) - norm.cdf(lo))
    codes = gray_bits(np.arange(2**k), k)
    consistent = np.all(codes[:, v:] == np.asarray(over_row, dtype=np.uint8)[None, :], axis=1)
    out = np.empty(v)
    with np.errstate(divide="ignore"):
        for i in range(v):
            m0 = mass[consistent & (codes[:, i] == 0)].sum()
            m1 = mass[consistent & (codes[:, i] == 1)].sum()
            out[i] = np.log(m0) - np.log(m1)
    return np.clip(np.nan_to_num(out, nan=0.0, posinf=LLR_CLAMP, neginf=-LLR_CLAMP), -LLR_CLAMP, LLR_CLAMP)


def check_block(outcome, alice_bits, code_n: int, pa_seed) -> list[str]:
    """One reconciliation block: decoded, agreed, net length, hashed key."""
    fails = []
    if not outcome.decode_success:
        fails.append(f"block did not decode ({outcome.iterations} iterations)")
    if outcome.bit_agreement != 1.0:
        fails.append(f"bit agreement {outcome.bit_agreement}")
    net = code_n - code_n // 2
    if outcome.net_bits != net:
        fails.append(f"net_bits {outcome.net_bits}, want {net}")
        return fails
    key = bits_of(outcome.key_bits) if outcome.key_bits is not None else np.zeros(0, np.uint8)
    if not np.array_equal(key, toeplitz_hash(alice_bits, net, pa_seed)):
        fails.append("key is not the Toeplitz hash of Alice's quantized bits")
    return fails


def check_llrs(llr_fn, spec, ys, over_rows, picks, v, m_over, P, N) -> list[str]:
    """``llr_overquantized`` at a few samples against the cell-mass sum."""
    fails = []
    for i in picks:
        got = np.asarray(llr_fn(float(ys[i]), over_rows[i], spec, P, N))
        want = llr_reference(float(ys[i]), over_rows[i], v, m_over, P, N)
        err = float(np.max(np.abs(got - want)))
        if not err <= LLR_TOL:
            fails.append(f"llr_overquantized at sample {i}: max error {err:.3g}")
    return fails


def check_used_llrs(llr, ys, over_rows, picks, v, m_over, P, N) -> list[str]:
    """The LLRs a block passed to its decoder, v per sample, at a few samples
    against the cell-mass sum."""
    fails = []
    llr = np.asarray(llr, dtype=np.float64).reshape(-1, v)
    for i in picks:
        want = llr_reference(float(ys[i]), over_rows[i], v, m_over, P, N)
        err = float(np.max(np.abs(llr[i] - want)))
        if not err <= LLR_TOL:
            fails.append(f"decoder LLRs at sample {i}: max error {err:.3g}")
    return fails
