"""Level-crossing key agreement: excursion parsing and the 6-step protocol.

Both parties remove the slow trend from their probe estimates, set
symmetric thresholds around the residual mean, and look for runs of
samples that stay strictly beyond a threshold.  Alice announces the centers
of her runs; Bob keeps the indices he can confirm on his own estimates,
answers with that sublist plus a MAC tag keyed by the first bits of his
key material, and Alice verifies the tag to authenticate the exchange.
The MAC is HMAC-SHA256 truncated to 128 bits (``mac_compute``).  Every
abort is a ``ProtocolAbort``, which ``run_protocol`` reports in its result.

The remaining raw bits are not a key yet: successive narrow-band
excursions alternate sign, so the raw string is strongly Markov (lag-1
correlation about -0.67).  In the last step Alice estimates the raw
string's min-entropy with an order-1 Markov estimator, subtracts an
eavesdropper allowance and a security margin (see ``pa_output_length``),
and announces that output length with a Toeplitz seed; both parties hash
their raw bits with :func:`fadekey.reconcile.privacy_amplify`.  The
evidence that the hashed key is secret is that length bound, not any
statistical test on the output: a Toeplitz hash of a fully known input
passes frequency and runs tests just as well.
"""

from __future__ import annotations

import hmac
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0, jn_zeros

from ._bits import BitString
from .analysis import markov_min_entropy
from .reconcile import privacy_amplify

__all__ = [
    "ProtocolAbort",
    "Thresholds",
    "ProtocolMessage",
    "AmplificationNotice",
    "KeyAgreementResult",
    "LevelCrossConfig",
    "subtract_windowed_mean",
    "compute_thresholds",
    "find_excursions",
    "alice_select",
    "bob_check",
    "bob_reply",
    "alice_finalize",
    "mac_compute",
    "pa_output_length",
    "alice_amplification",
    "run_protocol",
    "EVE_LEAK_PER_BIT",
    "PA_EPSILON_BITS",
]

_MAC_BITS = 128

# Eavesdropper allowance for privacy amplification.  The channel model puts
# an eavesdropper at distance d at spatial correlation J0(2*pi*d/lambda)
# with the legitimate channel.  For d >= lambda its magnitude peaks at the
# first extremum of J0 beyond 2*pi, the second zero of J1 (d ~ 1.117
# lambda), where |J0| = 0.3001.  Each raw bit is charged the mutual
# information of one jointly Gaussian sample pair at that correlation,
# -1/2*log2(1 - rho^2) = 0.0681 bit.  This is a modelling allowance, not a
# proof: it covers an eavesdropper who reads one sample per raw bit, and
# it exceeds 1 - h(0.609) = 0.035 bit, the per-bit information of the
# sign agreement an eavesdropper at d = lambda reaches on the raw bits.
EVE_RHO_BOUND = float(abs(j0(jn_zeros(1, 2)[1])))
EVE_LEAK_PER_BIT = -0.5 * math.log2(1.0 - EVE_RHO_BOUND**2)

# Leftover-hash security parameter: sacrificing 2*PA_EPSILON_BITS bits of
# min-entropy makes the Toeplitz output 2^-PA_EPSILON_BITS-close to uniform
# given everything the allowance above covers (Bennett, Brassard, Crepeau
# and Maurer, "Generalized privacy amplification", 1995).
PA_EPSILON_BITS = 64


class ProtocolAbort(Exception):
    """Protocol-level rejection; .reason is one of the abort labels."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class Thresholds:
    q_plus: float
    q_minus: float
    alpha: float  # threshold offset in units of the residual's sigma

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.q_minus > self.q_plus:
            raise ValueError("q_minus must not exceed q_plus")
        if self.alpha > 0 and not self.q_minus < self.q_plus:
            raise ValueError("positive alpha requires separated thresholds")


@dataclass
class ProtocolMessage:
    variant: str  # "index_list" (Alice's L) or "reply" (Bob's L-tilde + tag)
    indices: np.ndarray  # sorted unique sample indices
    mac_tag: BitString | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.variant not in ("index_list", "reply"):
            raise ValueError("variant must be 'index_list' or 'reply'")
        if self.indices.size:
            if self.indices.min() < 0:
                raise ValueError("indices must be nonnegative")
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("indices must be sorted and unique")
        if self.variant == "reply" and self.mac_tag is None:
            raise ValueError("reply messages carry a MAC tag")


@dataclass
class AmplificationNotice:
    """Step-6 message from Alice: final key length and public Toeplitz seed."""

    out_len: int
    seed: int
    min_entropy: float  # Markov min-entropy estimate behind out_len, bits per raw bit

    def __post_init__(self):
        if self.out_len < 0:
            raise ValueError("out_len must be nonnegative")


@dataclass
class KeyAgreementResult:
    """Outcome of one campaign.

    ``key_alice``/``key_bob`` are the Toeplitz-hashed final keys.
    ``agreement`` is measured on the raw bits, before hashing, where a
    single disagreement shows as a fraction rather than as two unrelated
    hashes.
    """

    key_alice: BitString
    key_bob: BitString
    authenticated: bool
    aborted_reason: str | None  # None, "fake_L", "mac_failure", "insufficient_bits"
    bits_per_second: float
    agreement: float = 0.0  # fraction of matching raw key bits (harness metric)
    raw_key_alice: BitString = field(default_factory=lambda: BitString.zeros(0))
    raw_min_entropy: float = 0.0  # Markov min-entropy estimate, bits per raw bit


@dataclass
class LevelCrossConfig:
    alpha: float = 0.125  # threshold offset, units of sigma
    m: int = 4  # minimum excursion length on Alice's side
    window: int = 51  # moving-average window (odd)
    epsilon: float = 0.1  # step-3 margin over 1/2
    n_au: int = 128  # authentication bits consumed from the key material
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 1")
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if self.m < 1 or not 1 <= self.n_au <= _MAC_BITS:
            raise ValueError(f"m must be >= 1 and n_au in 1..{_MAC_BITS}, the MAC key length")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def subtract_windowed_mean(u, window_len: int) -> np.ndarray:
    """Remove a centered moving average, truncating the window at the edges.

    out[i] = u[i] - mean(u[max(0, i-h) : i+h+1]) with h = window_len // 2;
    the output has the same length as the input.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    if n == 0:
        raise ValueError("input must be nonempty")
    if window_len < 1 or window_len % 2 == 0:
        raise ValueError("window_len must be odd and >= 1")
    if n < window_len:
        raise ValueError("input shorter than the window")
    h = window_len // 2
    c = np.concatenate([[0.0], np.cumsum(u)])
    hi = np.minimum(np.arange(n) + h + 1, n)
    lo = np.maximum(np.arange(n) - h, 0)
    means = (c[hi] - c[lo]) / (hi - lo)
    return u - means


def compute_thresholds(u, alpha) -> Thresholds:
    """Symmetric quantizer thresholds mean(u) +/- alpha * sigma(u).

    sigma is the population standard deviation (1/n normalization).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size < 2:
        raise ValueError("need at least two samples")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    mu = u.mean()
    sigma = u.std()
    return Thresholds(q_plus=mu + alpha * sigma, q_minus=mu - alpha * sigma, alpha=alpha)


def _excursion_state(x: np.ndarray, t: Thresholds) -> np.ndarray:
    """Per-sample classification: +1 above q_plus, -1 below q_minus, else 0."""
    return np.where(x > t.q_plus, 1, np.where(x < t.q_minus, -1, 0)).astype(np.int8)


def find_excursions(x, t: Thresholds, m: int) -> np.ndarray:
    """All maximal runs of >= m samples strictly beyond a threshold, in order:
    one int64 row (start, end inclusive, sign +1 above q_plus or -1 below q_minus) each."""
    if m < 1:
        raise ValueError("m must be >= 1")
    state = _excursion_state(np.asarray(x, dtype=np.float64), t)
    if not state.size:
        return np.empty((0, 3), dtype=np.int64)
    change = np.flatnonzero(state[1:] != state[:-1]) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [state.size]]) - 1
    signs = state[starts]
    keep = (signs != 0) & (ends - starts >= m - 1)
    return np.stack([starts[keep], ends[keep], signs[keep]], axis=1).astype(np.int64, copy=False)


def _inside_excursions(idx: np.ndarray, y: np.ndarray, t: Thresholds, m: int) -> np.ndarray:
    """Which of the indices ``idx`` fall inside one of y's runs of >= m samples."""
    runs = find_excursions(y, t, m)
    # an index lies in the last run starting at or before it iff that run's end is >= it;
    # the leading -1 is the end of "no run", for an index before every start
    ends = np.concatenate([[-1], runs[:, 1]])
    return idx <= ends[np.searchsorted(runs[:, 0], idx, side="right")]


def alice_select(excursions) -> ProtocolMessage:
    """Announce the centers of all of Alice's excursions.

    ``excursions`` holds the (start, end, sign) rows ``find_excursions``
    returns; each center is floor((start + end) / 2) with the end
    inclusive.  The index list is sorted ascending.
    """
    runs = np.asarray(excursions, dtype=np.int64).reshape(-1, 3)
    return ProtocolMessage("index_list", np.sort((runs[:, 0] + runs[:, 1]) // 2))


def _message_indices(msg: ProtocolMessage, n: int) -> np.ndarray:
    """A message's indices; any outside [0, n) aborts "fake_L"."""
    idx = msg.indices
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ProtocolAbort("fake_L")
    return idx


def bob_check(L, y, t: Thresholds, m: int, epsilon) -> bool:
    """Step-3 plausibility test of Alice's index list against Bob's trace.

    True iff the fraction of indices lying inside one of Bob's excursions of
    length >= max(m-1, 1) is at least 1/2 + epsilon.  An empty list fails;
    an out-of-range index aborts as a faked list.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    y = np.asarray(y, dtype=np.float64)
    idx = _message_indices(L, y.size)
    if idx.size == 0:
        return False
    return float(_inside_excursions(idx, y, t, max(m - 1, 1)).mean()) >= 0.5 + epsilon


def bob_reply(L, y, t: Thresholds, m: int, n_au: int):
    """Step 4: confirm indices, derive Bob's bits, and tag the sublist.

    L_tilde keeps the indices of L that fall inside Bob's excursions of
    length >= max(m-1, 1).  Bob's bit string is the quantizer output at
    those samples; its first n_au bits key the MAC over the serialized
    L_tilde and the remainder is his secret key.  Fewer than n_au + 1 bits
    abort with "insufficient_bits".
    """
    y = np.asarray(y, dtype=np.float64)
    idx = _message_indices(L, y.size)
    l_tilde = idx[_inside_excursions(idx, y, t, max(m - 1, 1))]
    bits = BitString((y[l_tilde] > t.q_plus).astype(np.uint8))
    if len(bits) <= n_au:
        raise ProtocolAbort("insufficient_bits")
    k_au = bits[:n_au]
    tag = mac_compute(k_au, _serialize_indices(l_tilde))
    return ProtocolMessage("reply", l_tilde, tag), bits[n_au:]


def alice_finalize(reply: ProtocolMessage, x, t: Thresholds, n_au: int) -> BitString:
    """Step 5: recompute the tag on Alice's side and return her raw key.

    Alice quantizes her own samples at the confirmed indices, keys the MAC
    with the first n_au bits, and accepts iff the recomputed tag equals the
    received one, returning the bits after those n_au; a mismatch aborts with
    "mac_failure".  An index whose sample falls in her guard band (bounds
    included) cannot come from her own announcement and aborts "fake_L".
    """
    x = np.asarray(x, dtype=np.float64)
    state = _excursion_state(x[_message_indices(reply, x.size)], t)
    if not state.all():
        raise ProtocolAbort("fake_L")
    bits = BitString((state > 0).astype(np.uint8))
    if len(bits) <= n_au:
        raise ProtocolAbort("insufficient_bits")
    if mac_compute(bits[:n_au], _serialize_indices(reply.indices)) != reply.mac_tag:
        raise ProtocolAbort("mac_failure")
    return bits[n_au:]


def _serialize_indices(idx: np.ndarray) -> bytes:
    """Canonical MAC input: indices as 64-bit big-endian integers."""
    return np.asarray(idx, dtype=">u8").tobytes()


def mac_compute(key: BitString, message: bytes) -> BitString:
    """HMAC-SHA256 of ``message``, truncated to its first 128 bits.

    The HMAC key is the packed key bits (1..128 of them, final byte
    zero-padded).  Truncation to half the hash output is the minimum RFC
    2104 (section 5) recommends.
    """
    if not 0 < len(key) <= _MAC_BITS:
        raise ValueError(f"key must be 1..{_MAC_BITS} bits")
    tag = hmac.digest(key.to_bytes(), message, "sha256")[: _MAC_BITS // 8]
    return BitString(np.unpackbits(np.frombuffer(tag, dtype=np.uint8)))


def pa_output_length(n_raw: int, min_entropy: float) -> int:
    """Privacy-amplified key length for n_raw raw bits.

    l = floor(n_raw * (min_entropy - EVE_LEAK_PER_BIT)) - 2 * PA_EPSILON_BITS,
    floored at 0: the raw string's estimated min-entropy, less the
    eavesdropper allowance per raw bit, less the leftover-hash margin.
    """
    return max(0, math.floor(n_raw * (min_entropy - EVE_LEAK_PER_BIT)) - 2 * PA_EPSILON_BITS)


def alice_amplification(raw_key: BitString, seed) -> AmplificationNotice:
    """Step 6: size the final key from Alice's raw key and pick a hash seed.

    The min-entropy estimate is the order-1 Markov estimator of NIST SP
    800-90B section 6.3.3, which prices the sign alternation of successive
    excursions.  The announced indices predict those flips too (short gaps
    between centers almost always flip), but on two 100k-probe campaigns at
    20 dB, alpha = 1/8, m = 4 the per-bit min-entropy of a flip given its
    gap, 0.29 bit, stayed above the unconditioned estimate of 0.26 bit, so
    the indices do not undercut the estimate there.  The seed is drawn from
    a generator keyed by ``seed`` and announced in the clear.
    """
    h = markov_min_entropy(raw_key) if len(raw_key) >= 2 else 0.0
    toeplitz_seed = int(np.random.default_rng([seed, 6]).integers(2**63))
    return AmplificationNotice(pa_output_length(len(raw_key), h), toeplitz_seed, h)


def run_protocol(probe_record, config: LevelCrossConfig) -> KeyAgreementResult:
    """Full level-crossing key agreement over one probe campaign.

    Each side filters its own estimates and sets its own thresholds; the
    five exchange steps then run in sequence, and in step 6 both parties
    hash their raw bits to the length Alice announces (see
    ``alice_amplification``).  The returned keys are those hashed outputs;
    ``raw_key_alice`` and ``agreement`` describe the raw bits before them.
    A raw key too short to leave any hashed bit aborts with
    "insufficient_bits" after a successful handshake.  Every abort is
    reported in the result rather than raised.  bits_per_second divides the
    final key length by the probe-campaign time span.
    """
    x = np.asarray(probe_record.x_hat, dtype=np.float64)
    y = np.asarray(probe_record.y_hat, dtype=np.float64)
    span = float(probe_record.x_times[-1] - probe_record.x_times[0])
    u_x = subtract_windowed_mean(x, config.window)
    u_y = subtract_windowed_mean(y, config.window)
    t_x = compute_thresholds(u_x, config.alpha)
    t_y = compute_thresholds(u_y, config.alpha)

    msg_l = alice_select(find_excursions(u_x, t_x, config.m))

    try:
        if not bob_check(msg_l, u_y, t_y, config.m, config.epsilon):
            raise ProtocolAbort("fake_L")
        reply, raw_bob = bob_reply(msg_l, u_y, t_y, config.m, config.n_au)
        if not np.isin(reply.indices, msg_l.indices).all():
            raise ProtocolAbort("fake_L")
        raw_alice = alice_finalize(reply, u_x, t_x, config.n_au)
    except ProtocolAbort as abort:
        empty = BitString.zeros(0)
        return KeyAgreementResult(empty, empty, authenticated=False, aborted_reason=abort.reason,
                                  bits_per_second=0.0)
    notice = alice_amplification(raw_alice, config.seed)
    key_alice = privacy_amplify(raw_alice, notice.out_len, notice.seed)
    key_bob = privacy_amplify(raw_bob, notice.out_len, notice.seed)
    return KeyAgreementResult(
        key_alice=key_alice,
        key_bob=key_bob,
        authenticated=True,
        aborted_reason=None if notice.out_len else "insufficient_bits",
        bits_per_second=len(key_alice) / span if span > 0 else 0.0,
        agreement=raw_alice.agreement(raw_bob),
        raw_key_alice=raw_alice,
        raw_min_entropy=notice.min_entropy,
    )
