"""Information reconciliation and key distillation.

Slepian-Wolf style reconciliation over a public channel: Alice reveals the
syndrome of her bit string under a (3,6)-regular LDPC code, Bob runs
belief-propagation decoding of that coset using his channel likelihoods,
and a Toeplitz universal hash provides privacy amplification.  Codes are
built by a seeded progressive-edge-growth construction and can be exported
in the plain-text alist interchange format.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from . import _kernels
from ._bits import BitString

LLR_CLAMP = _kernels.CLAMP

CHECK_DEGREE = 6
VAR_DEGREE = 3


class ConstructionError(ValueError):
    """Raised when no valid (3,6)-regular graph can be grown for this n."""


@dataclass
class LdpcCode:
    """A (3,6)-regular parity-check structure.

    ``chk_nbrs`` holds, for every check node, its six variable neighbours in
    ascending order.  The row-major ravel of this table is the canonical
    edge ordering used by the decoder kernels (edges grouped by check,
    ascending variable index within a check).
    """

    n: int
    chk_nbrs: np.ndarray  # shape (n/2, CHECK_DEGREE), int64

    def __post_init__(self):
        self.chk_nbrs = np.ascontiguousarray(self.chk_nbrs, dtype=np.int64)
        if self.chk_nbrs.shape != (self.n // 2, CHECK_DEGREE):
            raise ValueError("parity table shape does not match n")

    @property
    def n_checks(self) -> int:
        return self.chk_nbrs.shape[0]

    @property
    def n_edges(self) -> int:
        return self.chk_nbrs.size

    @property
    def edge_var(self) -> np.ndarray:
        """Variable index of every edge in canonical (check, variable) order."""
        return self.chk_nbrs.ravel()

    def var_nbrs(self) -> list:
        """Per-variable check lists (ascending), derived from the check table.

        Raises ``ValueError`` unless every variable lies on exactly
        ``VAR_DEGREE`` edges.
        """
        counts = np.bincount(self.edge_var, minlength=self.n)
        if counts.size != self.n or (counts != VAR_DEGREE).any():
            raise ValueError(f"variable degrees are not all {VAR_DEGREE}")
        # a stable sort groups the edges by variable, each group in check order
        order = np.argsort(self.edge_var, kind="stable")
        return (order // CHECK_DEGREE).reshape(self.n, VAR_DEGREE).tolist()


@dataclass
class DecodeResult:
    success: bool
    bits: BitString  # hard decisions — the decoded string on success
    iterations: int


@dataclass
class SecretKeyOutcome:
    """Per-run result of one quantize/reconcile/distill pipeline run."""

    key_bits: BitString | None  # Alice's secret string (None when nothing distilled)
    revealed_bits: int  # public transcript size in bits (syndrome + announced bits)
    decode_success: bool
    iterations: int
    bit_agreement: float  # fraction of Bob's decoded bits matching Alice's
    net_bits: int  # |key material| - |syndrome| (no leftover-hash margin is charged); 0 on failure
    net_rate_bits_per_sample: float


def ldpc_generate(n: int, seed: int) -> LdpcCode:
    """Grow a (3,6)-regular code of length ``n`` by progressive edge growth.

    Each new edge attaches its variable to the most distant (ideally
    unreachable) non-full check in the bipartite graph grown so far, which
    suppresses short cycles; ties fall to the lowest-degree checks and are
    broken by the seeded generator.  Deterministic for a fixed seed.

    Every check carries the label of its connected component in the
    check-to-check graph; labels merge as edges link checks.  The open
    checks outside the variable's component (all of them, for its first
    edge) are exactly the unreachable ones, so when there are any they are
    the pool without a search, and :func:`_farthest_open_checks` runs only
    when every open check is reachable.
    """
    if n % 4 != 0 or n < 8:
        raise ConstructionError(f"n must be a multiple of 4 and >= 8, got {n}")
    m = n // 2
    rng = np.random.default_rng(seed)

    chk_nbrs = np.full((m, CHECK_DEGREE), -1, dtype=np.int64)
    chk_deg = np.zeros(m, dtype=np.int64)
    not_full = np.ones(m, dtype=bool)
    # checks that share a variable with each check, one slot per shared
    # variable and other check: 6 variables x 2 other checks
    chk_adj = np.full((m, CHECK_DEGREE * (VAR_DEGREE - 1)), -1, dtype=np.int64)
    adj_deg = np.zeros(m, dtype=np.int64)
    # connected-component label of every check in the check-to-check graph
    comp = np.arange(m)

    for v in range(n):
        v_checks = []
        for _ in range(VAR_DEGREE):
            is_open = not_full.copy()
            is_open[v_checks] = False
            if not is_open.any():
                raise ConstructionError(f"no attachable check for variable {v}")
            # open checks outside v's component are exactly those no search reaches
            outside = is_open & (comp != comp[v_checks[0]]) if v_checks else is_open
            pool = outside.nonzero()[0]
            if not pool.size:
                pool = _farthest_open_checks(v_checks, chk_adj, is_open)
            degs = chk_deg[pool]
            pool = pool[degs == degs.min()]
            c = int(pool[rng.integers(pool.size)])

            chk_nbrs[c, chk_deg[c]] = v
            chk_deg[c] += 1
            if chk_deg[c] == CHECK_DEGREE:
                not_full[c] = False
            # c is now adjacent to each of v's earlier checks, both ways
            k = len(v_checks)
            if k:
                chk_adj[c, adj_deg[c] : adj_deg[c] + k] = v_checks
                adj_deg[c] += k
                chk_adj[v_checks, adj_deg[v_checks]] = c
                adj_deg[v_checks] += 1
                comp[comp == comp[c]] = comp[v_checks[0]]
            v_checks.append(c)

    assert (chk_deg == CHECK_DEGREE).all()
    return LdpcCode(n=n, chk_nbrs=np.sort(chk_nbrs, axis=1))


def _farthest_open_checks(start, chk_adj, is_open):
    """The open checks farthest from the checks ``start``, ascending.

    ``start`` holds the current checks of the variable being attached, and
    ``chk_adj`` lists, for every check, the checks that share a variable
    with it (-1 in empty slots).  A check is open (``is_open``) if it is
    not full and not in ``start``.  Breadth-first search over the checks,
    one level per check -> variable -> check step.  If some open checks
    stay unreachable, those are the pool; otherwise the search stops at the
    level where the last open check is reached, and the pool is the open
    checks first reached there.  A -1 entry picks the padding slot of
    ``unseen``, which is always clear, so empty slots are never followed.
    Each level costs a fixed handful of numpy calls: the frontier mask is
    cleared of seen checks, its indices gather the next frontier straight
    from ``chk_adj``, and ``unseen`` drops it by ``^=``.
    """
    m = is_open.size
    unseen = np.ones(m + 1, dtype=bool)
    unseen[m] = False
    unreached = is_open.copy()
    level = np.zeros(m + 1, dtype=bool)
    level[start] = True
    while True:
        # a mask frontier drops repeats and comes out in ascending order
        level &= unseen
        idx = level.nonzero()[0]
        if not idx.size:
            return unreached.nonzero()[0]
        unseen ^= level
        unreached &= unseen[:m]
        if not np.count_nonzero(unreached):
            return (level[:m] & is_open).nonzero()[0]
        level = np.zeros(m + 1, dtype=bool)
        level[chk_adj[idx]] = True


def block_traces(code: LdpcCode, v: int, n: int, xs, ys):
    """Check one block's shape and return its custom traces cut to n samples.

    n samples of v bits each must fill the code exactly.  Custom traces
    come in pairs: both ``xs`` and ``ys``, each at least n samples long, or
    neither, in which case the result is ``(None, None)``.
    """
    if v < 1 or n < 1:
        raise ValueError("v and n_samples must be >= 1")
    if n * v != code.n:
        raise ValueError(f"n_samples*v = {n * v} does not match code length {code.n}")
    if xs is None and ys is None:
        return None, None
    if xs is None or ys is None:
        raise ValueError("custom traces must supply both xs and ys")
    xs = np.asarray(xs, dtype=np.float64)[:n]
    ys = np.asarray(ys, dtype=np.float64)[:n]
    if xs.size < n or ys.size < n:
        raise ValueError("custom trace shorter than n_samples")
    return xs, ys


def syndrome(code: LdpcCode, x: BitString) -> BitString:
    """s = H·x over GF(2), length n/2."""
    if len(x) != code.n:
        raise ValueError(f"bit string has {len(x)} bits, code expects {code.n}")
    return BitString(_kernels.check_parity(x.to_array(), code.chk_nbrs))


def decode_syndrome(code: LdpcCode, s: BitString, llr, max_iter: int = 50) -> DecodeResult:
    """Belief-propagation decode of the coset with syndrome ``s``.

    Standard flooding sum-product, with every check node's outgoing
    messages sign-flipped when its syndrome bit is 1.  Success means the
    hard decision satisfies H·x̂ == s within ``max_iter`` iterations; on
    failure the result carries the iteration count and the final hard
    decision.  LLR sign convention: positive means bit 0.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"llr length {llr.shape} does not match code length {code.n}")
    if len(s) != code.n_checks:
        raise ValueError(f"syndrome has {len(s)} bits, code expects {code.n_checks}")
    llr = np.clip(np.nan_to_num(llr, nan=0.0, posinf=LLR_CLAMP, neginf=-LLR_CLAMP),
                  -LLR_CLAMP, LLR_CLAMP)
    ok, iters, hard = _kernels.bp_syndrome_decode(
        code.edge_var, CHECK_DEGREE, code.n, s.to_array(), llr, max_iter
    )
    return DecodeResult(success=ok, bits=BitString(hard), iterations=iters)


def privacy_amplify(bits: BitString, out_len: int, seed: int) -> BitString:
    """Toeplitz universal hash of ``bits`` down to ``out_len`` bits.

    The Toeplitz matrix is defined by a seed-derived random ±diagonal
    vector t of length out_len + len(bits) - 1, T[i, j] = t[i - j + L - 1];
    the product reduces to one convolution mod 2.  It is computed as an FFT
    product of size >= len(t): a circular convolution that short wraps
    only onto indices below L - 1, outside the kept window.  Each kept sum
    is an integer <= L, and the FFT's rounding error stays far below 1/2,
    so rounding recovers the sums exactly.
    """
    L = len(bits)
    if out_len > L:
        raise ValueError(f"cannot stretch {L} bits to {out_len}")
    if out_len < 0:
        raise ValueError("out_len must be nonnegative")
    if out_len == 0:
        return BitString.zeros(0)
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 2, size=out_len + L - 1, dtype=np.int64)
    size = next_fast_len(t.size)
    spectrum = np.fft.rfft(t, size) * np.fft.rfft(bits.to_array(), size)
    conv = np.rint(np.fft.irfft(spectrum, size)[L - 1 : L - 1 + out_len]).astype(np.int64)
    return BitString(conv & 1)


def to_alist(code: LdpcCode) -> str:
    """Serialize in the plain-text alist sparse-matrix interchange format."""
    vn = code.var_nbrs()
    lines = [
        f"{code.n} {code.n_checks}",
        f"{VAR_DEGREE} {CHECK_DEGREE}",
        " ".join(["3"] * code.n),
        " ".join(["6"] * code.n_checks),
    ]
    for v in range(code.n):
        lines.append(" ".join(str(c + 1) for c in vn[v]))
    for c in range(code.n_checks):
        lines.append(" ".join(str(int(v) + 1) for v in code.chk_nbrs[c]))
    return "\n".join(lines) + "\n"


def from_alist(text: str) -> LdpcCode:
    """Parse an alist produced by :func:`to_alist` (regular (3,6) only).

    Raises ``ValueError`` on any malformed input.
    """
    rows = [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    if len(rows) < 2 or len(rows[0]) != 2 or len(rows[1]) != 2:
        raise ValueError("alist must start with two lines of two integers")
    (n, m), degrees = rows[0], rows[1]
    if degrees != [VAR_DEGREE, CHECK_DEGREE]:
        raise ValueError("only (3,6)-regular alists are supported")
    if n < 1 or 2 * m != n:
        raise ValueError(f"alist header gives {m} checks for {n} variables, expected n/2")
    if len(rows) != 4 + n + m:
        raise ValueError(f"alist has {len(rows)} lines, expected {4 + n + m}")
    var_rows, chk_rows = rows[4 : 4 + n], rows[4 + n :]
    if (rows[2] != [VAR_DEGREE] * n or rows[3] != [CHECK_DEGREE] * m
            or any(len(r) != VAR_DEGREE for r in var_rows)
            or any(len(r) != CHECK_DEGREE for r in chk_rows)):
        raise ValueError("alist degree lists or row lengths are not (3,6)-regular")
    chk_nbrs = np.array(chk_rows, dtype=np.int64) - 1
    if chk_nbrs.min() < 0 or chk_nbrs.max() >= n:
        raise ValueError(f"alist variable index outside 1..{n}")
    code = LdpcCode(n=n, chk_nbrs=np.sort(chk_nbrs, axis=1))
    # cross-check the variable-side lists against the check-side table
    if [sorted(c - 1 for c in r) for r in var_rows] != code.var_nbrs():
        raise ValueError("alist variable and check adjacency lists disagree")
    return code
