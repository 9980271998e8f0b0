"""Belief-propagation decoder hot loop and the GF(2) parity of the check table.

One flooding log-domain sum-product kernel in numpy: each iteration updates
every check-to-variable message at once from prefix/suffix products of the
check's incoming ``tanh`` terms, then every variable-to-check message from
the per-variable totals.  The products are built one column of the check
table at a time, multiplying left to right for the prefixes and right to
left for the suffixes into buffers allocated once per decode; that is the
order ``cumprod`` multiplies in, without its per-iteration temporaries.
The check-node half is ``check_node_update``, so a test can compare its
messages byte for byte with the ``cumprod`` formula.
``tests/reference_bp.py`` is an independently structured copy of the same
schedule, and the two agree bit for bit.
"""
from __future__ import annotations

import numpy as np

CLAMP = 30.0


def check_parity(bits, rows):
    """H·x over GF(2): each row of ``rows`` XORs the bits it indexes.

    ``rows`` is a check table, one row of variable indices per check.  The
    bits are gathered column by column (``bits[rows.T]``, contiguous per
    column) and the columns XORed one at a time.
    """
    columns = bits[rows.T]
    par = columns[0].copy()
    for col in columns[1:]:
        par ^= col
    return par


def check_node_buffers(m, chk_deg):
    """Work buffers ``(t, pre, suf, c2v)`` of ``check_node_update``, each (m, chk_deg)."""
    t, pre, suf, c2v = np.empty((4, m, chk_deg))
    pre[:, 0] = 1.0
    suf[:, -1] = 1.0
    return t, pre, suf, c2v


def check_node_update(v2c, sign, bufs):
    """Check-to-variable messages of every edge, written into and returned as ``c2v``.

    ``v2c`` holds the variable-to-check messages in canonical edge order,
    ``sign`` the (m, 1) column of (-1)^syndrome, and ``bufs`` comes from
    ``check_node_buffers``.  Each message is 2·arctanh of the product of the
    check's other ``tanh(v2c/2)`` terms, times the sign, clamped to ``±CLAMP``.
    """
    t, pre, suf, c2v = bufs
    m, chk_deg = t.shape
    np.multiply(v2c.reshape(m, chk_deg), 0.5, out=t)
    np.tanh(t, out=t)
    for j in range(1, chk_deg):
        np.multiply(pre[:, j - 1], t[:, j - 1], out=pre[:, j])
    for j in range(chk_deg - 2, -1, -1):
        np.multiply(suf[:, j + 1], t[:, j + 1], out=suf[:, j])
    np.multiply(pre, suf, out=c2v)
    np.arctanh(c2v, out=c2v)
    c2v *= 2.0
    c2v *= sign
    np.clip(c2v, -CLAMP, CLAMP, out=c2v)
    return c2v


def bp_syndrome_decode(edge_var, chk_deg, n_var, syn, llr, max_iter):
    """Flooding log-domain sum-product decode of the coset with syndrome ``syn``.

    ``edge_var`` lists the variable index of every edge grouped by check
    (row-major, ``chk_deg`` edges per check, ascending variable index within
    a row — the canonical edge order).  ``llr`` must already be clamped to
    ``±CLAMP``.  Returns ``(ok, iterations, hard)``.
    """
    edge_var = np.ascontiguousarray(edge_var, dtype=np.int64)
    syn = np.ascontiguousarray(syn, dtype=np.uint8)
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    m = edge_var.size // chk_deg
    rows = edge_var.reshape(m, chk_deg)
    sign = (1.0 - 2.0 * syn.astype(np.float64))[:, None]

    hard = (llr < 0).astype(np.uint8)
    if np.array_equal(check_parity(hard, rows), syn):
        return True, 0, hard

    llr_edge = llr[edge_var]
    v2c = llr_edge.copy()
    bufs = check_node_buffers(m, chk_deg)
    for it in range(max_iter):
        c2v = check_node_update(v2c, sign, bufs)
        tot = np.bincount(edge_var, weights=c2v.ravel(), minlength=n_var)
        hard = ((llr + tot) < 0).astype(np.uint8)
        if np.array_equal(check_parity(hard, rows), syn):
            return True, it + 1, hard
        v2c = tot[edge_var]
        v2c += llr_edge
        v2c -= c2v.ravel()
        np.clip(v2c, -CLAMP, CLAMP, out=v2c)
    return False, max_iter, hard
