"""Belief-propagation decoder hot loop, vectorised over the edge arrays.

One flooding log-domain sum-product kernel in numpy: each iteration updates
every check-to-variable message at once from prefix/suffix products of the
check's incoming ``tanh`` terms, then every variable-to-check message from
the per-variable totals.  ``tests/reference_bp.py`` is an independently
structured copy of the same schedule, and the two agree bit for bit.
"""
from __future__ import annotations

import numpy as np

CLAMP = 30.0


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
    sign = 1.0 - 2.0 * syn.astype(np.float64)

    hard = (llr < 0).astype(np.uint8)
    if _parity_matches(hard, edge_var, m, chk_deg, syn):
        return True, 0, hard

    v2c = llr[edge_var].copy()
    for it in range(max_iter):
        t = np.tanh(0.5 * v2c).reshape(m, chk_deg)
        pre = np.ones((m, chk_deg))
        pre[:, 1:] = np.cumprod(t[:, :-1], axis=1)
        suf = np.ones((m, chk_deg))
        suf[:, :-1] = np.cumprod(t[:, :0:-1], axis=1)[:, ::-1]
        c2v = np.clip(sign[:, None] * (2.0 * np.arctanh(pre * suf)), -CLAMP, CLAMP).ravel()

        tot = np.bincount(edge_var, weights=c2v, minlength=n_var)
        hard = ((llr + tot) < 0).astype(np.uint8)
        if _parity_matches(hard, edge_var, m, chk_deg, syn):
            return True, it + 1, hard
        v2c = np.clip((llr[edge_var] + tot[edge_var]) - c2v, -CLAMP, CLAMP)
    return False, max_iter, hard


def _parity_matches(hard, edge_var, m, chk_deg, syn):
    par = np.bitwise_xor.reduce(hard[edge_var].reshape(m, chk_deg), axis=1)
    return np.array_equal(par, syn)
