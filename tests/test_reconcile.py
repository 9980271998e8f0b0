import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fadekey._bits import BitString
from fadekey import _kernels, reconcile
from fadekey.reconcile import (
    ConstructionError,
    decode_syndrome,
    from_alist,
    ldpc_generate,
    privacy_amplify,
    syndrome,
    to_alist,
)

from reference_bp import reference_decode


# ---------------------------------------------------------------- BitString


class TestBitString:
    def test_roundtrip_and_len(self):
        b = BitString([1, 0, 1, 1, 0, 0, 1, 0, 1])
        assert len(b) == 9
        assert b.to_array().tolist() == [1, 0, 1, 1, 0, 0, 1, 0, 1]

    def test_slicing(self):
        b = BitString([1, 0, 1, 1, 0])
        assert b[0] == 1 and b[4] == 0
        assert b[1:4] == BitString([0, 1, 1])

    def test_xor_and_weight(self):
        a = BitString([1, 1, 0, 0])
        b = BitString([1, 0, 1, 0])
        assert (a ^ b).to_array().tolist() == [0, 1, 1, 0]
        assert a.weight == 2

    def test_concat(self):
        c = BitString.concat([BitString([1, 0]), BitString([1])])
        assert c == BitString([1, 0, 1])

    def test_agreement(self):
        a = BitString([1, 1, 0, 0])
        b = BitString([1, 0, 0, 0])
        assert a.agreement(b) == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitString([1, 0]) ^ BitString([1])

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_pack_unpack_roundtrip(self, bits):
        assert BitString(bits).to_array().tolist() == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_xor_involution(self, bits):
        a = BitString(bits)
        assert (a ^ a) == BitString.zeros(len(a))


# ------------------------------------------------------------ construction


# sha256 of to_alist(ldpc_generate(n, seed)), recorded from the original
# construction (full-graph BFS per edge).  The check-to-check table, the
# component labels that answer the unreachable case without a search and the
# leaner BFS all grow these same codes; any rewrite must grow them too
PEG_DIGESTS = {
    (8, 1): "0eeca1fb85547679b81cfd9ce3610c53eee2222849aa3e7d95d155dbd07736dd",
    (8, 2): "9e1831c62556f1f580ef44f7cc197d0a5d939d39d1439a553ea6ec89509e243b",
    (8, 3): "b006427a4ba01d0ce93b83e2469edb15907d9f40a359b275d661c71f1453e0c6",
    (48, 1): "f17ece93ebb1c5754fb27067f64b9615e4a88b01de0ad9b32390ffec2c17f837",
    (48, 2): "96a9890a6ad89c3627772aba7390ff4326978a9c85acb3993d84ccca6e5fc78c",
    (48, 3): "ab3d558457168e44a47bd4c97822adf3f6f735ee9ce663bd1951507ff610a995",
    (400, 1): "3ef90db58d846a740344bb0a7d940fa3390c6adff89f0a0b15fa737d0fde0847",
    (400, 2): "dc3c4883ccb61dc17325a2cd7b9c995de001fb1aae2d678732c96bf1ee7f5805",
    (400, 3): "5878d2fdf1e3a110fd9359262545708edbe7b0c687afa578502686e51a3c64e8",
    (1024, 1): "ac432b7236a1bd328ed1834ff1e41e6b29b87f75c160b33ac81716fbda32e555",
    (1024, 2): "ac75f419dafaffade49a2b356f349b979535f1e55df87b7dc010c97fa16ef45f",
    (1024, 3): "db34e178d98569b9290f480cf2db803158c3c5138a537e922be5938bea13b8f3",
    (4096, 4096): "260d948b5f417c787e0ff62ec101f82353f52a7505c78611638f5d3a68c9139e",
}


def _alist_digest(code):
    return hashlib.sha256(to_alist(code).encode()).hexdigest()


class TestLdpcGenerate:
    def test_shape_and_degrees_n400(self, code400):
        assert code400.n == 400
        assert code400.chk_nbrs.shape == (200, 6)
        assert code400.n_edges == 1200
        counts = np.bincount(code400.edge_var, minlength=400)
        assert (counts == 3).all()

    def test_smallest_size_valid(self, code8):
        assert code8.chk_nbrs.shape == (4, 6)
        counts = np.bincount(code8.edge_var, minlength=8)
        assert (counts == 3).all()
        # no duplicate edges even at this degenerate size
        for row in code8.chk_nbrs:
            assert len(set(row.tolist())) == 6

    def test_deterministic_under_seed(self):
        a = ldpc_generate(48, seed=7)
        b = ldpc_generate(48, seed=7)
        assert np.array_equal(a.chk_nbrs, b.chk_nbrs)
        c = ldpc_generate(48, seed=8)
        assert not np.array_equal(a.chk_nbrs, c.chk_nbrs)

    def test_no_four_cycles_at_realistic_size(self, code400):
        # a 4-cycle is two checks sharing two variables
        seen = {}
        for c in range(code400.n_checks):
            row = code400.chk_nbrs[c]
            for i in range(6):
                for j in range(i + 1, 6):
                    pair = (int(row[i]), int(row[j]))
                    assert pair not in seen, f"4-cycle: checks {seen.get(pair)} and {c}"
                    seen[pair] = c

    def test_code4096_matches_recorded_digest(self, code4096):
        assert _alist_digest(code4096) == PEG_DIGESTS[(4096, 4096)]

    @pytest.mark.parametrize("n, seed", [k for k in PEG_DIGESTS if k[0] < 4096])
    def test_matches_recorded_digest(self, n, seed):
        assert _alist_digest(ldpc_generate(n, seed)) == PEG_DIGESTS[(n, seed)]

    def test_no_four_cycles_at_benchmark_size(self, code4096):
        # every check's 15 variable pairs, each encoded as one integer, are
        # distinct across checks exactly when no two checks share two variables
        i, j = np.triu_indices(6, k=1)
        rows = code4096.chk_nbrs
        keys = (rows[:, i] * code4096.n + rows[:, j]).ravel()
        assert np.unique(keys).size == keys.size == 15 * code4096.n_checks

    def test_infeasible_n_rejected(self):
        with pytest.raises(ConstructionError):
            ldpc_generate(10, seed=0)
        with pytest.raises(ConstructionError):
            ldpc_generate(4, seed=0)


def _partial_graph(n, m, edges):
    """Per-variable checks and check-to-check table of a partial Tanner graph.

    Edges are placed in order, as ldpc_generate places them: each new edge
    (v, c) links c with every earlier check of v, in both directions.
    """
    var_checks = [[] for _ in range(n)]
    chk_adj = np.full((m, 12), -1, dtype=np.int64)
    fill = np.zeros(m, dtype=np.int64)
    for v, c in edges:
        for other in var_checks[v]:
            chk_adj[c, fill[c]] = other
            chk_adj[other, fill[other]] = c
            fill[c] += 1
            fill[other] += 1
        var_checks[v].append(c)
    return [np.array(cs, dtype=np.int64) for cs in var_checks], chk_adj


class TestFarthestOpenChecks:
    # a tree from variable 0: check 0 at distance 1, checks 1 and 2 at
    # distance 3, checks 3 and 4 at distance 5; check 5 has no edges
    EDGES = [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2), (3, 1), (4, 2), (3, 3), (4, 4)]

    def _pool(self, open_checks, edges=EDGES):
        var_checks, chk_adj = _partial_graph(6, 6, edges)
        is_open = np.zeros(6, dtype=bool)
        is_open[open_checks] = True
        return reconcile._farthest_open_checks(var_checks[0], chk_adj, is_open).tolist()

    def test_unreachable_open_checks_win(self):
        assert self._pool([1, 3, 5]) == [5]
        assert self._pool([1, 2, 3, 4, 5]) == [5]

    def test_all_reachable_returns_the_farthest_level(self):
        assert self._pool([1, 3, 4]) == [3, 4]
        assert self._pool([4, 1]) == [4]
        assert self._pool([2, 1]) == [1, 2]

    def test_no_edges_yet_returns_every_open_check(self):
        var_checks, chk_adj = _partial_graph(6, 6, [])
        is_open = np.array([True, False, True, True, False, True])
        pool = reconcile._farthest_open_checks(var_checks[0], chk_adj, is_open)
        assert pool.tolist() == [0, 2, 3, 5]

    def test_duplicate_slots_leave_the_pool_unchanged(self):
        # variable 5 closes a 4-cycle: checks 1 and 3 then share variables 3
        # and 5, so each lists the other twice, at the same distances
        edges = self.EDGES + [(5, 1), (5, 3)]
        _, chk_adj = _partial_graph(6, 6, edges)
        assert chk_adj[1].tolist().count(3) == 2 and chk_adj[3].tolist().count(1) == 2
        for open_checks in ([1, 3, 5], [1, 2, 3, 4, 5], [1, 3, 4], [4, 1], [2, 1]):
            assert self._pool(open_checks, edges) == self._pool(open_checks)


def _reachable(start, chk_adj):
    """Checks reachable from ``start`` over ``chk_adj``, by a plain traversal."""
    seen, todo = set(start), list(start)
    while todo:
        for d in chk_adj[todo.pop()].tolist():
            if d >= 0 and d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def _grow_by_search(n, seed):
    """The check table of ldpc_generate(n, seed), grown with a search for every edge.

    Component labels are kept beside the search and merged as ldpc_generate
    merges them.  Before each edge of a variable that already has checks,
    the open checks outside the variable's component must be exactly those
    a plain traversal cannot reach, and, when there are any, the pool that
    ``_farthest_open_checks`` returns.
    """
    m = n // 2
    rng = np.random.default_rng(seed)
    chk_nbrs = np.full((m, 6), -1, dtype=np.int64)
    deg = np.zeros(m, dtype=np.int64)
    chk_adj = np.full((m, 12), -1, dtype=np.int64)
    fill = np.zeros(m, dtype=np.int64)
    comp = np.arange(m)
    for v in range(n):
        v_checks = []
        for _ in range(3):
            is_open = deg < 6
            is_open[v_checks] = False
            if not is_open.any():
                raise ConstructionError(f"no attachable check for variable {v}")
            pool = reconcile._farthest_open_checks(np.array(v_checks, dtype=np.int64), chk_adj, is_open)
            if v_checks:
                outside = (is_open & (comp != comp[v_checks[0]])).nonzero()[0].tolist()
                reach = _reachable(v_checks, chk_adj)
                assert outside == [c for c in np.flatnonzero(is_open).tolist() if c not in reach]
                if outside:
                    assert pool.tolist() == outside
            degs = deg[pool]
            pool = pool[degs == degs.min()]
            c = int(pool[rng.integers(pool.size)])
            chk_nbrs[c, deg[c]] = v
            deg[c] += 1
            for other in v_checks:
                chk_adj[c, fill[c]] = other
                chk_adj[other, fill[other]] = c
                fill[c] += 1
                fill[other] += 1
            if v_checks:
                comp[comp == comp[c]] = comp[v_checks[0]]
            v_checks.append(c)
    return np.sort(chk_nbrs, axis=1)


class TestComponentShortcut:
    # ldpc_generate skips the search when some open checks lie outside the
    # variable's component; growing with a search for every edge must give
    # the same pools and the same code
    @given(st.integers(2, 32), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_labels_give_the_search_pool(self, quarter, seed):
        n = 4 * quarter
        assert np.array_equal(_grow_by_search(n, seed), ldpc_generate(n, seed).chk_nbrs)


# ---------------------------------------------------------------- syndrome


class TestSyndrome:
    def test_all_zero(self, code400):
        assert syndrome(code400, BitString.zeros(400)) == BitString.zeros(200)

    def test_matches_dense_gf2_product(self, code8):
        rng = np.random.default_rng(3)
        H = np.zeros((4, 8), dtype=np.int64)
        for c in range(4):
            H[c, code8.chk_nbrs[c]] = 1
        for _ in range(20):
            x = rng.integers(0, 2, size=8)
            assert syndrome(code8, BitString(x)).to_array().tolist() == ((H @ x) % 2).tolist()

    def test_hand_dense_example(self):
        # dense-form sanity of the GF(2) product definition itself
        H = np.array([[1, 1, 0], [0, 1, 1]])
        x = np.array([1, 0, 1])
        assert ((H @ x) % 2).tolist() == [1, 1]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_linearity(self, code8, sx, sy):
        rng = np.random.default_rng([sx, sy])
        x = BitString(rng.integers(0, 2, size=8))
        y = BitString(rng.integers(0, 2, size=8))
        assert syndrome(code8, x ^ y) == syndrome(code8, x) ^ syndrome(code8, y)

    def test_length_mismatch(self, code8):
        with pytest.raises(ValueError):
            syndrome(code8, BitString.zeros(9))


# ---------------------------------------------------------------- decoding


def _bsc_llrs(x_arr, crossover, rng):
    flips = rng.random(x_arr.size) < crossover
    y = x_arr ^ flips
    mag = np.log((1 - crossover) / crossover)
    return (1.0 - 2.0 * y) * mag


class TestDecodeSyndrome:
    def test_noiseless_decodes_immediately(self, code400, rng):
        x = BitString(rng.integers(0, 2, size=400))
        s = syndrome(code400, x)
        llr = (1.0 - 2.0 * x.to_array()) * reconcile.LLR_CLAMP
        res = decode_syndrome(code400, s, llr)
        assert res.success and res.iterations == 0
        assert res.bits == x

    def test_infinite_llrs_accepted(self, code400, rng):
        x = BitString(rng.integers(0, 2, size=400))
        llr = np.where(x.to_array() == 0, np.inf, -np.inf)
        res = decode_syndrome(code400, syndrome(code400, x), llr)
        assert res.success and res.bits == x

    def test_bsc_5pct_high_success_long_block(self, code4096):
        # (3,6) sum-product threshold for a BSC sits near 8.4% crossover,
        # so 5% should essentially always converge at this length
        rng = np.random.default_rng(50)
        ok = 0
        blocks = 50
        for _ in range(blocks):
            x = rng.integers(0, 2, size=4096)
            s = syndrome(code4096, BitString(x))
            res = decode_syndrome(code4096, s, _bsc_llrs(x, 0.05, rng), max_iter=50)
            ok += res.success and res.bits == BitString(x)
        assert ok >= 0.99 * blocks

    def test_failure_reports_iterations_and_decision(self, code400, rng):
        x = rng.integers(0, 2, size=400)
        s = syndrome(code400, BitString(x))
        llr = _bsc_llrs(x, 0.45, rng)  # far beyond any decodable noise level
        res = decode_syndrome(code400, s, llr, max_iter=12)
        assert not res.success
        assert res.iterations == 12
        assert len(res.bits) == 400

    def test_coset_covariance(self, code400, rng):
        # decoding syndrome s(x)^s(d) with LLRs sign-flipped on d recovers
        # decode(s(x), llr) ^ d
        x = rng.integers(0, 2, size=400)
        d = rng.integers(0, 2, size=400)
        llr = _bsc_llrs(x, 0.04, rng)
        s_x = syndrome(code400, BitString(x))
        s_d = syndrome(code400, BitString(d))
        base = decode_syndrome(code400, s_x, llr)
        shifted = decode_syndrome(code400, s_x ^ s_d, llr * (1.0 - 2.0 * d))
        assert base.success and shifted.success
        assert shifted.bits == base.bits ^ BitString(d)

    def test_fer_monotone_in_channel_quality(self, code4096):
        rng = np.random.default_rng(99)
        fers = []
        for crossover in (0.02, 0.05, 0.08, 0.11):
            fails = 0
            blocks = 20
            for _ in range(blocks):
                x = rng.integers(0, 2, size=4096)
                s = syndrome(code4096, BitString(x))
                res = decode_syndrome(code4096, s, _bsc_llrs(x, crossover, rng))
                fails += not (res.success and res.bits == BitString(x))
            fers.append(fails / blocks)
        assert all(a <= b for a, b in zip(fers, fers[1:])), fers

    def test_bad_shapes_rejected(self, code8):
        with pytest.raises(ValueError):
            decode_syndrome(code8, BitString.zeros(4), np.zeros(7))
        with pytest.raises(ValueError):
            decode_syndrome(code8, BitString.zeros(5), np.zeros(8))


def _awgn_coset_decode(code, sigma, zero_frac, max_iter, seed):
    # BPSK over AWGN at noise std sigma, a fraction of the LLRs erased to
    # exactly 0, decoded in the coset of x's (nonzero) syndrome
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=code.n)
    y = (1.0 - 2.0 * x) + sigma * rng.standard_normal(code.n)
    llr = np.clip(2.0 * y / sigma**2, -reconcile.LLR_CLAMP, reconcile.LLR_CLAMP)
    llr[rng.random(code.n) < zero_frac] = 0.0
    syn = syndrome(code, BitString(x)).to_array()
    return _kernels.bp_syndrome_decode(code.edge_var, reconcile.CHECK_DEGREE, code.n, syn, llr,
                                       max_iter)


# (ok, iterations, sha256 of repr((ok, iterations)) + hard-decision bytes)
# of one _kernels.bp_syndrome_decode call, recorded from the cumprod kernel;
# keyed by (code fixture, sigma, zero_frac, max_iter, seed)
BP_DIGESTS = {
    ('code400', 0.7, 0.0, 50, 0): (True, 4, "60b40fdab4e58a51e7cde01eaa6981bbc85d04fbe927fa63a4073b392c5a7ba9"),
    ('code400', 0.7, 0.0, 50, 1): (True, 2, "81d346fb3c8bd4a331070f0a26c5d3ec646491ce16d43112173c0dce515316ec"),
    ('code400', 0.85, 0.0, 50, 0): (True, 27, "a3a0a48dd3bdc93ed15036c0f3488fdbcca0c51958918334e55fbe24e2ab6969"),
    ('code400', 0.85, 0.0, 50, 1): (True, 4, "fff664a92424b344caa8775c9e34605e45bd53d5dae704ef84552099af1c1da6"),
    ('code400', 1.0, 0.0, 50, 0): (False, 50, "8c9e6960d207d61cbd5f274f2aeb17d4633edc5f35af9fbf6c5289cb42cfca4f"),
    ('code400', 1.0, 0.0, 50, 1): (False, 50, "3e0db810e73a59babbf6dd0adf9696b71b22f9de696b7f0e9f522e208bf632ac"),
    ('code400', 0.8, 0.1, 50, 2): (True, 11, "dcfc92debfac9d36705c13e240d9e38922f4bff3a0e9c486d04b253a8813a3f2"),
    ('code400', 0.95, 0.0, 8, 3): (False, 8, "5e5a6f5d3c027c3c3711ec4e9b2663a212f264d5a59ef1853afd12b9c051260f"),
    ('code400', 1.2, 0.05, 50, 4): (False, 50, "da76320f76f729c445a5cebac2e6483d5b7ae13c50f562d04640fd377bef16d8"),
    ('code4096', 0.8, 0.0, 50, 0): (True, 10, "6c9dad4b932fe845d9d9ce7b953e5628b99d324a9c9100bac61ce300e820b09d"),
    ('code4096', 0.88, 0.0, 50, 0): (False, 50, "53e4baf004490c6b0ee21298c06345d2e12f93523952920aae79858d7dbe35b0"),
    ('code4096', 0.95, 0.0, 50, 0): (False, 50, "3598b932679f2e8d70d837b6b1928cc0380908f37b583b8a04892506b4ae4c96"),
    ('code4096', 0.84, 0.0, 50, 2): (True, 16, "9bf40fefad13f7a239d848b24fdd1f3ec3521f618f1e714e439db4d3835beb2d"),
    ('code4096', 0.8, 0.05, 50, 1): (True, 15, "0cded7e7e2349dade0be204ec06f1c1c865ea507b40367f00b89c14b3f736c5e"),
    ('code4096', 0.85, 0.05, 50, 1): (False, 50, "6af3d82ccc3f102ed40faa8315beafd2b71902515565b0b019dfcc84d92dcd84"),
}


class TestBpKernelDigests:
    @pytest.mark.parametrize("code_name, sigma, zero_frac, max_iter, seed", list(BP_DIGESTS))
    def test_matches_recorded_digest(self, request, code_name, sigma, zero_frac, max_iter, seed):
        ok, iters, hard = _awgn_coset_decode(request.getfixturevalue(code_name), sigma, zero_frac,
                                             max_iter, seed)
        h = hashlib.sha256(repr((bool(ok), int(iters))).encode())
        h.update(np.asarray(hard, dtype=np.uint8).tobytes())
        assert (ok, iters, h.hexdigest()) == BP_DIGESTS[code_name, sigma, zero_frac, max_iter, seed]

    def test_grid_covers_failed_and_erased_decodes(self):
        failed = [k for k, (ok, it, _) in BP_DIGESTS.items() if not ok and it == k[3]]
        erased = [k for k in BP_DIGESTS if k[2] > 0]
        assert failed and erased
        assert {k[0] for k in BP_DIGESTS} == {"code400", "code4096"}


class TestCheckNodeUpdate:
    """Byte-level gate on the check-node messages, which the decode-output
    gates cannot see: BP absorbs a 1-ulp message change."""

    @pytest.mark.parametrize("chk_deg", [3, reconcile.CHECK_DEGREE, 8])
    def test_messages_match_cumprod_formula_bytes(self, chk_deg):
        m = 4000
        rng = np.random.default_rng(chk_deg)
        v2c = rng.normal(0.0, 6.0, m * chk_deg)
        v2c[rng.random(v2c.size) < 0.05] = 0.0  # erased inputs: tanh = 0
        v2c[rng.random(v2c.size) < 0.05] = _kernels.CLAMP  # clamped: tanh within 2e-13 of 1
        sign = rng.choice([-1.0, 1.0], size=(m, 1))
        got = _kernels.check_node_update(v2c, sign, _kernels.check_node_buffers(m, chk_deg))

        t = np.tanh(v2c.reshape(m, chk_deg) * 0.5)
        ones = np.ones((m, 1))
        pre = np.cumprod(np.hstack([ones, t[:, :-1]]), axis=1)
        suf = np.cumprod(np.hstack([ones, t[:, :0:-1]]), axis=1)[:, ::-1]
        want = np.clip(2.0 * np.arctanh(pre * suf) * sign, -_kernels.CLAMP, _kernels.CLAMP)
        assert got.tobytes() == want.tobytes()


class TestReferenceEquivalence:
    def test_zero_syndrome_bit_exact_vs_reference(self, code400):
        # the packaged kernel must reproduce an independently structured
        # all-zero-coset decode bit for bit
        alist = to_alist(code400)
        rng = np.random.default_rng(2024)
        for trial in range(20):
            llr = rng.normal(1.2, 1.8, size=400)  # all-zero codeword over AWGN-ish noise
            ok_r, it_r, hard_r = reference_decode(alist, np.zeros(200, np.uint8), llr)
            res = decode_syndrome(code400, BitString.zeros(200), llr)
            assert res.success == ok_r and res.iterations == it_r, f"trial {trial}"
            assert res.bits.to_array().tolist() == hard_r.tolist(), f"trial {trial}"

    def test_nonzero_syndrome_bit_exact_vs_reference(self, code400, rng):
        alist = to_alist(code400)
        x = rng.integers(0, 2, size=400)
        s = syndrome(code400, BitString(x))
        llr = _bsc_llrs(x, 0.06, rng)
        ok_r, it_r, hard_r = reference_decode(alist, s.to_array(), llr)
        res = decode_syndrome(code400, s, llr)
        assert res.success == ok_r and res.iterations == it_r
        assert res.bits.to_array().tolist() == hard_r.tolist()


# ---------------------------------------------------- privacy amplification


class TestPrivacyAmplify:
    def test_shape_and_determinism(self):
        b = BitString(np.arange(40) % 2)
        out1 = privacy_amplify(b, 16, seed=5)
        out2 = privacy_amplify(b, 16, seed=5)
        assert len(out1) == 16 and out1 == out2
        assert privacy_amplify(b, 16, seed=6) != out1  # overwhelmingly likely

    def test_out_len_boundaries(self):
        b = BitString([1, 0, 1])
        assert len(privacy_amplify(b, 0, seed=0)) == 0
        assert len(privacy_amplify(b, 3, seed=0)) == 3
        with pytest.raises(ValueError):
            privacy_amplify(b, 4, seed=0)

    @given(st.integers(0, 10_000), st.integers(1, 24), st.integers(1, 24))
    @settings(max_examples=40)
    def test_matches_dense_toeplitz(self, seed, L, out_len):
        if out_len > L:
            out_len = L
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=L)
        out = privacy_amplify(BitString(bits), out_len, seed=seed)
        t = np.random.default_rng(seed).integers(0, 2, size=out_len + L - 1, dtype=np.int64)
        T = np.array([[t[i - j + L - 1] for j in range(L)] for i in range(out_len)])
        assert out.to_array().tolist() == ((T @ bits) % 2).tolist()

    @pytest.mark.parametrize("L", [1, 2, 7, 1000, 12_311, 200_000])
    @pytest.mark.parametrize("part", ["zero", "one", "fifth", "all"])
    def test_fft_product_matches_direct_convolution(self, L, part):
        # the hash's Toeplitz product against the direct integer convolution
        # it replaced: conv(t, x)[L-1 : L-1+out_len] mod 2, bit for bit.
        # Row block [i0, i1) of it is np.convolve(t[i0 : i1+L-1], x, "valid").
        # A full direct product at L = 200k takes ~40 s, so above 2e8 cells
        # the reference covers 1024-row blocks at the start, middle and end.
        out_len = {"zero": 0, "one": 1, "fifth": L // 5, "all": L}[part]
        rng = np.random.default_rng([L, out_len])
        x = rng.integers(0, 2, size=L, dtype=np.int64)
        out = privacy_amplify(BitString(x), out_len, seed=L + out_len).to_array()
        assert out.size == out_len
        t = np.random.default_rng(L + out_len).integers(0, 2, size=out_len + L - 1, dtype=np.int64)
        if out_len == 0:
            blocks = []
        elif L * out_len <= 2e8:
            blocks = [(0, out_len)]
        else:
            mid = out_len // 2
            blocks = [(0, 1024), (mid - 512, mid + 512), (out_len - 1024, out_len)]
        for i0, i1 in blocks:
            ref = np.convolve(t[i0 : i1 + L - 1], x, "valid") & 1
            assert np.array_equal(out[i0:i1], ref)

    def test_collision_rate_matches_universal_hash_bound(self):
        # for fixed distinct inputs, a random Toeplitz hash collides with
        # probability exactly 2^-out_len
        rng = np.random.default_rng(11)
        x = BitString(rng.integers(0, 2, size=16))
        y = BitString(rng.integers(0, 2, size=16))
        assert x != y
        out_len, n_seeds = 6, 4000
        hits = sum(
            privacy_amplify(x, out_len, seed=s) == privacy_amplify(y, out_len, seed=s)
            for s in range(n_seeds)
        )
        p = hits / n_seeds
        se = (2**-out_len * (1 - 2**-out_len) / n_seeds) ** 0.5
        assert abs(p - 2**-out_len) < 4 * se + 1e-12


# ------------------------------------------------------------------- alist


class TestAlist:
    def test_roundtrip(self, code400):
        again = from_alist(to_alist(code400))
        assert again.n == 400
        assert np.array_equal(again.chk_nbrs, code400.chk_nbrs)

    def test_header_shape(self, code8):
        lines = to_alist(code8).splitlines()
        assert lines[0] == "8 4"
        assert lines[1] == "3 6"
        assert len(lines) == 4 + 8 + 4

    def test_header_with_wrong_check_count_rejected(self, code8):
        lines = to_alist(code8).splitlines()
        lines[0] = "8 5"
        with pytest.raises(ValueError, match="expected n/2"):
            from_alist("\n".join(lines))

    def test_out_of_range_index_rejected(self, code8):
        lines = to_alist(code8).splitlines()
        row = lines[-1].split()
        row[0] = "99"
        lines[-1] = " ".join(row)
        with pytest.raises(ValueError, match="outside 1..8"):
            from_alist("\n".join(lines))

    def test_truncated_after_degree_line_rejected(self, code8):
        lines = to_alist(code8).splitlines()
        with pytest.raises(ValueError, match="lines, expected 16"):
            from_alist("\n".join(lines[:4]))

    def test_var_nbrs_match_a_per_check_loop(self, code400):
        ref = [[] for _ in range(code400.n)]
        for c, row in enumerate(code400.chk_nbrs.tolist()):
            for v in row:
                ref[v].append(c)
        assert code400.var_nbrs() == ref

    def test_irregular_variable_degrees_rejected(self, code8):
        # move one edge of variable a onto a variable b outside its check: a
        # then lies on two edges and b on four, yet every line keeps its
        # (3, 6) length and the variable lines are the check table's edges
        # grouped three at a time, in variable order
        chk = code8.chk_nbrs.copy()
        a = int(chk[0, 0])
        b = next(v for v in range(8) if v not in chk[0])
        chk[0, 0] = b
        var_rows = (np.argsort(chk.ravel(), kind="stable") // 6).reshape(8, 3) + 1
        lines = ["8 4", "3 6", " ".join(["3"] * 8), " ".join(["6"] * 4)]
        lines += [" ".join(map(str, r)) for r in var_rows.tolist()]
        lines += [" ".join(map(str, r)) for r in (np.sort(chk, axis=1) + 1).tolist()]
        assert np.bincount(chk.ravel(), minlength=8)[[a, b]].tolist() == [2, 4]
        with pytest.raises(ValueError, match="variable degrees"):
            from_alist("\n".join(lines))
