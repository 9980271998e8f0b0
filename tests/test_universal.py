"""Tests for the distribution-free conversion pipeline.

Hand-traced conversion examples are frozen from independent derivations;
the heuristic-LLR worked values are checked bit-exactly with rational
arithmetic.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, norm

from fadekey import universal
from fadekey.universal import (
    UniversalConfig,
    bin_counts,
    fixed_point_convert,
    heuristic_llr,
    rank_convert,
    rescale_llr,
    run_universal_system,
    uniform_quantize,
)


class TestRankConvert:
    def test_hand_example(self):
        u = rank_convert([3.2, -1.0, 0.5])
        assert np.array_equal(u.values, np.array([2 / 3, 0.0, 1 / 3]))
        assert u.resolution_bits == 0

    def test_tie_breaks_by_index(self):
        u = rank_convert([1.0, 1.0])
        assert np.array_equal(u.values, np.array([0.0, 0.5]))

    def test_sorted_input_is_identity_grid(self):
        n = 17
        u = rank_convert(np.linspace(-3, 3, n))
        assert np.array_equal(u.values, np.arange(n) / n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_convert([])

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_always_a_permutation_of_the_grid(self, xs):
        u = rank_convert(xs)
        n = len(xs)
        assert np.array_equal(np.sort(u.values), np.arange(n) / n)


class TestBinCounts:
    def test_hand_examples(self):
        assert bin_counts(10, 4).tolist() == [2, 3, 2, 3]
        assert bin_counts(8, 4).tolist() == [2, 2, 2, 2]
        assert bin_counts(7, 1).tolist() == [7]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            bin_counts(0, 4)
        with pytest.raises(ValueError):
            bin_counts(4, 0)

    @given(st.integers(1, 10_000), st.integers(1, 256))
    @settings(max_examples=200)
    def test_partition_properties(self, n, M):
        c = bin_counts(n, M)
        assert c.sum() == n
        assert c.max() - c.min() <= 1
        assert np.array_equal(np.cumsum(c), (np.arange(1, M + 1) * n) // M)


class TestFixedPointConvert:
    def test_five_samples_two_bits(self):
        u = fixed_point_convert(np.arange(5.0), A=2)
        assert np.array_equal(u.values, np.array([0.0, 0.25, 0.5, 0.75, 0.75]))

    def test_exact_division(self):
        u = fixed_point_convert(np.arange(4.0), A=2)
        assert np.array_equal(u.values, np.array([0.0, 0.25, 0.5, 0.75]))

    def test_unsorted_association(self):
        u = fixed_point_convert([5.0, 1.0, 3.0], A=1)
        assert np.array_equal(u.values, np.array([0.5, 0.0, 0.5]))

    def test_tie_keeps_index_order(self):
        u = fixed_point_convert([1.0, 1.0], A=1)
        assert np.array_equal(u.values, np.array([0.0, 0.5]))

    def test_resolution_recorded(self):
        assert fixed_point_convert([0.4, 0.2], A=3).resolution_bits == 3

    @given(st.integers(1, 300), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_occupancies_match_bin_counts(self, n, A, seed):
        xs = np.random.default_rng(seed).normal(size=n)
        u = fixed_point_convert(xs, A)
        levels = np.round(u.values * 2**A).astype(int)
        occ = np.bincount(levels, minlength=2**A)
        assert np.array_equal(occ, bin_counts(n, 2**A))


class TestUniformQuantize:
    def test_worked_example(self):
        bits, e = uniform_quantize(0.7, 1)
        assert bits.tolist() == [1]
        assert e == pytest.approx(0.2)

    def test_zero_input(self):
        bits, e = uniform_quantize(0.0, 3)
        assert bits.tolist() == [0, 0, 0]
        assert e == 0.0

    def test_exact_rational_error(self):
        bits, e = uniform_quantize(Fraction(7, 10), 1)
        assert bits.tolist() == [1]
        assert e == Fraction(1, 5)

    def test_cell_boundary(self):
        bits, e = uniform_quantize(0.25, 2)
        assert bits.tolist() == [0, 1]
        assert e == 0.0

    def test_fixed_point_prefix_identity(self):
        # quantizing j/2^A to v bits must reproduce the first v bits of the
        # A-bit Gray pattern, with e encoded by the remaining A-v bits
        A, v = 5, 2
        for j in range(1 << A):
            bits, e = uniform_quantize(j / 2**A, v)
            g = j ^ (j >> 1)
            expect = [(g >> (A - i)) & 1 for i in range(1, v + 1)]
            assert bits.tolist() == expect
            assert e == (j % 2 ** (A - v)) / 2**A

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            uniform_quantize(1.0, 2)
        with pytest.raises(ValueError):
            uniform_quantize(-0.01, 2)
        with pytest.raises(ValueError):
            uniform_quantize(0.3, 0)

    @pytest.mark.parametrize("v", [1, 2, 4])
    def test_array_matches_scalar_calls(self, v):
        u = np.random.default_rng(v).random(40)
        bits, e = uniform_quantize(u, v)
        assert bits.shape == (40, v) and bits.dtype == np.uint8
        assert e.shape == (40,)
        for i, x in enumerate(u):
            b, ei = uniform_quantize(x, v)
            assert b.shape == (v,)
            assert np.array_equal(bits[i], b) and e[i] == ei
        grid_bits, grid_e = uniform_quantize(u.reshape(5, 8), v)
        assert np.array_equal(grid_bits, bits.reshape(5, 8, v))
        assert np.array_equal(grid_e, e.reshape(5, 8))

    def test_fraction_array_stays_exact(self):
        u = np.array([Fraction(7, 10), Fraction(1, 3), Fraction(0)], dtype=object)
        bits, e = uniform_quantize(u, 2)
        assert bits.tolist() == [[1, 1], [0, 1], [0, 0]]
        assert e.tolist() == [Fraction(1, 5), Fraction(1, 12), Fraction(0)]
        assert all(isinstance(x, Fraction) for x in e)

    @pytest.mark.parametrize("bad", [1.0, -0.01, np.nan])
    def test_one_element_out_of_range_rejected(self, bad):
        u = np.full(10, 0.5)
        u[7] = bad
        with pytest.raises(ValueError, match="u must lie in"):
            uniform_quantize(u, 2)


def _gray_bits(cell, v):
    g = cell ^ (cell >> 1)
    return [(g >> (v - i)) & 1 for i in range(1, v + 1)]


class TestHeuristicLlr:
    def test_worked_examples_exact(self):
        (l1,) = heuristic_llr(Fraction(3, 10), Fraction(1, 5), 1)
        assert l1 == Fraction(3, 10)
        (l1,) = heuristic_llr(Fraction(1, 2), Fraction(1, 5), 1)
        assert l1 == Fraction(-1, 10)

    def test_worked_examples_float(self):
        assert heuristic_llr(0.3, 0.2, 1)[0] == pytest.approx(0.3)
        assert heuristic_llr(0.5, 0.2, 1)[0] == pytest.approx(-0.1)

    def test_noiseless_signs_match_gray_bits(self):
        # V equal to Alice's uniform sample: every LLR sign must agree with
        # the transmitted Gray bit (positive <-> 0), checked exhaustively on
        # an off-boundary dyadic grid
        for v in (1, 2, 3):
            for k in range(1 << 10):
                u = (2 * k + 1) / (1 << 11)
                cell = int(u * (1 << v))
                e = u - cell / (1 << v)
                llr = heuristic_llr(u, e, v)
                bits = _gray_bits(cell, v)
                for b, l in zip(bits, llr):
                    assert (l > 0) == (b == 0)

    def test_noiseless_llrs_within_unit_range(self):
        # matched (V = U) inputs keep the raw values inside [-1, 1]; with a
        # free V the folding can exceed the unit range, which is why the
        # operational pipeline rescales and the decoder clamps
        worst = 0.0
        for v in (1, 2, 3, 4):
            for k in range(1 << 9):
                u = (2 * k + 1) / (1 << 10)
                cell = int(u * (1 << v))
                llr = heuristic_llr(u, u - cell / (1 << v), v)
                worst = max(worst, np.abs(llr).max())
        assert worst <= 1.0

    def test_upper_half_fold_example(self):
        # U = 0.6, v = 2: cell 2, Gray bits (1, 1), so both LLRs negative
        llr = heuristic_llr(0.6, 0.1, 2)
        assert llr[0] < 0 and llr[1] < 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            heuristic_llr(1.0, 0.1, 2)
        with pytest.raises(ValueError):
            heuristic_llr(0.3, 0.25, 2)
        with pytest.raises(ValueError):
            heuristic_llr(0.3, 0.1, 0)

    @given(
        st.lists(st.tuples(st.integers(0, 2**10 - 1), st.integers(0, 2**6 - 1)),
                 min_size=1, max_size=8),
        st.integers(1, 4),
    )
    @settings(max_examples=150)
    def test_matches_fraction_reference(self, draws, v):
        # float evaluation on dyadic inputs is exact, so it must agree with
        # rational arithmetic to the last bit; the same draws run as float
        # and Fraction arrays must equal the scalar calls elementwise
        Vs = [Fraction(2 * kv + 1, 1 << 11) for kv, _ in draws]
        Es = [Fraction(2 * ke + 1, 1 << 7) / (1 << v) for _, ke in draws]
        exact = [heuristic_llr(V, E, v) for V, E in zip(Vs, Es)]
        approx = [heuristic_llr(float(V), float(E), v) for V, E in zip(Vs, Es)]
        for x, a in zip(exact, approx):
            assert all(float(b) == c for b, c in zip(x, a))

        fV, fE = np.array(Vs, dtype=np.float64), np.array(Es, dtype=np.float64)
        as_float = heuristic_llr(fV, fE, v)
        assert as_float.shape == (len(draws), v)
        assert as_float.tobytes() == np.array(approx).tobytes()
        as_fraction = heuristic_llr(np.array(Vs, dtype=object), np.array(Es, dtype=object), v)
        assert as_fraction.tolist() == [list(x) for x in exact]
        assert all(isinstance(b, Fraction) for b in as_fraction.ravel())

        # broadcasting: every V against every E
        grid = heuristic_llr(fV[:, None], fE[None, :], v)
        assert grid.shape == (len(draws), len(draws), v)
        for i, V in enumerate(fV):
            for j, E in enumerate(fE):
                assert grid[i, j].tobytes() == heuristic_llr(V, E, v).tobytes()


class TestRescaleLlr:
    def test_identity_and_scaling(self):
        raw = np.array([-1.0, 0.25, 1.0])
        assert np.array_equal(rescale_llr(raw, 1.0), raw)
        assert np.array_equal(rescale_llr(raw, 8.0), raw * 8)

    def test_sign_preserved(self):
        raw = np.array([-0.3, 0.7])
        out = rescale_llr(raw, 123.4)
        assert np.all(np.sign(out) == np.sign(raw))

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            rescale_llr(np.array([0.1]), 0.0)


# sha256 over (decoder LLR bytes, key bytes, repr of (iterations,
# bit_agreement, net_bits, revealed_bits, decode_success)) of one block on
# code400, recorded from the per-sample scalar implementation; keyed by
# (v, snr_db, seed, A) with A = None selecting v + 2
BLOCK_DIGESTS = {
    (1, 5.0, 0, None): "8d2ec894053477110e06b8dff142457a1be6163b4652edab4f86bf6b49e565b9",
    (1, 5.0, 1, None): "e19f965baad15dd6e36600ada4e9fcc754cbfa06cfe12d7e711eb8d20c96fe6c",
    (1, 15.0, 0, None): "2a0f5814ef07ef40148b0db6c6243647d2a07a53d844ccdda95a7385d75d8790",
    (1, 15.0, 1, None): "79774be8106439ebbf6266beb074370e8e862a2faac97c554ca3a7957ea10d57",
    (1, 25.0, 0, None): "7d6fb0595cae340959472947712c92788a4d53bcfe49135ede3511bf01266cac",
    (1, 25.0, 1, None): "66e36f8ddb27496a68b878622a2da22bbbd66e843e2db0ef7ca40d19c8f08fd8",
    (2, 5.0, 0, None): "3ea1ad08393ecf20af234f68864bea62646a72ed1ffb889766094e2e8c982942",
    (2, 5.0, 1, None): "7fc8a2386378cf562d9eb57df893cf1eb8120c4300eaebdd3bafea726258ceb4",
    (2, 15.0, 0, None): "c08be911c748b4556fe9583b42e84dbb5d16e4e8f55253528eae0b47a5e6b9c9",
    (2, 15.0, 1, None): "9173213aaffc4e6f5e4a3d42873fe2dc91007f827cdbc46e1937115df2dda421",
    (2, 25.0, 0, None): "cf3573e12bbf2ddebfbe9ede60ec989aafe4293f6ba03115f44c01d5ecf228e8",
    (2, 25.0, 1, None): "80380a52ecc2e17a5c5160af6583e8e21209700403c5f0e956f3575a8aac9458",
    (4, 5.0, 0, None): "05ffa2880058a8b11fcf1a35dc88e92b4456e6d7ab722967e8cbea0d733ae612",
    (4, 5.0, 1, None): "88910cb98741a91d69427f968b94f1839d37c455a888a42039e5a7baaaecdc45",
    (4, 15.0, 0, None): "e7ebc028641b39ae2fb083f0302bd552ffd415690b596cbf2cbd2972eec5f40e",
    (4, 15.0, 1, None): "97afbdced202dd0dc51f24b251f21031201482150d6d98899ec03910673ba130",
    (4, 25.0, 0, None): "7745ea698179d51e2ba81b4b129ba9dab84f258f737f9623b6f0d9f2f4045f0d",
    (4, 25.0, 1, None): "3967ff40339ba1f416329f3f3a74e1d789dee24dd491c9018a77f042b3dceb6f",
    (2, 15.0, 3, 5): "c9759c5e13f3df6721a897bfc9d1f59bb952de0eaf40aa7e8a73e31ec5131c04",
}


class TestRunUniversalSystem:
    @pytest.mark.parametrize("v, snr_db, seed, A", list(BLOCK_DIGESTS))
    def test_block_matches_recorded_digest(self, code400, monkeypatch, v, snr_db, seed, A):
        llrs = []
        decode = universal.decode_syndrome

        def capture(code, syn, llr):
            llrs.append(np.asarray(llr, dtype=np.float64).tobytes())
            return decode(code, syn, llr)

        monkeypatch.setattr(universal, "decode_syndrome", capture)
        cfg = UniversalConfig(v=v, n_samples=code400.n // v, code=code400, A=A,
                              snr_db=snr_db, seed=seed)
        out = run_universal_system(cfg)
        h = hashlib.sha256(llrs[0])
        h.update(out.key_bits.to_bytes())
        h.update(repr((out.iterations, out.bit_agreement, out.net_bits, out.revealed_bits,
                       out.decode_success)).encode())
        assert h.hexdigest() == BLOCK_DIGESTS[(v, snr_db, seed, A)]

    def test_high_snr_block_yields_full_net_rate(self, code400):
        cfg = UniversalConfig(v=2, n_samples=200, code=code400, snr_db=25.0, seed=5)
        out = run_universal_system(cfg)
        assert out.decode_success
        assert out.net_bits == 200
        assert out.net_rate_bits_per_sample == 1.0
        assert len(out.key_bits) == 200
        assert out.revealed_bits == 200

    def test_identical_traces_decode_immediately(self, code400):
        xs = np.random.default_rng(3).normal(size=200)
        cfg = UniversalConfig(v=2, n_samples=200, code=code400, xs=xs, ys=xs.copy(), seed=1)
        out = run_universal_system(cfg)
        assert out.decode_success
        assert out.iterations == 0
        assert out.bit_agreement == 1.0

    def test_deterministic(self, code400):
        cfg = UniversalConfig(v=2, n_samples=200, code=code400, snr_db=8.0, seed=42)
        a = run_universal_system(cfg)
        b = run_universal_system(cfg)
        assert a.key_bits == b.key_bits
        assert a.net_bits == b.net_bits

    def test_size_mismatch_rejected(self, code400):
        with pytest.raises(ValueError):
            run_universal_system(UniversalConfig(v=2, n_samples=100, code=code400))

    def test_config_rejects_non_finite_values(self, code400):
        good = dict(v=2, n_samples=200, code=code400, seed=0)
        for name, value in (("scale", np.nan), ("scale", np.inf), ("snr_db", np.nan), ("snr_db", -np.inf)):
            with pytest.raises(ValueError, match=name):
                UniversalConfig(**good, **{name: value})
        # an infinite SNR is a noiseless source, on which the block decodes
        assert run_universal_system(UniversalConfig(**good, snr_db=np.inf)).decode_success

    def test_partial_custom_trace_rejected(self, code400):
        with pytest.raises(ValueError):
            run_universal_system(
                UniversalConfig(v=2, n_samples=200, code=code400, xs=np.zeros(200))
            )

    def test_transcript_independent_of_key_bits(self, code400):
        # with A = v + 2 the published error takes four dyadic values; a
        # contingency test of the per-sample MSB against the error value
        # should find no dependence
        xs = np.random.default_rng(11).normal(size=200)
        cfg = UniversalConfig(v=2, n_samples=200, code=code400, xs=xs, ys=xs.copy(), seed=2)
        u = fixed_point_convert(xs, 4)
        msb = np.empty(200, dtype=int)
        evals = np.empty(200)
        for i in range(200):
            bits, e = uniform_quantize(u.values[i], 2)
            msb[i] = bits[0]
            evals[i] = e
        levels = np.round(evals * 16).astype(int)
        table = np.zeros((2, 4))
        for b, l in zip(msb, levels):
            table[b, l] += 1
        _, p, _, _ = chi2_contingency(table)
        assert p >= 0.01

    def test_empirical_cdf_concentration(self):
        # fraction of trials whose sup-distance between the empirical and
        # true CDF exceeds eps obeys the 2*exp(-2*n*eps^2) tail bound
        rng = np.random.default_rng(17)
        n, eps, trials = 100, 0.15, 400
        exceed = 0
        grid = np.arange(n)
        for _ in range(trials):
            xs = np.sort(rng.normal(size=n))
            f = norm.cdf(xs)
            d = max(np.max((grid + 1) / n - f), np.max(f - grid / n))
            exceed += d > eps
        assert exceed / trials <= 2 * np.exp(-2 * n * eps**2) + 0.03
