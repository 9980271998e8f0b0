"""Tests for equiprobable quantization, Gray coding, and the Gaussian key system.

Numerical LLR and boundary references were computed independently with
50-digit arithmetic (mpmath) and are frozen here; statistical regimes were
chosen so every assertion holds with comfortable margin under fixed seeds.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, logsumexp
from scipy.stats import chi2_contingency, kstest, norm

from fadekey import gaussian_keygen
from fadekey._bits import BitString
from fadekey.channel import gen_iid_gaussian_source
from fadekey.gaussian_keygen import (
    GaussianConfig,
    QuantizerSpec,
    _llr_from_logp,
    _log_candidate_probs,
    _log_cell_probs,
    cdf_transform_error,
    equiprobable_boundaries,
    gray_component,
    gray_encode,
    llr_overquantized,
    make_quantizer,
    quantize_and_code,
    run_gaussian_system,
)
from fadekey.reconcile import ldpc_generate

PHI_INV_3_4 = 0.6744897501960817  # standard normal quantile at 3/4


@pytest.fixture(scope="module")
def code240():
    return ldpc_generate(240, seed=240)


class TestEquiprobableBoundaries:
    def test_single_bit_unit_variance(self):
        b = equiprobable_boundaries(1.0, 1)
        assert np.isneginf(b[0]) and np.isposinf(b[-1])
        assert b[1] == 0.0

    def test_single_bit_any_variance(self):
        # the median of a centred Gaussian is 0 regardless of scale
        b = equiprobable_boundaries(4.0, 1)
        assert list(b[1:-1]) == [0.0]

    def test_two_bit_unit_variance(self):
        b = equiprobable_boundaries(1.0, 2)
        np.testing.assert_allclose(b[1:-1], [-PHI_INV_3_4, 0.0, PHI_INV_3_4], atol=1e-12)

    def test_two_bit_scaled(self):
        b = equiprobable_boundaries(1.1, 2)
        np.testing.assert_allclose(
            b[1:-1],
            [-0.70741081800572574163, 0.0, 0.70741081800572574163],
            rtol=1e-12,
        )

    @given(var=st.floats(0.1, 10.0), k=st.integers(1, 6))
    def test_symmetric_and_equiprobable(self, var, k):
        b = equiprobable_boundaries(var, k)
        assert b.shape == (2**k + 1,)
        interior = b[1:-1]
        np.testing.assert_allclose(interior + interior[::-1], 0.0, atol=1e-9)
        masses = np.diff(norm.cdf(b / np.sqrt(var)))
        np.testing.assert_allclose(masses, 2.0**-k, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            equiprobable_boundaries(0.0, 2)
        with pytest.raises(ValueError):
            equiprobable_boundaries(1.0, 0)


class TestQuantizerSpec:
    def test_properties(self):
        spec = make_quantizer(1.0, 2, 1)
        assert spec.total_bits == 3
        assert spec.n_cells == 8
        assert spec.boundaries.shape == (9,)

    def test_rejects_missing_sentinels(self):
        with pytest.raises(ValueError, match="sentinel"):
            QuantizerSpec(1, 0, np.array([-1.0, 0.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="boundaries"):
            QuantizerSpec(2, 0, np.array([-np.inf, 0.0, np.inf]))

    def test_rejects_non_increasing_interior(self):
        with pytest.raises(ValueError, match="increasing"):
            QuantizerSpec(2, 0, np.array([-np.inf, 0.5, 0.0, -0.5, np.inf]))

    def test_rejects_bad_bit_counts(self):
        with pytest.raises(ValueError):
            QuantizerSpec(0, 1, np.array([-np.inf, 0.0, np.inf]))
        with pytest.raises(ValueError):
            QuantizerSpec(1, -1, np.array([-np.inf, 0.0, np.inf]))


class TestGrayCode:
    def test_examples(self):
        assert list(gray_encode(0, 3).to_array()) == [0, 0, 0]
        assert list(gray_encode(2, 3).to_array()) == [0, 1, 1]
        assert list(gray_encode(3, 3).to_array()) == [0, 1, 0]
        assert list(gray_encode(4, 3).to_array()) == [1, 1, 0]

    def test_adjacent_cells_differ_in_one_bit(self):
        for width in (1, 2, 3, 5):
            for j in range(2**width - 1):
                a = gray_encode(j, width).to_array()
                b = gray_encode(j + 1, width).to_array()
                assert int(np.sum(a != b)) == 1

    @given(width=st.integers(1, 8), data=st.data())
    def test_component_matches_codeword(self, width, data):
        j = data.draw(st.integers(0, 2**width - 1))
        word = gray_encode(j, width).to_array()
        for i in range(1, width + 1):
            assert gray_component(j, i, width) == word[i - 1]

    def test_codewords_are_a_permutation(self):
        words = {tuple(gray_encode(j, 4).to_array()) for j in range(16)}
        assert len(words) == 16

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gray_encode(8, 3)
        with pytest.raises(ValueError):
            gray_encode(-1, 3)
        with pytest.raises(ValueError):
            gray_component(0, 0, 3)
        with pytest.raises(ValueError):
            gray_component(0, 4, 3)


class TestQuantizeAndCode:
    def test_single_bit_negative_sample(self):
        spec = make_quantizer(1.0, 1, 0)
        reg, over = quantize_and_code([-0.3], spec)
        assert list(reg.to_array()) == [0]
        assert len(over) == 0

    def test_split_example(self):
        # x = 0.7 exceeds the 3/4 quantile 0.6745, landing in the top cell
        # of four, whose Gray word is 10: kept bit 1, published bit 0
        spec = make_quantizer(1.0, 1, 1)
        reg, over = quantize_and_code([0.7], spec)
        assert list(reg.to_array()) == [1]
        assert list(over.to_array()) == [0]

    def test_shapes(self):
        spec = make_quantizer(1.0, 3, 2)
        reg, over = quantize_and_code(np.linspace(-2, 2, 17), spec)
        assert len(reg) == 17 * 3
        assert len(over) == 17 * 2

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_bits_reconstruct_cell(self, seed):
        spec = make_quantizer(1.0, 2, 1)
        xs = np.random.default_rng(seed).normal(size=8)
        reg, over = quantize_and_code(xs, spec)
        r = reg.to_array().reshape(8, 2)
        o = over.to_array().reshape(8, 1)
        gray = np.concatenate([r, o], axis=1)
        # invert reflected Gray: prefix XOR recovers the plain index
        binary = np.cumsum(gray, axis=1) % 2
        cells = binary @ np.array([4, 2, 1])
        expected = np.searchsorted(spec.boundaries[1:-1], xs, side="right")
        np.testing.assert_array_equal(cells, expected)


# Conditional-cell-mass LLRs for P = 1, N = 0.1 (quantizer variance 1.1),
# computed with 50-digit quadrature over the conditional density.
LLR_OVER_V1M1 = {
    (-2.0, 0): 19.401739768631579,
    (-2.0, 1): 5.8496481365429954,
    (-0.5, 0): 4.2750361948175333,
    (-0.5, 1): 1.366795472202091,
    (0.0, 0): 0.0,
    (0.0, 1): 0.0,
    (0.7, 0): -6.0267321721787231,
    (0.7, 1): -1.9274911232129196,
    (1.8, 0): -17.001101465538694,
    (1.8, 1): -5.2196064709571795,
}


@pytest.fixture(scope="module")
def spec11():
    return make_quantizer(1.1, 1, 1)


class TestLlrOverquantized:
    P, N = 1.0, 0.1

    def test_frozen_reference_values(self, spec11):
        for (y, bit), want in LLR_OVER_V1M1.items():
            got = llr_overquantized(y, np.array([bit]), spec11, self.P, self.N)
            assert got.shape == (1,)
            np.testing.assert_allclose(got[0], want, rtol=1e-9, atol=1e-12)

    def test_accepts_bitstring_announcement(self, spec11):
        a = llr_overquantized(0.7, BitString([1]), spec11, self.P, self.N)
        np.testing.assert_allclose(a[0], LLR_OVER_V1M1[(0.7, 1)], rtol=1e-9)

    def test_basic_single_bit(self):
        spec = make_quantizer(self.P + self.N, 1, 0)
        got = llr_overquantized(0.7, np.array([]), spec, self.P, self.N)
        np.testing.assert_allclose(got[0], -2.5468889576492674, rtol=1e-9)

    def test_basic_two_bit(self):
        spec = make_quantizer(self.P + self.N, 2, 0)
        got = llr_overquantized(-1.1, np.array([]), spec, self.P, self.N)
        np.testing.assert_allclose(
            got, [4.4943297849771994, 1.0906531024805618], rtol=1e-9
        )

    def test_zero_observation_zeroes_top_bit(self):
        # by symmetry y = 0 carries no information about the sign bit
        for v in (1, 2, 3):
            spec = make_quantizer(self.P + self.N, v, 0)
            got = llr_overquantized(0.0, np.array([]), spec, self.P, self.N)
            assert abs(got[0]) < 1e-12

    @given(y=st.floats(-5, 5))
    @settings(max_examples=50)
    def test_single_bit_sign_tracks_estimate(self, y):
        spec = make_quantizer(self.P + self.N, 1, 0)
        got = llr_overquantized(y, np.array([]), spec, self.P, self.N)[0]
        if y > 1e-9:
            assert got < 0  # positive estimate favours the upper cell (bit 1)
        elif y < -1e-9:
            assert got > 0

    def test_extreme_observation_clamps(self):
        spec = make_quantizer(self.P + self.N, 1, 0)
        assert llr_overquantized(40.0, np.array([]), spec, self.P, self.N)[0] == -30.0
        assert llr_overquantized(-40.0, np.array([]), spec, self.P, self.N)[0] == 30.0

    def test_validation(self, spec11):
        with pytest.raises(ValueError, match="N"):
            llr_overquantized(0.1, np.array([0]), spec11, 1.0, 0.0)
        with pytest.raises(ValueError, match="length"):
            llr_overquantized(0.1, np.array([0, 1]), spec11, 1.0, 0.1)

    def test_batch_path_matches_scalar(self, spec11):
        ys = np.linspace(-2.5, 2.5, 21)
        patterns = np.tile([0, 1], 11)[:21]
        batch = _llr_from_logp(_log_cell_probs(ys, spec11, self.P, self.N, patterns), spec11)
        for row, (y, pat) in enumerate(zip(ys, patterns)):
            single = llr_overquantized(y, np.array([pat]), spec11, self.P, self.N)
            np.testing.assert_allclose(batch[row], single, rtol=1e-12)

    @pytest.mark.parametrize("v, m_over", [(1, 0), (1, 1), (2, 3), (4, 8)])
    def test_consistent_cells_match_full_cell_sum(self, v, m_over, monkeypatch):
        # reference: masses of all 2^(v+m_over) cells, summed over the cells
        # whose Gray word carries the sample's published pattern, compared
        # before the clamp
        monkeypatch.setattr(gaussian_keygen, "LLR_CLAMP", np.inf)
        spec = make_quantizer(self.P + self.N, v, m_over)
        k = v + m_over
        words = np.array([gray_encode(c, k).to_array() for c in range(2**k)])
        word_patterns = words[:, v:] @ (1 << np.arange(m_over - 1, -1, -1))
        ys = np.repeat([-40.0, -2.0, 0.0, 0.7, 40.0], 2**m_over)
        patterns = np.tile(np.arange(2**m_over), 5)

        mu = self.P / (self.P + self.N) * ys
        sigma = np.sqrt((2 * self.P * self.N + self.N**2) / (self.P + self.N))
        upper = log_ndtr(-(spec.boundaries[None, :] - mu[:, None]) / sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            mass = upper[:, :-1] + np.log(-np.expm1(upper[:, 1:] - upper[:, :-1]))
        mass = np.where(np.isnan(mass), -np.inf, mass)
        want = np.empty((ys.size, v))
        for row in range(ys.size):
            consistent = word_patterns == patterns[row]
            for i in range(v):
                lse0 = logsumexp(mass[row, consistent & (words[:, i] == 0)])
                lse1 = logsumexp(mass[row, consistent & (words[:, i] == 1)])
                # both sides massless in floating point: no information
                want[row, i] = lse0 - lse1 if max(lse0, lse1) > -np.inf else 0.0

        got = _llr_from_logp(_log_cell_probs(ys, spec, self.P, self.N, patterns), spec)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("v, m_over", [(1, 0), (1, 1), (2, 3), (3, 5), (4, 0), (4, 8), (4, 12)])
    def test_matches_logsumexp_reference_on_edge_rows(self, v, m_over, monkeypatch):
        # reference: scipy's logsumexp over each bit's bit-0 and bit-1
        # columns, compared before the clamp.  The rows cover far tails
        # (y = +/-40), rows whose two sides sit 1000 nats apart (beyond the
        # ~745 that one shift per row could span without underflow) and rows
        # where the bit-0 side, the bit-1 side or both sides have zero mass
        monkeypatch.setattr(gaussian_keygen, "LLR_CLAMP", np.inf)
        spec = make_quantizer(self.P + self.N, v, m_over)
        rng = np.random.default_rng(100 * v + m_over)
        ys = np.concatenate([[-40.0, -9.0, 0.0, 9.0, 40.0], rng.normal(0.0, 1.5, size=20)])
        patterns = rng.integers(0, 2**m_over, size=ys.size)
        bit = (np.arange(2**v)[None, :] >> np.arange(v - 1, -1, -1)[:, None]) & 1  # (v, 2^v)
        finite = rng.normal(-3.0, 2.0, size=2**v)
        edge_rows = [np.full(2**v, -np.inf)]
        edge_rows += [np.where(bit[i] == side, -np.inf, finite) for i in range(v) for side in (0, 1)]
        edge_rows += [finite - 1000.0 * bit[i] for i in range(v)]
        logp = np.vstack([_log_cell_probs(ys, spec, self.P, self.N, patterns), *edge_rows])

        want = np.empty((logp.shape[0], v))
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(v):
                lse0 = logsumexp(logp[:, bit[i] == 0], axis=1)
                lse1 = logsumexp(logp[:, bit[i] == 1], axis=1)
                want[:, i] = np.where(np.maximum(lse0, lse1) > -np.inf, lse0 - lse1, 0.0)

        got = _llr_from_logp(logp, spec)
        assert np.isposinf(got).any() and np.isneginf(got).any()
        assert np.abs(got[np.isfinite(got)]).max() > 745.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestCdfTransformError:
    def test_reference_value(self):
        # Phi(2) - 3/4: the cell containing 2 has CDF-midpoint 3/4
        got = cdf_transform_error(2.0, 1, 1.0)
        np.testing.assert_allclose(got, 0.2272498680518208, rtol=1e-12)

    def test_representative_maps_to_zero(self):
        got = cdf_transform_error(PHI_INV_3_4, 1, 1.0)
        assert abs(got) < 1e-15

    @given(x=st.floats(-6, 6), v=st.integers(1, 4))
    @settings(max_examples=80)
    def test_range_bound(self, x, v):
        e = cdf_transform_error(x, v, 1.0)
        assert abs(e) <= 2.0 ** -(v + 1) + 1e-12

    def test_uniform_over_its_range(self):
        rng = np.random.default_rng(99)
        xs = rng.normal(0.0, np.sqrt(1.3), 100_000)
        es = cdf_transform_error(xs, 1, 1.3)
        res = kstest(es, "uniform", args=(-0.25, 0.5))
        assert res.pvalue > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            cdf_transform_error(0.0, 1, 0.0)
        with pytest.raises(ValueError):
            cdf_transform_error(0.0, 0, 1.0)


def _soft_error_llr(ys, es, v, P, N):
    """Bob's soft-error LLRs, (n, v), as run_gaussian_system computes them."""
    spec = make_quantizer(P + N, v)
    ys, es = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (ys, es))
    return _llr_from_logp(_log_candidate_probs(ys, es, spec, P, N), spec)


# Announced-error LLRs in unit-total-variance form, P = 10/11, N = 1/11,
# frozen from a 50-digit evaluation of the exact posterior: the log-sum-exp
# of -(y - P/(P+N) x_j)^2 (P+N)/(2(2PN+N^2)) over the candidate points
# x_j = Phi^-1(e + (j + 1/2)/2^v) whose Gray bit is 0, minus that over bit 1.
LLR_SOFT_V1 = {
    (-1.5, -0.2): 7.5070160322848117,
    (-1.5, 0.0): 10.599124645938427,
    (-1.5, 0.15): 15.817512540780561,
    (0.0, -0.2): -6.4041730476237699,
    (0.0, 0.0): 0.0,
    (0.0, 0.15): 3.7575944297202733,
    (0.8, -0.2): -13.82347389024168,
    (0.8, 0.0): -5.6528664778338279,
    (0.8, 0.15): -2.6743618961785468,
}


class TestLlrSoftError:
    P, N = 10 / 11, 1 / 11

    def test_frozen_reference_values(self):
        for (y, e), want in LLR_SOFT_V1.items():
            got = _soft_error_llr(y, e, 1, self.P, self.N)
            assert got.shape == (1, 1)
            np.testing.assert_allclose(got[0, 0], want, rtol=1e-9, atol=1e-12)

    def test_frozen_two_bit_values(self):
        got = _soft_error_llr(0.5, 0.1, 2, self.P, self.N)[0]
        np.testing.assert_allclose(got, [-0.85580204633693062, -3.985252612314706], rtol=1e-9)
        got = _soft_error_llr(-1.2, -0.05, 2, self.P, self.N)[0]
        np.testing.assert_allclose(got, [5.5470431589174802, 1.7265583541045976], rtol=1e-9)

    def test_matches_candidate_density_ratio(self):
        # with one kept bit the announced error pins one candidate point per
        # cell, and the cells are equiprobable given it, so the LLR is the
        # log-likelihood ratio of Bob's sample under the two candidates
        sigma = np.sqrt((2 * self.P * self.N + self.N**2) / (self.P + self.N))
        rho = self.P / (self.P + self.N)
        for y, e in ((-0.9, 0.12), (0.3, -0.21), (1.7, 0.02)):
            x0 = norm.ppf(e + 0.25)
            x1 = norm.ppf(e + 0.75)
            want = norm.logpdf(y, rho * x0, sigma) - norm.logpdf(y, rho * x1, sigma)
            got = _soft_error_llr(y, e, 1, self.P, self.N)[0, 0]
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_zero_inputs_give_zero(self):
        assert _soft_error_llr(0.0, 0.0, 1, self.P, self.N)[0, 0] == 0.0

    def test_large_positive_observation_favours_upper_cell(self):
        got = _soft_error_llr(2.5, 0.05, 1, self.P, self.N)[0, 0]
        assert got < 0

    def test_deep_cell_favours_its_own_codeword(self):
        # an observation deep in the bottom cell (Gray word 00) favours 0 on
        # both bits: the far outer candidate carries no weight against it
        got = _soft_error_llr(-1.2, -0.05, 2, self.P, self.N)[0]
        assert got[0] > 0
        assert got[1] > 0

    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_arrays_match_scalar_calls(self, v):
        rng = np.random.default_rng(v)
        ys = rng.normal(0.0, 1.0, 50)
        es = rng.uniform(-(2.0 ** -(v + 1)), 2.0 ** -(v + 1), 50)
        got = _soft_error_llr(ys, es, v, self.P, self.N)
        assert got.shape == (50, v)
        for row, (y, e) in enumerate(zip(ys, es)):
            np.testing.assert_allclose(got[row], _soft_error_llr(y, e, v, self.P, self.N)[0], rtol=0, atol=1e-12)


# (decode_success, iterations, sha256 of the key bytes + repr((iterations,
# decode_success, bit_agreement, net_bits))) of one block on code400,
# recorded from the scipy-logsumexp LLRs and cumprod BP kernel; keyed by
# (variant, v, m_over, snr_db, seed) with P = 1, N = 10^(-snr_db/10).  The
# soft_error rows, at the other variants' (v, snr_db) points, were recorded
# from the candidate-point posterior.  The LLR bytes are left out: a rewrite
# may move them by ~1e-14 before the clamp (TestLlrOverquantized bounds
# that), but not the decodes.
BLOCK_DIGESTS = {
    ('basic', 2, 0, 10.0, 0): (False, 50, "53c2fa9a249c60b2c21381f156f0a6a67c2285c373a9bbadc423495363a99a9e"),
    ('basic', 2, 0, 10.0, 1): (False, 50, "6c52db13a2918b68b831f68081e1f66629d634542a54b2a3cf1778be8556e435"),
    ('basic', 2, 0, 15.0, 0): (True, 3, "32434093186346ab6bd10d782c63ff508caa33820465beefeb5f6af86d092f9a"),
    ('basic', 2, 0, 15.0, 1): (True, 27, "434137f8adab74cf8bf40bf72d77e6567581b3c7229c46adcf606ac8cec70189"),
    ('basic', 2, 0, 25.0, 0): (True, 1, "5f8e9d48d2ad172fc037b2313633e65928a76a5bb163047004df44ddf4f3a8fb"),
    ('basic', 2, 0, 25.0, 1): (True, 2, "1b456c670eff9b97f2afc3353ac8fa5bd8bbe40911778191fcad173c72d5f23c"),
    ('overquant', 1, 1, 6.0, 0): (False, 50, "e75ab7ce2ff8995e254aaabedf8cc71c9616d270bd117a89812d3f05d63040fe"),
    ('overquant', 1, 1, 6.0, 1): (False, 50, "ff4b92278c7d42686bf844d686790e6e6711e2112aa5e43be751325233429c5d"),
    ('overquant', 1, 1, 9.0, 0): (True, 26, "c5b79013158ba18deb36ee3e9bae72e4118db279c85e1a44afaeb1a7d6937930"),
    ('overquant', 1, 1, 9.0, 1): (False, 50, "400491352eeb2d84078d1d01b913567fa1644d71bae2b90c290932e9a502189b"),
    ('overquant', 1, 1, 12.0, 0): (True, 8, "4b5033eafe8e2785cf480cad27439319c4378f800e6097c7c58aedd809453bde"),
    ('overquant', 1, 1, 12.0, 1): (True, 11, "8b617b242e875c73e89e90759e995c6db47914353350816d8643ddf873a9a430"),
    ('overquant', 4, 8, 14.0, 0): (False, 50, "82a65745441db14d670cd0aa3da457a2b410b857eb0fe4264b94c9a793096b7e"),
    ('overquant', 4, 8, 14.0, 1): (False, 50, "3d034f1e2aea2fe407b56fbead81b2b1bf289e77cbf3b26f2b011fa2c40ec33e"),
    ('overquant', 4, 8, 20.0, 0): (True, 12, "eb32a6a3cb000fa697949b4777f22f126647f7a64b7471c1821ef040c31f1aec"),
    ('overquant', 4, 8, 20.0, 1): (True, 5, "38b61c3879393909886dae80b10ba49ba1f73df0c4b9ca9a650b184cd827cf64"),
    ('overquant', 4, 8, 30.0, 0): (True, 2, "e13e527f57f3af1352fef5b1bb558b46f790dbde7eee8d31c7165d4ef2b32b28"),
    ('overquant', 4, 8, 30.0, 1): (True, 2, "0b11937e96b0837308d037fb92ce17b296a561d670cac272f77692b9c8c410ac"),
    ('soft_error', 1, 0, 6.0, 0): (False, 50, "247a36a89952f52946983cb7f8b013b446e21c911e95830df8483f9ec7c30928"),
    ('soft_error', 1, 0, 6.0, 1): (False, 50, "553f1d66ec6774f444e8e9306bf910912abfbacfbcb115d002e3e581adf87c2c"),
    ('soft_error', 1, 0, 9.0, 0): (True, 4, "dd8d45ea90f611e20c8855990ec2b1f1721cdc6f0b273faff89e76dcae5211d2"),
    ('soft_error', 1, 0, 9.0, 1): (True, 4, "338499906f78b66de6cc4a2915786775ccd55b6f2ce5ec86250700d93b7d9e23"),
    ('soft_error', 1, 0, 12.0, 0): (True, 2, "19c8e330f4233b9fd097eb2d839b4a86a0c79711bb3eeb1ea3475e34361fa2f2"),
    ('soft_error', 1, 0, 12.0, 1): (True, 2, "cd5f8d26115f73d3f915c6f952da41e12635e20bfbc096fe49ab46468a90971a"),
    ('soft_error', 2, 0, 10.0, 0): (False, 50, "c4b3bdf1bbaa03918df1118ee477b9831af60274e749adf2524d88781daf4b96"),
    ('soft_error', 2, 0, 10.0, 1): (False, 50, "3290f79a3dad72e545f4dbc100ed68ef3870607f7e0297731166cf4bcd703373"),
    ('soft_error', 2, 0, 15.0, 0): (True, 2, "2ca490ab98b36e84bf04c87267a299616ba57a34763433121a0633b291e41000"),
    ('soft_error', 2, 0, 15.0, 1): (True, 4, "8a2bfd7d87a7b4c6dc717ad8d58c677e717cb482e9389d013370f4d0ef2b5aef"),
    ('soft_error', 2, 0, 25.0, 0): (True, 0, "38cb3fcfd85dd6fdef78d93b2707c400a15840e3b38cc8ccd6a304254c232c52"),
    ('soft_error', 2, 0, 25.0, 1): (True, 0, "b5fd1a3c867d8778aea3c44fda88e7f8e1ebf2a2fe8b4c51f4561c7ebdc08a17"),
    ('soft_error', 4, 0, 14.0, 0): (False, 50, "c555deed2d6d7c4dfd4fa3ff6c42539f6c7639b2e914f89e31a87f4dd6a6bff9"),
    ('soft_error', 4, 0, 14.0, 1): (False, 50, "91d1bb58685f2c23d6d9c8701a3eaac0a3ae7219991b750d9665fac8186b7ee3"),
    ('soft_error', 4, 0, 20.0, 0): (True, 6, "c5d1a40ca20718f7644c25f65c2694b4be4a8fa306861d07d12f5d7cfab2e13b"),
    ('soft_error', 4, 0, 20.0, 1): (True, 6, "ca79211566812dde4f5fd487213fdd2eece36e0a613555f9afe14e5539f35a0a"),
    ('soft_error', 4, 0, 30.0, 0): (True, 1, "fa87ebe672de433ceac17aa434b8629f2b2859aa64c0b457b7da5c6991603e25"),
    ('soft_error', 4, 0, 30.0, 1): (True, 1, "5e84abfc70cb5317fba84546ed263133a8cc5b5e0bb008dbb4efdf9a441de431"),
}


class TestRunGaussianSystem:
    @pytest.mark.parametrize("variant, v, m_over, snr_db, seed", list(BLOCK_DIGESTS))
    def test_block_matches_recorded_digest(self, code400, variant, v, m_over, snr_db, seed):
        out = run_gaussian_system(GaussianConfig(
            code=code400, v=v, n_samples=code400.n // v, variant=variant, m_over=m_over,
            P=1.0, N=10.0 ** (-snr_db / 10.0), seed=seed))
        h = hashlib.sha256(out.key_bits.to_bytes())
        h.update(repr((out.iterations, out.decode_success, out.bit_agreement,
                       out.net_bits)).encode())
        want = BLOCK_DIGESTS[variant, v, m_over, snr_db, seed]
        assert (out.decode_success, out.iterations, h.hexdigest()) == want

    def test_high_snr_basic_halves_the_bits(self, code240):
        cfg = GaussianConfig(code=code240, v=3, n_samples=80, variant="basic",
                             P=1.0, N=1e-3, seed=5)
        out = run_gaussian_system(cfg)
        assert out.decode_success
        assert out.bit_agreement == 1.0
        assert out.net_bits == 120  # n*v minus the length-n*v/2 syndrome
        assert out.net_rate_bits_per_sample == pytest.approx(1.5)
        assert out.revealed_bits == 120
        assert len(out.key_bits) == 120

    def test_noiseless_decodes_without_iterating(self, code240):
        cfg = GaussianConfig(code=code240, v=3, n_samples=80, variant="basic",
                             P=1.0, N=0.0, seed=5)
        out = run_gaussian_system(cfg)
        assert out.decode_success
        assert out.iterations == 0
        assert out.bit_agreement == 1.0
        assert out.net_bits == 120

    def test_deterministic_and_seed_sensitive(self, code240):
        mk = lambda s: run_gaussian_system(
            GaussianConfig(code=code240, v=3, n_samples=80, variant="basic",
                           P=1.0, N=1e-3, seed=s))
        a, b, c = mk(9), mk(9), mk(10)
        assert a.key_bits == b.key_bits
        assert a.key_bits != c.key_bits

    def test_overquant_reveals_published_bits(self, code400):
        cfg = GaussianConfig(code=code400, v=1, n_samples=400, variant="overquant",
                             m_over=2, P=1.0, N=1e-3, seed=1)
        out = run_gaussian_system(cfg)
        assert out.decode_success
        assert out.revealed_bits == 200 + 800
        assert out.net_bits == 200  # published bits don't count against the key

    def test_decode_failure_is_recorded(self, code400):
        cfg = GaussianConfig(code=code400, v=2, n_samples=200, variant="basic",
                             P=1.0, N=10**-0.5, seed=0)
        out = run_gaussian_system(cfg)
        assert not out.decode_success
        assert out.net_bits == 0
        assert len(out.key_bits) == 0
        assert out.bit_agreement < 1.0

    def test_published_bits_cut_failure_rate(self, code400):
        # at 10 dB the plain variant sits below the code's threshold while
        # each published bit plane pulls the block failure rate down hard
        fails = {}
        for variant, m in (("basic", 0), ("overquant", 1), ("overquant", 2)):
            fails[m] = sum(
                not run_gaussian_system(
                    GaussianConfig(code=code400, v=1, n_samples=400, variant=variant,
                                   m_over=m, P=1.0, N=0.1, seed=s)
                ).decode_success
                for s in range(30)
            )
        assert fails[2] < fails[1] < fails[0]
        assert fails[0] - fails[2] >= 10

    def test_soft_error_outperforms_basic_at_moderate_snr(self, code400):
        # announced quantization errors make the two candidate points
        # explicit, which decodes cleanly where the plain variant fails
        outs = [
            run_gaussian_system(
                GaussianConfig(code=code400, v=1, n_samples=400,
                               variant="soft_error", P=1.0, N=0.1, seed=s))
            for s in range(10)
        ]
        assert all(o.decode_success for o in outs)
        assert all(o.net_bits == 200 for o in outs)
        assert all(len(o.key_bits) == 200 for o in outs)

    @pytest.mark.parametrize("v, snr_db, blocks", [(2, 12.0, 10), (2, 14.0, 10), (4, 20.0, 5), (4, 25.0, 5)])
    def test_soft_error_decodes_multibit_blocks(self, code4096, v, snr_db, blocks):
        # with several kept bits the published error still pins one point per
        # cell; scored by the exact posterior every block decodes
        for s in range(blocks):
            out = run_gaussian_system(GaussianConfig(
                code=code4096, v=v, n_samples=4096 // v, variant="soft_error",
                P=1.0, N=10.0 ** (-snr_db / 10.0), seed=s))
            assert out.decode_success, f"seed {s}"
            assert out.net_bits == 2048

    def test_custom_traces(self, code240):
        xs, ys = gen_iid_gaussian_source(1.0, 1e-3, 1e-3, 80, seed=[5, 0])
        via_seed = run_gaussian_system(
            GaussianConfig(code=code240, v=3, n_samples=80, variant="basic",
                           P=1.0, N=1e-3, seed=5))
        via_trace = run_gaussian_system(
            GaussianConfig(code=code240, v=3, n_samples=80, variant="basic",
                           P=1.0, N=1e-3, seed=5, xs=xs, ys=ys))
        assert via_seed.key_bits == via_trace.key_bits

    def test_config_validation(self, code240):
        good = dict(code=code240, v=3, n_samples=80, P=1.0, N=0.1, seed=0)
        with pytest.raises(ValueError, match="code length"):
            run_gaussian_system(GaussianConfig(**{**good, "n_samples": 81}))
        with pytest.raises(ValueError, match="variant"):
            GaussianConfig(**{**good, "variant": "fancy"})
        with pytest.raises(ValueError, match="m_over"):
            GaussianConfig(**{**good, "variant": "overquant", "m_over": 0})
        with pytest.raises(ValueError, match="m_over"):
            GaussianConfig(**{**good, "variant": "basic", "m_over": 1})
        for name in ("P", "N"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be .* finite"):
                    GaussianConfig(**{**good, name: value})
        with pytest.raises(ValueError, match="both"):
            run_gaussian_system(GaussianConfig(**{**good, "xs": np.zeros(80)}))
        with pytest.raises(ValueError, match="shorter"):
            run_gaussian_system(
                GaussianConfig(**{**good, "xs": np.zeros(10), "ys": np.zeros(10)}))


class TestStatisticalInvariants:
    P, N = 1.0, 0.1

    def _symbols_and_over(self, seed, n=100_000):
        xs, ys = gen_iid_gaussian_source(self.P, self.N, self.N, n, seed=[seed, 0])
        spec = make_quantizer(self.P + self.N, 2, 1)
        reg, over = quantize_and_code(xs, spec)
        r = reg.to_array().reshape(-1, 2)
        return r[:, 0] * 2 + r[:, 1], over.to_array(), ys

    def test_over_bits_independent_of_kept_bits(self):
        # equiprobable cells make the published plane carry no information
        # about the kept planes on its own
        sym, b, _ = self._symbols_and_over(seed=2024)
        table = np.zeros((4, 2))
        np.add.at(table, (sym, b), 1)
        assert chi2_contingency(table).pvalue > 0.01

    def test_over_bits_informative_given_observation(self):
        # ...yet conditioned on Bob's sample they resolve real uncertainty
        sym, b, ys = self._symbols_and_over(seed=2024)
        edges = np.quantile(ys, np.linspace(0, 1, 11)[1:-1])
        ybin = np.searchsorted(edges, ys)

        def mi(table):
            p = table / table.sum()
            px = p.sum(1, keepdims=True)
            pb = p.sum(0, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(p > 0, p * np.log2(p / (px * pb)), 0.0)
            return t.sum()

        cond = 0.0
        for k in range(10):
            sel = ybin == k
            t = np.zeros((4, 2))
            np.add.at(t, (sym[sel], b[sel]), 1)
            cond += mi(t) * sel.mean()
        uncond_table = np.zeros((4, 2))
        np.add.at(uncond_table, (sym, b), 1)
        assert cond > 0.03
        assert mi(uncond_table) < 0.01

    def test_llr_magnitudes_are_calibrated(self):
        # predicted P(bit=1) from the LLR should match the empirical rate
        # bin by bin — the decoder input is a genuine posterior
        n = 40_000
        xs, ys = gen_iid_gaussian_source(self.P, self.N, self.N, n, seed=[424242, 1])
        spec = make_quantizer(self.P + self.N, 2, 1)
        reg, over = quantize_and_code(xs, spec)
        bits = reg.to_array().reshape(n, 2).reshape(-1)
        patterns = over.to_array().astype(np.int64)
        llr = _llr_from_logp(_log_cell_probs(ys, spec, self.P, self.N, patterns), spec).reshape(-1)
        pred_p1 = 1.0 / (1.0 + np.exp(llr))
        idx = np.clip(np.digitize(pred_p1, np.linspace(0, 1, 11)) - 1, 0, 9)
        checked = 0
        for k in range(10):
            sel = idx == k
            if sel.sum() < 300:
                continue
            gap = abs(bits[sel].mean() - pred_p1[sel].mean())
            assert gap < 0.03, f"bin {k}: calibration gap {gap:.4f}"
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("v", [1, 2])
    def test_soft_error_llrs_are_calibrated(self, v):
        # 10^6 draws: in each bin of predicted P(bit=1) the empirical rate
        # must lie within 4 standard errors of the mean prediction, the SE
        # being sqrt(sum p(1-p))/count for a calibrated predictor; 10 bins
        # at 4 SE keep a chance failure near 1e-3
        n = 1_000_000
        xs, ys = gen_iid_gaussian_source(self.P, self.N, self.N, n, seed=[515, v])
        spec = make_quantizer(self.P + self.N, v)
        bits = quantize_and_code(xs, spec)[0].to_array()
        errors = cdf_transform_error(xs, v, self.P + self.N)
        llr = _llr_from_logp(_log_candidate_probs(ys, errors, spec, self.P, self.N), spec)
        pred_p1 = 1.0 / (1.0 + np.exp(llr.reshape(-1)))
        idx = np.clip(np.digitize(pred_p1, np.linspace(0, 1, 11)) - 1, 0, 9)
        for k in range(10):
            sel = idx == k
            assert sel.sum() >= 1000, f"bin {k}: only {sel.sum()} draws"
            p = pred_p1[sel]
            se = np.sqrt(np.sum(p * (1.0 - p))) / p.size
            gap = abs(bits[sel].mean() - p.mean())
            assert gap <= 4.0 * se, f"bin {k}: gap {gap:.5f} is {gap / se:.1f} SE"

    def test_cells_are_hit_equally_often(self):
        var = self.P + self.N
        xs = np.sqrt(var) * np.random.default_rng(7).standard_normal(100_000)
        spec = make_quantizer(var, 3, 0)
        cells = np.searchsorted(spec.boundaries[1:-1], xs, side="right")
        counts = np.bincount(cells, minlength=8)
        z = (counts - 100_000 / 8) / np.sqrt(100_000 * (1 / 8) * (7 / 8))
        assert np.abs(z).max() < 4.0
