"""Tests for the performance-analysis toolbox.

Capacity values, the bivariate orthant-ratio oracle, and the small closed
forms were computed independently (mpmath / quadrature) and frozen; Monte
Carlo checks assert containment in the estimator's own confidence
intervals at fixed seeds.
"""

import math

import numpy as np
import pytest
from scipy.special import j0
from scipy.stats import multivariate_normal

from fadekey._bits import BitString
from fadekey.analysis import (
    MEASURED_MI_REFERENCE,
    EstimateInfeasibleError,
    _observation_cov,
    coherence_time,
    converter_convergence_check,
    lcr,
    markov_min_entropy,
    mutual_information_estimate,
    pe_levelcross,
    randomness_tests,
    rate_levelcross,
    secret_key_capacity,
)

# independently computed oracles (mpmath, 50 digits), frozen
CAPACITY_ORACLE = {
    -10.0: 0.01197264166607594,
    0.0: 0.41503749927884376,
    10.0: 2.5265458144958344,
    20.0: 5.665371274324661,
    30.0: 8.967947065766246,
}
PE_M1_ORACLE = 0.3645438396645881  # 2-D quadrature at fd=10, fs=9, SNR=10dB, alpha=0.8
PE_M2_ORACLE = 0.49009411816660303  # 4-D quadrature, same regime
LCR_UNIT = 0.9221370088957891  # sqrt(2 pi) / e
TC_FD10 = 0.04231421876608172  # sqrt(9 / (16 pi 10^2))
REGIME = (9.0, 10.0, 1.0, 0.1)  # fs, fd, P, N of the oracles above


class TestSecretKeyCapacity:
    def test_zero_power(self):
        assert secret_key_capacity(0.0, 1.0, 1.0) == 0.0

    def test_snr_grid_against_oracle(self):
        for snr_db, expect in CAPACITY_ORACLE.items():
            n = 10.0 ** (-snr_db / 10.0)
            assert secret_key_capacity(1.0, n, n) == pytest.approx(expect, rel=1e-12)

    def test_equal_noise_reduction(self):
        # with N_A = N_B the formula reduces to log2(1 + snr/(2 + 1/snr))
        for snr in (0.1, 1.0, 31.4, 1000.0):
            got = secret_key_capacity(snr, 1.0, 1.0)
            assert got == pytest.approx(math.log2(1 + snr / (2 + 1 / snr)), rel=1e-14)

    def test_unit_snr_closed_form(self):
        assert secret_key_capacity(1.0, 1.0, 1.0) == pytest.approx(math.log2(4 / 3), rel=1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            secret_key_capacity(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            secret_key_capacity(1.0, 0.0, 1.0)


class TestBuildCovariance:
    """The probing geometry both estimators draw from: Alice's m probes at
    k/fs, then Bob's max(m - 1, 1), each 1/(2 fs) after Alice's."""

    def test_single_estimate(self):
        # m = 1 still has one Bob probe, half a period after Alice's
        k = _observation_cov(1, 100.0, 10.0, 1.0, 0.5)
        assert k.shape == (2, 2)
        assert np.allclose(np.diag(k), 1.5)
        assert k[0, 1] == pytest.approx(j0(2 * np.pi * 10.0 / 200.0))

    def test_static_channel_limit(self):
        k = _observation_cov(3, 100.0, 1e-12, 2.0, 0.3)
        off = k[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 2.0)
        assert np.allclose(np.diag(k), 2.3)

    def test_interleaved_geometry(self):
        k = _observation_cov(2, 50.0, 10.0, 1.0, 0.1)
        # ordering (X1, X2, Y1): lags 1/(2fs) and 1/fs from X1
        assert k.shape == (3, 3)
        assert k[0, 2] == pytest.approx(j0(2 * np.pi * 10.0 / 100.0))
        assert k[0, 1] == pytest.approx(j0(2 * np.pi * 10.0 / 50.0))
        assert k[1, 2] == pytest.approx(k[0, 2])

    def test_onset_probe_precedes_alice(self):
        k = _observation_cov(2, 50.0, 10.0, 1.0, 0.1, onset=True)
        # ordering (X0, X1, X2, Y1): X0 one period before X1
        assert k.shape == (4, 4)
        assert np.array_equal(k[1:, 1:], _observation_cov(2, 50.0, 10.0, 1.0, 0.1))
        assert k[0, 1] == pytest.approx(j0(2 * np.pi * 10.0 / 50.0))
        assert k[0, 3] == pytest.approx(j0(2 * np.pi * 10.0 * 1.5 / 50.0))

    def test_psd_across_parameter_grid(self):
        for m in (1, 2, 4):
            for fs in (9.0, 100.0, 4000.0):
                for fd in (1.0, 10.0, 100.0):
                    for n in (0.001, 0.1, 1.0):
                        for onset in (False, True):
                            k = _observation_cov(m, fs, fd, 1.0, n, onset)
                            assert np.linalg.eigvalsh(k).min() >= -1e-9


BAD_ARGS = [
    ({"m": 0}, "m must be"),
    ({"alpha": -1.0}, "alpha must be"),
    ({"fs": 0.0}, "fs must be"),
    ({"fs": -100.0}, "fs must be"),
    ({"fs": math.inf}, "fs must be"),
    ({"fd": -1.0}, "fd must be"),
    ({"fd": math.inf}, "fd must be"),
    ({"alpha": math.nan}, "alpha must be"),
    ({"P": 0.0}, "P must be"),
    ({"N": -0.1}, "N must be"),
    ({"n_trials": 5_000}, "n_trials must be"),
]


class TestPeLevelcross:
    def test_bivariate_oracle(self):
        est = pe_levelcross(1, 0.8, *REGIME, 500_000, seed=77)
        assert est.ci_low <= PE_M1_ORACLE <= est.ci_high
        assert est.value == pytest.approx(PE_M1_ORACLE, abs=0.006)

    def test_four_dimensional_oracle(self):
        est = pe_levelcross(2, 0.8, *REGIME, 200_000, seed=1234)
        assert est.ci_low <= PE_M2_ORACLE <= est.ci_high

    def test_decreasing_in_m(self):
        vals = [pe_levelcross(m, 0.8, *REGIME, 30_000, seed=5).value for m in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_perfect_correlation_limit(self):
        est = pe_levelcross(2, 0.8, 9.0, 1e-9, 1.0, 1e-12, 20_000, seed=3)
        assert est.value == 0.0

    def test_deterministic(self):
        a = pe_levelcross(2, 0.8, *REGIME, 20_000, seed=11)
        b = pe_levelcross(2, 0.8, *REGIME, 20_000, seed=11)
        assert a.value == b.value and a.ci_low == b.ci_low

    def test_ci_brackets_value(self):
        est = pe_levelcross(3, 0.8, *REGIME, 20_000, seed=2)
        assert est.ci_low <= est.value <= est.ci_high

    def test_empty_denominator_raises(self):
        with pytest.raises(EstimateInfeasibleError):
            pe_levelcross(2, 100.0, *REGIME, 10_000, seed=1)

    def test_validation(self):
        good = dict(zip(("fs", "fd", "P", "N"), REGIME), m=2, alpha=0.8, n_trials=10_000)
        for bad, message in BAD_ARGS:
            with pytest.raises(ValueError, match=message):
                pe_levelcross(**{**good, **bad}, seed=1)


class TestRateLevelcross:
    def test_saturates_in_probing_rate(self):
        slow = rate_levelcross(4, 0.8, 1000.0, 10.0, 1.0, 0.001, 200_000, seed=9)
        fast = rate_levelcross(4, 0.8, 4000.0, 10.0, 1.0, 0.001, 200_000, seed=9)
        assert slow.value <= 2.0 * fast.value
        assert fast.value <= 2.0 * slow.value

    def test_on_the_order_of_doppler(self):
        est = rate_levelcross(4, 0.8, 1000.0, 10.0, 1.0, 0.001, 100_000, seed=9)
        assert est.value <= 5.0 * 10.0

    def test_decreasing_in_m(self):
        rates = [rate_levelcross(m, 0.8, 400.0, 10.0, 1.0, 0.001, 100_000, seed=9).value
                 for m in (2, 5)]
        assert rates[0] > rates[1]

    def test_rises_then_falls_in_doppler(self):
        vals = [rate_levelcross(4, 0.8, 4000.0, fd, 1.0, 0.001, 100_000, seed=9).value
                for fd in (10.0, 200.0, 3000.0)]
        assert vals[1] > vals[0]
        assert vals[1] > vals[2]

    def test_deterministic(self):
        a = rate_levelcross(3, 0.8, 400.0, 10.0, 1.0, 0.01, 20_000, seed=4)
        b = rate_levelcross(3, 0.8, 400.0, 10.0, 1.0, 0.01, 20_000, seed=4)
        assert a.value == b.value

    def test_single_probe_counts_bob(self):
        # m = 1: R = 2 fs p, with p the orthant {X0 <= q, X1 > q, Y1 > q}
        # for Alice's onset probe X0 at -1/fs, her probe X1 at 0 and Bob's
        # Y1 at 1/(2 fs); flipping X1 and Y1 makes it a lower orthant
        fs, fd, P, N, alpha = 100.0, 10.0, 1.0, 1.0, 0.8
        times = np.array([-1.0 / fs, 0.0, 0.5 / fs])
        k = P * j0(2 * np.pi * fd * np.abs(times[:, None] - times[None, :])) + N * np.eye(3)
        flip = np.diag([1.0, -1.0, -1.0])
        q = alpha * math.sqrt(P + N)
        p = multivariate_normal(np.zeros(3), flip @ k @ flip).cdf(np.array([q, -q, -q]))
        est = rate_levelcross(1, alpha, fs, fd, P, N, 400_000, seed=6)
        assert est.ci_low <= 2 * fs * p <= est.ci_high

    def test_validation(self):
        good = dict(m=3, alpha=0.8, fs=400.0, fd=10.0, P=1.0, N=0.01, n_trials=10_000)
        for bad, message in BAD_ARGS:
            with pytest.raises(ValueError, match=message):
                rate_levelcross(**{**good, **bad}, seed=4)


class TestLcr:
    def test_zero_threshold(self):
        assert lcr(10.0, 0.0) == 0.0

    def test_unit_threshold(self):
        assert lcr(7.0, 1.0) == pytest.approx(7.0 * LCR_UNIT, rel=1e-13)

    def test_maximum_at_inverse_root_two(self):
        rhos = np.linspace(0.05, 2.5, 491)
        vals = np.array([lcr(10.0, r) for r in rhos])
        assert abs(rhos[vals.argmax()] - 1 / math.sqrt(2)) < 0.01
        peak = lcr(10.0, 1 / math.sqrt(2))
        assert peak > lcr(10.0, 1 / math.sqrt(2) - 0.01)
        assert peak > lcr(10.0, 1 / math.sqrt(2) + 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            lcr(0.0, 1.0)
        with pytest.raises(ValueError):
            lcr(10.0, -0.5)


class TestCoherenceTime:
    def test_reference_value(self):
        assert coherence_time(10.0) == pytest.approx(TC_FD10, rel=1e-15)

    def test_product_below_one(self):
        for fd in (1.0, 10.0, 250.0):
            assert coherence_time(fd) * fd == pytest.approx(0.4231421876608172, rel=1e-12)
            assert coherence_time(fd) * fd < 1.0

    def test_halving(self):
        assert coherence_time(20.0) == pytest.approx(coherence_time(10.0) / 2, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            coherence_time(0.0)


class TestMutualInformation:
    def test_independent_pairs(self):
        rng = np.random.default_rng(100)
        est = mutual_information_estimate(rng.standard_normal(100_000), rng.standard_normal(100_000))
        assert abs(est.bits) <= 0.02
        assert not est.degenerate

    def test_correlated_gaussian(self):
        rng = np.random.default_rng(100)
        z = rng.standard_normal(100_000)
        w = rng.standard_normal(100_000)
        y = 0.9 * z + math.sqrt(1 - 0.81) * w
        est = mutual_information_estimate(z, y)
        true = -0.5 * math.log2(1 - 0.81)
        assert est.bits == pytest.approx(true, rel=0.10)
        assert est.bits == pytest.approx(1.203, rel=0.10)

    def test_degenerate_input(self):
        est = mutual_information_estimate(np.ones(200), np.arange(200.0))
        assert est.bits == 0.0
        assert est.degenerate

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information_estimate(np.zeros(50), np.zeros(50))
        with pytest.raises(ValueError):
            mutual_information_estimate(np.zeros(120), np.zeros(130))
        with pytest.raises(ValueError):
            mutual_information_estimate(np.zeros(120), np.zeros(120), k_neighbors=0)

    def test_reference_fixture_present(self):
        assert MEASURED_MI_REFERENCE["alice_bob"] == pytest.approx(3.294)
        assert MEASURED_MI_REFERENCE["bob_eve"] == pytest.approx(0.047)
        assert MEASURED_MI_REFERENCE["alice_bob_mobile"] == pytest.approx(1.218)
        assert MEASURED_MI_REFERENCE["bob_eve_mobile"] == 0.0


class TestRandomnessTests:
    def test_alternating_pattern(self):
        bits = np.tile([0, 1], 500)
        out = randomness_tests(bits)
        assert out["monobit_p"] >= 0.99
        assert out["runs_p"] < 0.01

    def test_all_ones(self):
        out = randomness_tests(np.ones(1000, dtype=np.uint8))
        assert out["monobit_p"] < 1e-6
        assert out["runs_p"] == 0.0

    def test_prng_bits_pass(self):
        bits = np.random.default_rng(2024).integers(0, 2, 10_000)
        out = randomness_tests(bits)
        assert out["monobit_p"] >= 0.01
        assert out["runs_p"] >= 0.01

    def test_accepts_bitstring(self):
        bits = BitString(np.random.default_rng(8).integers(0, 2, 256))
        out = randomness_tests(bits)
        assert 0.0 <= out["monobit_p"] <= 1.0

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            randomness_tests(np.zeros(99, dtype=np.uint8))


class TestMarkovMinEntropy:
    def test_hand_example(self):
        # P_1 = 1/4 and state 1 is never left (absorbing), so 1^128 has
        # probability 1/4: H = 2/128
        assert markov_min_entropy([0, 0, 0, 1]) == pytest.approx(2 / 128)

    def test_constant_and_alternating(self):
        assert markov_min_entropy(np.zeros(500, dtype=np.uint8)) == 0.0
        assert markov_min_entropy(np.arange(500) % 2) == pytest.approx(1 / 128)

    def test_fair_coin_near_one(self):
        bits = np.random.default_rng(8).integers(0, 2, 100_000)
        assert 0.98 < markov_min_entropy(BitString(bits.astype(np.uint8))) <= 1.0

    def test_flip_chain_prices_most_likely_path(self):
        # a chain that flips with probability 0.83 has the alternating
        # sequence as its most likely path: H -> -log2(0.83) per bit
        flips = np.random.default_rng(9).random(200_000) < 0.83
        bits = np.bitwise_xor.accumulate(flips.astype(np.uint8))
        assert markov_min_entropy(bits) == pytest.approx(-math.log2(0.83), abs=0.005)

    def test_needs_two_bits(self):
        with pytest.raises(ValueError):
            markov_min_entropy([1])


class TestConverterConvergence:
    def test_bound_and_monotonicity(self):
        est = converter_convergence_check([100, 1000], trials=200, seed=3)
        assert est[100] <= 100 ** -0.25
        assert est[1000] <= 1000 ** -0.25
        assert est[100] > est[1000]

    def test_single_sample_mean(self):
        # at n=1 the converted value is always 0, so the norm is |W| with
        # W uniform on (0,1): mean 1/2
        est = converter_convergence_check([1], trials=400, seed=3)
        assert est[1] == pytest.approx(0.5, abs=0.06)

    def test_validation(self):
        with pytest.raises(ValueError):
            converter_convergence_check([100], trials=50, seed=1)
        with pytest.raises(ValueError):
            converter_convergence_check([0], trials=100, seed=1)
