"""Level-crossing protocol tests.

Statistical assertions run on fixed seeds, so every measured number below is
reproducible; tolerances were sized from across-seed spread before freezing.
"""

import hashlib
import hmac

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from fadekey._bits import BitString
from fadekey.analysis import markov_min_entropy, pe_levelcross
from fadekey.channel import ChannelParams, gen_fading_trace, probe_sequence
from fadekey.reconcile import privacy_amplify
from fadekey.levelcross import (
    EVE_LEAK_PER_BIT,
    PA_EPSILON_BITS,
    KeyAgreementResult,
    LevelCrossConfig,
    ProtocolAbort,
    ProtocolMessage,
    Thresholds,
    _inside_excursions,
    alice_amplification,
    alice_finalize,
    alice_select,
    bob_check,
    bob_reply,
    compute_thresholds,
    find_excursions,
    mac_compute,
    pa_output_length,
    run_protocol,
    subtract_windowed_mean,
)

# J0(2*pi*d/lambda) has its third zero at 8.653727912911011, i.e. at
# d/lambda ~= 1.3771 -- the nearest spatial-decorrelation null beyond one
# wavelength.  Used for the decorrelated-eavesdropper placement.
D_OVER_LAMBDA_NULL = 8.653727912911011 / (2.0 * np.pi)


def make_record(P, N, fd, fs, n_probes, seed, d_over_lambda=None):
    lam = 0.125
    d = lam if d_over_lambda is None else d_over_lambda * lam
    params = ChannelParams(P, N, N, fd, fs, carrier_wavelength_lambda=lam, eve_distance_d=d)
    trace = gen_fading_trace(params, 2 * n_probes, seed)
    return probe_sequence(trace, params, seed + 1000)


def reference_excursions(x, t, m):
    """(start, end, sign) of each maximal run of >= m samples strictly beyond
    a threshold, ends inclusive, found one sample at a time."""
    out, start, sign = [], 0, 0
    for i, v in enumerate(x):
        s = 1 if v > t.q_plus else -1 if v < t.q_minus else 0
        if s != sign:
            if sign and i - start >= m:
                out.append((start, i - 1, sign))
            start, sign = i, s
    if sign and len(x) - start >= m:
        out.append((start, len(x) - 1, sign))
    return out


def reference_mask(x, t, m):
    mask = np.zeros(len(x), dtype=bool)
    for start, end, _ in reference_excursions(x, t, m):
        mask[start : end + 1] = True
    return mask


def rows(excursions):
    return [tuple(r) for r in excursions.tolist()]


def lag1_correlation(bits):
    b = np.asarray(bits, dtype=float)
    return float(np.corrcoef(b[:-1], b[1:])[0, 1])


class TestSubtractWindowedMean:
    def test_hand_example(self):
        out = subtract_windowed_mean([1, 2, 3, 4, 5], 3)
        assert np.allclose(out, [-0.5, 0.0, 0.0, 0.0, 0.5])

    def test_constant_sequence_zeroed(self):
        out = subtract_windowed_mean(np.full(40, 3.7), 7)
        assert np.allclose(out, 0.0)

    def test_linear_ramp_interior_zero(self):
        ramp = np.arange(30, dtype=float) * 0.25 - 2.0
        out = subtract_windowed_mean(ramp, 5)
        assert np.allclose(out[2:-2], 0.0, atol=1e-12)

    def test_output_length_and_validation(self):
        assert subtract_windowed_mean(np.arange(9.0), 9).shape == (9,)
        with pytest.raises(ValueError):
            subtract_windowed_mean([1.0, 2.0], 4)  # even window
        with pytest.raises(ValueError):
            subtract_windowed_mean([1.0, 2.0], 5)  # shorter than window
        with pytest.raises(ValueError):
            subtract_windowed_mean([], 1)

    @given(st.integers(0, 2**31), st.sampled_from([1, 3, 5, 9]))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, seed, w):
        u = np.random.default_rng(seed).normal(size=32)
        out = subtract_windowed_mean(u, w)
        shifted = subtract_windowed_mean(u + 11.5, w)
        assert np.allclose(out, shifted, atol=1e-9)
        if w == 1:
            assert np.allclose(out, 0.0)


class TestComputeThresholds:
    def test_symmetric_pair(self):
        t = compute_thresholds([-1.0, 1.0], 1.0)
        assert t.q_plus == pytest.approx(1.0) and t.q_minus == pytest.approx(-1.0)

    def test_hand_example(self):
        t = compute_thresholds([0.0, 0.0, 4.0, 4.0], 0.5)
        assert t.q_plus == pytest.approx(3.0)
        assert t.q_minus == pytest.approx(1.0)

    def test_alpha_zero_degenerate(self):
        t = compute_thresholds([2.0, 4.0, 6.0], 0.0)
        assert t.q_plus == t.q_minus == pytest.approx(4.0)

    def test_population_sigma_not_sample(self):
        # ddof=0: sigma([0,0,4,4]) = 2, not sqrt(16/3)
        t = compute_thresholds([0.0, 0.0, 4.0, 4.0], 1.0)
        assert t.q_plus == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_thresholds([1.0], 0.5)
        with pytest.raises(ValueError):
            compute_thresholds([1.0, 2.0], -0.1)


class TestQuantizeSample:
    """Alice's step-5 quantizer, through ``alice_finalize``: 1 above q_plus,
    0 below q_minus, and a guard-band sample (bounds included) aborts."""

    @pytest.mark.parametrize("x,expected", [(5.0, 1), (-2.0, 0), (0.0, None), (1.0, None), (-1.0, None)])
    def test_levels_and_strictness(self, x, expected):
        t = Thresholds(q_plus=1.0, q_minus=-1.0, alpha=1.0)
        idx = np.arange(3)
        # the first two samples key the MAC; the sample under test is the key bit
        reply = ProtocolMessage("reply", idx, mac_compute(BitString([1, 0]), idx.astype(">u8").tobytes()))
        samples = np.array([5.0, -2.0, x])
        if expected is None:
            with pytest.raises(ProtocolAbort) as exc:
                alice_finalize(reply, samples, t, 2)
            assert exc.value.reason == "fake_L"
        else:
            assert alice_finalize(reply, samples, t, 2) == BitString([expected])


class TestFindExcursions:
    def test_hand_example(self):
        t = Thresholds(0.6, -0.6, 0.6)
        x = np.array([0.5, 0.9, 0.8, -0.1, -0.7, -0.9])
        exc = find_excursions(x, t, 2)
        assert exc.dtype == np.int64
        assert rows(exc) == [(1, 2, 1), (4, 5, -1)]
        # Bob's lookup: an index on a run's first or last sample is inside
        assert _inside_excursions(np.arange(6), x, t, 2).tolist() == [False, True, True, False, True, True]

    def test_all_zeros_empty(self):
        assert find_excursions(np.zeros(10), Thresholds(1.0, -1.0, 1.0), 1).shape == (0, 3)

    def test_empty_trace_empty(self):
        t = Thresholds(1.0, -1.0, 1.0)
        exc = find_excursions([], t, 1)
        assert exc.shape == (0, 3) and exc.dtype == np.int64
        assert _inside_excursions(np.empty(0, dtype=np.int64), np.empty(0), t, 1).size == 0

    def test_min_length_filters(self):
        t = Thresholds(0.5, -0.5, 0.5)
        x = [0.9, 0.9, 0.0, -0.8, -0.8, -0.8]
        assert len(find_excursions(x, t, 3)) == 1
        assert len(find_excursions(x, t, 4)) == 0

    def test_adjacent_opposite_runs_both_found(self):
        t = Thresholds(0.1, -0.1, 0.1)
        exc = find_excursions([0.5, 0.5, -0.5, -0.5], t, 2)
        assert rows(exc) == [(0, 1, 1), (2, 3, -1)]

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_maximality_and_strictness(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        t = Thresholds(0.4, -0.4, 0.4)
        for start, end, sign in find_excursions(x, t, 2).tolist():
            seg = x[start : end + 1]
            if sign == 1:
                assert np.all(seg > t.q_plus)
                assert start == 0 or not x[start - 1] > t.q_plus
                assert end == x.size - 1 or not x[end + 1] > t.q_plus
            else:
                assert np.all(seg < t.q_minus)
                assert start == 0 or not x[start - 1] < t.q_minus
                assert end == x.size - 1 or not x[end + 1] < t.q_minus

    # levels +-0.5 sit on the thresholds, so they belong to the guard band
    @given(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=1, max_size=60), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    @example([1.0, 1.0, 0.0, -1.0, -1.0], 2)  # runs at index 0 and at the last sample
    @example([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0], 3)  # adjacent opposite-sign runs
    @example([0.5, -0.5, 0.0, 0.5], 1)  # all guard band
    @example([-1.0], 1)
    def test_runs_and_mask_match_per_sample_loop(self, x, m):
        t = Thresholds(0.5, -0.5, 0.5)
        assert rows(find_excursions(x, t, m)) == reference_excursions(x, t, m)
        inside = _inside_excursions(np.arange(len(x)), np.asarray(x), t, m)
        assert np.array_equal(inside, reference_mask(x, t, m))

    @given(st.integers(0, 2**31), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_runs_and_mask_match_per_sample_loop_on_gaussian_traces(self, seed, m):
        x = np.random.default_rng(seed).normal(size=500)
        t = compute_thresholds(x, 0.125)
        assert rows(find_excursions(x, t, m)) == reference_excursions(x, t, m)
        assert np.array_equal(_inside_excursions(np.arange(x.size), x, t, m), reference_mask(x, t, m))


class TestAliceSelect:
    def test_center_formula(self):
        msg = alice_select([(1, 2, 1)])
        assert msg.indices.tolist() == [1]
        msg = alice_select([(4, 5, -1)])
        assert msg.indices.tolist() == [4]

    def test_empty_list(self):
        msg = alice_select([])
        assert msg.variant == "index_list" and msg.indices.size == 0

    def test_subset_sorted_and_deterministic(self):
        exc = [(7 * i, 7 * i + 4, (-1) ** i) for i in range(20)]
        all_centers = {(start + end) // 2 for start, end, _ in exc}
        a = alice_select(exc)
        b = alice_select(exc)
        assert np.array_equal(a.indices, b.indices)
        assert np.all(np.diff(a.indices) > 0)
        assert set(a.indices.tolist()) == all_centers

    @pytest.mark.parametrize("alpha", [0.35, 0.4])
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_subset_matches_per_excursion_selection(self, alpha, seed):
        x = np.random.default_rng(seed).normal(size=2000)
        t = compute_thresholds(x, alpha)
        want = [(start + end) // 2 for start, end, _ in reference_excursions(x, t, 2)]
        assert alice_select(find_excursions(x, t, 2)).indices.tolist() == want

    def test_full_fraction_announces_every_excursion(self, noiseless_run):
        # perfbench's reference counts the announced indices as len(find_excursions(...))
        _, cfg, u_x, _, t_x, _ = noiseless_run
        exc = find_excursions(u_x, t_x, cfg.m)
        assert alice_select(exc).indices.size == len(exc) > 0


class TestMac:
    def test_deterministic(self):
        key = BitString(np.random.default_rng(1).integers(0, 2, 128).astype(np.uint8))
        assert mac_compute(key, b"hello") == mac_compute(key, b"hello")

    def test_key_avalanche(self):
        rng = np.random.default_rng(2)
        base = rng.integers(0, 2, 128).astype(np.uint8)
        tag0 = mac_compute(BitString(base), b"msg")
        distances = []
        for pos in rng.choice(128, size=40, replace=False):
            flipped = base.copy()
            flipped[pos] ^= 1
            tag1 = mac_compute(BitString(flipped), b"msg")
            assert tag1 != tag0
            distances.append((tag0 ^ tag1).weight)
        assert 40 < np.mean(distances) < 88  # ~64 expected for a good permutation

    def test_message_sensitivity_and_length_prefix(self):
        key = BitString(np.ones(128, dtype=np.uint8))
        assert mac_compute(key, b"ab") != mac_compute(key, b"ac")
        # a message must not collide with itself plus trailing zero bytes
        assert mac_compute(key, b"ab") != mac_compute(key, b"ab\x00")

    def test_empty_message(self):
        tag = mac_compute(BitString([1, 0, 1]), b"")
        assert len(tag) == 128

    @pytest.mark.parametrize("n_bits", [3, 128])
    def test_known_answer_is_truncated_hmac_sha256(self, n_bits):
        key = BitString(np.random.default_rng(n_bits).integers(0, 2, n_bits).astype(np.uint8))
        msg = np.arange(7, dtype=">u8").tobytes()
        want = hmac.new(key.to_bytes(), msg, hashlib.sha256).digest()[:16]
        assert mac_compute(key, msg).to_bytes() == want

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            mac_compute(BitString.zeros(0), b"x")
        with pytest.raises(ValueError):
            mac_compute(BitString.zeros(129), b"x")


class TestMessageValidation:
    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError):
            ProtocolMessage("index_list", np.array([3, 1, 2]))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            ProtocolMessage("index_list", np.array([1, 1, 2]))

    def test_reply_requires_tag(self):
        with pytest.raises(ValueError):
            ProtocolMessage("reply", np.array([1, 2]))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ProtocolMessage("index_list", np.array([-1, 2]))

    def test_threshold_and_excursion_invariants(self):
        with pytest.raises(ValueError):
            Thresholds(q_plus=-1.0, q_minus=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            Thresholds(q_plus=1.0, q_minus=1.0, alpha=0.5)  # alpha>0 needs separation

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LevelCrossConfig(window=10)
        with pytest.raises(ValueError):
            LevelCrossConfig(epsilon=0.5)
        with pytest.raises(ValueError):
            LevelCrossConfig(m=0)
        with pytest.raises(ValueError):
            LevelCrossConfig(n_au=0)


@pytest.fixture(scope="module")
def noiseless_run():
    """One noiseless campaign plus its per-side filtered views."""
    rec = make_record(1.0, 0.0, 10.0, 100.0, 8000, seed=11)
    cfg = LevelCrossConfig(alpha=0.125, m=4, window=51, epsilon=0.1, n_au=128, seed=3)
    u_x = subtract_windowed_mean(rec.x_hat, cfg.window)
    u_y = subtract_windowed_mean(rec.y_hat, cfg.window)
    t_x = compute_thresholds(u_x, cfg.alpha)
    t_y = compute_thresholds(u_y, cfg.alpha)
    return rec, cfg, u_x, u_y, t_x, t_y


class TestProtocolSteps:
    def test_bob_check_empty_list_false(self):
        empty = ProtocolMessage("index_list", np.empty(0, dtype=np.int64))
        assert bob_check(empty, np.zeros(100), Thresholds(1, -1, 1), 4, 0.1) is False

    def test_bob_check_accepts_honest_list(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        assert bob_check(L, u_y, t_y, cfg.m, cfg.epsilon) is True

    def test_bob_check_rejects_random_indices(self):
        # wide guard band: excursion coverage is well below 1/2, so a list
        # unrelated to the observed trace fails the fraction test
        rec = make_record(1.0, 0.01, 10.0, 26.0, 30000, seed=77)
        u_y = subtract_windowed_mean(rec.y_hat, 51)
        t_y = compute_thresholds(u_y, 0.8)
        rng = np.random.default_rng(5)
        fake = np.sort(rng.choice(u_y.size, size=300, replace=False)).astype(np.int64)
        assert bob_check(ProtocolMessage("index_list", fake), u_y, t_y, 4, 0.1) is False

    def test_bob_check_out_of_range_aborts(self):
        with pytest.raises(ProtocolAbort) as exc:
            bob_check(ProtocolMessage("index_list", [250]), np.zeros(100), Thresholds(1, -1, 1), 2, 0.1)
        assert exc.value.reason == "fake_L"

    def test_bob_reply_noiseless_confirms_everything(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        reply, key_bob = bob_reply(L, u_y, t_y, cfg.m, cfg.n_au)
        assert np.array_equal(reply.indices, L.indices)
        assert len(key_bob) == L.indices.size - cfg.n_au

    def test_bob_reply_single_key_bit_boundary(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        short = ProtocolMessage("index_list", L.indices[:129])
        _, key_bob = bob_reply(short, u_y, t_y, cfg.m, 128)
        assert len(key_bob) == 1

    def test_bob_reply_insufficient_bits_aborts(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        with pytest.raises(ProtocolAbort) as exc:
            bob_reply(L, u_y, t_y, cfg.m, L.indices.size)
        assert exc.value.reason == "insufficient_bits"

    def test_alice_finalize_authenticates_honest_reply(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        reply, key_bob = bob_reply(L, u_y, t_y, cfg.m, cfg.n_au)
        assert alice_finalize(reply, u_x, t_x, cfg.n_au) == key_bob

    def test_tampered_index_fails_mac(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        reply, _ = bob_reply(L, u_y, t_y, cfg.m, cfg.n_au)
        # adversary swaps one confirmed index for another announced one,
        # after Bob computed his tag
        dropped = reply.indices[40]
        tampered_idx = np.sort(np.concatenate([np.delete(reply.indices, 40), [L.indices[L.indices != dropped][0]]]))
        tampered_idx = np.unique(tampered_idx)
        tampered = ProtocolMessage("reply", tampered_idx, reply.mac_tag)
        with pytest.raises(ProtocolAbort) as exc:
            alice_finalize(tampered, u_x, t_x, cfg.n_au)
        assert exc.value.reason == "mac_failure"

    def test_alice_finalize_guard_band_index_aborts(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        inside = int(np.argmin(np.abs(u_x)))  # deep inside the guard band
        fake = ProtocolMessage("reply", np.array([inside]), mac_compute(BitString([1]), b""))
        with pytest.raises(ProtocolAbort) as exc:
            alice_finalize(fake, u_x, t_x, 1)
        assert exc.value.reason == "fake_L"

    def test_alice_finalize_no_key_bits_left_aborts(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        reply, _ = bob_reply(L, u_y, t_y, cfg.m, cfg.n_au)
        with pytest.raises(ProtocolAbort) as exc:
            alice_finalize(reply, u_x, t_x, reply.indices.size)
        assert exc.value.reason == "insufficient_bits"


class TestRunProtocol:
    def test_noiseless_identical_keys(self, noiseless_run):
        rec, cfg, *_ = noiseless_run
        result = run_protocol(rec, cfg)
        assert result.authenticated and result.aborted_reason is None
        assert len(result.key_alice) > 0
        assert result.key_alice == result.key_bob
        assert result.agreement == 1.0
        span = rec.x_times[-1] - rec.x_times[0]
        assert result.bits_per_second == pytest.approx(len(result.key_alice) / span)

    def test_equal_key_lengths_when_authenticated(self, noiseless_run):
        rec, cfg, *_ = noiseless_run
        result = run_protocol(rec, cfg)
        assert len(result.key_alice) == len(result.key_bob)

    def test_deterministic_given_seed(self, noiseless_run):
        rec, cfg, *_ = noiseless_run
        r1 = run_protocol(rec, cfg)
        r2 = run_protocol(rec, cfg)
        assert r1.key_alice == r2.key_alice and r1.bits_per_second == r2.bits_per_second

    def test_oversized_n_au_aborts(self):
        # the MAC key holds at most 128 bits
        LevelCrossConfig(n_au=128)
        with pytest.raises(ValueError):
            LevelCrossConfig(n_au=129)

    def test_guard_band_never_emits_bits(self, noiseless_run):
        _, cfg, u_x, u_y, t_x, t_y = noiseless_run
        L = alice_select(find_excursions(u_x, t_x, cfg.m))
        reply, _ = bob_reply(L, u_y, t_y, cfg.m, cfg.n_au)
        assert np.all((u_y[reply.indices] > t_y.q_plus) | (u_y[reply.indices] < t_y.q_minus))
        assert np.all((u_x[reply.indices] > t_x.q_plus) | (u_x[reply.indices] < t_x.q_minus))

    def test_selected_centers_separated_by_band_return(self, noiseless_run):
        # consecutive selected centers always come from distinct maximal
        # excursions: some sample between them has left the earlier run
        _, cfg, u_x, _, t_x, _ = noiseless_run
        exc = find_excursions(u_x, t_x, cfg.m)
        L = alice_select(exc)
        sign_at = {(start + end) // 2: sign for start, end, sign in exc.tolist()}
        idx = L.indices
        for a, b in zip(idx[:-1], idx[1:]):
            seg = u_x[a + 1 : b]
            if sign_at[int(a)] == 1:
                assert np.any(seg <= t_x.q_plus)
            else:
                assert np.any(seg >= t_x.q_minus)

    def test_transcript_only_attacker_guesses_half(self, noiseless_run):
        rec, cfg, *_ = noiseless_run
        result = run_protocol(rec, cfg)
        rng = np.random.default_rng(2024)
        n = len(result.key_alice)
        guess = BitString(rng.integers(0, 2, n).astype(np.uint8))
        # binomial 4-sigma band around 1/2 for the n-bit hashed key
        assert n > 0
        assert abs(result.key_alice.agreement(guess) - 0.5) < 4 * 0.5 / np.sqrt(n)


# (aborted_reason, authenticated, sha256 of the key_alice, key_bob and
# raw_key_alice bytes + repr of their lengths, authenticated, aborted_reason,
# agreement, raw_min_entropy and bits_per_second) of one run_protocol
# campaign; keyed by (snr_db, fs, n_probes, m, n_au, seed) with P = 1,
# N = 10^(-snr_db/10) (None: noiseless), fd = 10, alpha = 1/8, window = 51.
# No MAC tag is hashed, so any MAC that accepts exactly when the two n_au-bit
# keys agree leaves every entry unchanged.  fs = 9 splits the TDD probes past
# the coherence time (mac_failure or fake_L), the 600- to 1000-probe
# campaigns leave Bob no more than n_au confirmed indices (insufficient_bits
# in bob_reply), 3000 probes or m = 2 leave no hashed bit
# after the PA margin, and (20, 100, 12000, 2, 128, 1) authenticates with
# one raw-bit disagreement.
CAMPAIGN_DIGESTS = {
    (None, 100.0, 12000, 4, 128, 0): (None, True, "9c46fee289e2cce725869d2e0a32eff37d457c3d0cd760457f9904f70d6e57e7"),
    (None, 100.0, 12000, 4, 128, 1): (None, True, "49bca2aeb2c50b1c1b1d0e178c853b2ffce190031e28e6f1968a1013235ecb3a"),
    (20.0, 100.0, 12000, 4, 128, 0): (None, True, "ff666c022396096c17feadc2aaa4866cd0131832a44cc55b6ba2f8fd4316c334"),
    (20.0, 100.0, 12000, 4, 128, 1): (None, True, "6c64f9570e9fa4ae29aa5d654b0bc18569deec0a278ca7acfd625aa94616293f"),
    (20.0, 100.0, 12000, 2, 128, 1): (None, True, "7f7111cf889d8a4d853187a51c3c84603b17e7f094c82f5009178bd8f6f02943"),
    (10.0, 100.0, 12000, 4, 128, 0): (None, True, "47e78a1b0462144b570d5a464ce68b7280035a197bc772039c588a57748c1971"),
    (10.0, 100.0, 12000, 4, 128, 1): (None, True, "9ce2b9936ccee52f6b26d2ef5272125e8df0bf65b6eeb1a648fc06c1f0964b63"),
    (5.0, 100.0, 12000, 4, 128, 0): (None, True, "e8135cd51a90ed66609d48adf7924ca1056b28bd447a93dfbbc800e5ef749b5a"),
    (5.0, 100.0, 12000, 4, 128, 1): (None, True, "2e79e32731bc753774c67e96992328d3b689fe6b1be94d41ba28788e6497a1e0"),
    (None, 100.0, 3000, 4, 128, 0): ('insufficient_bits', True, "50c6c6e9a8b0b4b2e3fea506bbefa435561c1d9430253ebaafc5cb704f19ae0a"),
    (20.0, 100.0, 3000, 2, 128, 1): ('insufficient_bits', True, "cad329ced2b6f8df0dab39fe3154ec4058330c10c61cb316fd50ccba6d27d2e0"),
    (10.0, 100.0, 3000, 4, 128, 0): ('insufficient_bits', True, "9af0118a9d0066921903aa4bbcf7ce117a378cf0f84a52428abfa6203398ae09"),
    (20.0, 100.0, 12000, 2, 128, 0): ('insufficient_bits', True, "9dbed51f35ec0a270720672a80528a8d33bd41b532c41a36d23750a16e3a72a6"),
    (20.0, 100.0, 1000, 4, 128, 0): ('insufficient_bits', False, "33f297a192458a8ee0ef8b26f56b7031caadfb05c018211d35e3ce66fef80f36"),
    (5.0, 100.0, 800, 4, 128, 1): ('insufficient_bits', False, "33f297a192458a8ee0ef8b26f56b7031caadfb05c018211d35e3ce66fef80f36"),
    (None, 9.0, 600, 2, 128, 0): ('insufficient_bits', False, "33f297a192458a8ee0ef8b26f56b7031caadfb05c018211d35e3ce66fef80f36"),
    (None, 9.0, 3000, 2, 128, 0): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (20.0, 9.0, 12000, 4, 128, 1): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (10.0, 100.0, 12000, 2, 128, 0): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (10.0, 100.0, 3000, 4, 128, 1): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (5.0, 100.0, 3000, 2, 128, 1): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (10.0, 9.0, 3000, 4, 128, 1): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (20.0, 9.0, 3000, 4, 128, 0): ('mac_failure', False, "057ce7f60f5e26238fd1e35ee7355f46a2eee27c5bba5b0261236b8726b32411"),
    (10.0, 9.0, 3000, 4, 128, 0): ('fake_L', False, "c264248705382cd38a8643385e304a788d0a984ea5a13d3cd9cc703113a6bbd5"),
    (5.0, 9.0, 3000, 4, 128, 0): ('fake_L', False, "c264248705382cd38a8643385e304a788d0a984ea5a13d3cd9cc703113a6bbd5"),
    (5.0, 9.0, 12000, 4, 128, 0): ('fake_L', False, "c264248705382cd38a8643385e304a788d0a984ea5a13d3cd9cc703113a6bbd5"),
}


class TestRunProtocolDigests:
    @pytest.mark.parametrize("snr_db, fs, n_probes, m, n_au, seed", list(CAMPAIGN_DIGESTS))
    def test_matches_recorded_digest(self, snr_db, fs, n_probes, m, n_au, seed):
        N = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
        rec = make_record(1.0, N, 10.0, fs, n_probes, seed=seed)
        r = run_protocol(rec, LevelCrossConfig(alpha=0.125, m=m, window=51, n_au=n_au, seed=seed))
        h = hashlib.sha256(r.key_alice.to_bytes() + r.key_bob.to_bytes() + r.raw_key_alice.to_bytes())
        h.update(repr((len(r.key_alice), len(r.key_bob), len(r.raw_key_alice), r.authenticated,
                       r.aborted_reason, r.agreement, r.raw_min_entropy, r.bits_per_second)).encode())
        assert (r.aborted_reason, r.authenticated, h.hexdigest()) == CAMPAIGN_DIGESTS[snr_db, fs, n_probes, m, n_au, seed]

    def test_grid_covers_every_outcome(self):
        outcomes = {(reason, auth) for reason, auth, _ in CAMPAIGN_DIGESTS.values()}
        assert outcomes == {(None, True), ("insufficient_bits", True), ("insufficient_bits", False),
                            ("mac_failure", False), ("fake_L", False)}


class TestPrivacyAmplification:
    def test_eve_allowance_is_worst_correlation_beyond_one_wavelength(self):
        rho = np.abs(j0(np.linspace(2 * np.pi, 200.0, 400_001))).max()
        assert EVE_LEAK_PER_BIT == pytest.approx(-0.5 * np.log2(1 - rho**2), rel=1e-6)
        assert EVE_LEAK_PER_BIT == pytest.approx(0.0681, abs=1e-4)

    def test_output_length_formula(self):
        assert pa_output_length(10_000, 0.3) == int(10_000 * (0.3 - EVE_LEAK_PER_BIT)) - 2 * PA_EPSILON_BITS
        assert pa_output_length(100, 0.3) == 0  # margin exceeds the entropy
        assert pa_output_length(10_000, EVE_LEAK_PER_BIT / 2) == 0

    def test_notice_prices_alternation(self):
        alternating = BitString(np.arange(4000) % 2)
        notice = alice_amplification(alternating, 0)
        assert notice.min_entropy == pytest.approx(1 / 128)
        assert notice.out_len == 0
        fair = BitString(np.random.default_rng(4).integers(0, 2, 4000).astype(np.uint8))
        notice = alice_amplification(fair, 0)
        assert notice.out_len == pa_output_length(4000, markov_min_entropy(fair)) > 3000

    def test_keys_are_announced_hash_of_raw_bits(self, noiseless_run):
        rec, cfg, *_ = noiseless_run
        result = run_protocol(rec, cfg)
        notice = alice_amplification(result.raw_key_alice, cfg.seed)
        assert result.raw_min_entropy == notice.min_entropy
        assert len(result.key_alice) == notice.out_len > 0
        assert result.key_alice == privacy_amplify(result.raw_key_alice, notice.out_len, notice.seed)
        assert len(result.raw_key_alice) > len(result.key_alice)

    def test_raw_key_too_short_for_margin_aborts(self):
        rec = make_record(1.0, 0.0, 10.0, 100.0, 3000, seed=11)
        result = run_protocol(rec, LevelCrossConfig(alpha=0.125, m=4, window=51, n_au=128, seed=3))
        assert result.authenticated and result.aborted_reason == "insufficient_bits"
        assert len(result.key_alice) == len(result.key_bob) == 0
        assert len(result.raw_key_alice) > 0 and result.agreement == 1.0


class TestNoisyProtocolStatistics:
    def test_disagreement_small_and_decreasing_in_m(self):
        # SNR 15 dB, fd=10, fs=100: per-bit disagreement must fall with m
        # and sit below 1e-2 at m=4
        rates = {}
        for m in (2, 3, 4, 5):
            total = wrong = 0
            for seed in range(4):
                rec = make_record(1.0, 10 ** (-1.5), 10.0, 100.0, 30000, seed=100 + seed)
                res = run_protocol(rec, LevelCrossConfig(alpha=0.125, m=m, window=51, n_au=16, seed=seed))
                assert res.authenticated or res.aborted_reason == "mac_failure"
                if res.authenticated:
                    total += len(res.raw_key_alice)
                    wrong += round((1 - res.agreement) * len(res.raw_key_alice))
            rates[m] = wrong / total
        assert rates[4] < 1e-2
        assert rates[2] > rates[3] >= rates[4] >= rates[5]
        assert rates[2] > rates[5]

    def test_bit_balance(self):
        bits = []
        for seed in range(3):
            rec = make_record(1.0, 0.01, 10.0, 100.0, 40000, seed=300 + seed)
            res = run_protocol(rec, LevelCrossConfig(alpha=0.125, m=4, window=51, n_au=16, seed=seed))
            assert res.authenticated
            bits.append(res.raw_key_alice.to_array())
        balance = float(np.concatenate(bits).mean())
        assert 0.45 <= balance <= 0.55

    def test_lag1_correlation_with_separated_excursions(self):
        # wide guard band and near-coherence-rate probing: successive
        # selected excursions sit many 1/fd intervals apart and their bits
        # decorrelate; narrow bands (alpha ~ 1/8) alternate sign instead
        # (lag-1 ~ -0.67 at fs=100) because the residual rarely completes
        # a full crossing cycle without visiting the opposite excursion.
        allbits, seps = [], []
        for seed in range(6):
            rec = make_record(1.0, 0.01, 10.0, 26.0, 60000, seed=60 + seed)
            u = subtract_windowed_mean(rec.x_hat, 51)
            t = compute_thresholds(u, 0.8)
            L = alice_select(find_excursions(u, t, 3))
            allbits.append((u[L.indices] > t.q_plus).astype(int))
            seps.append(np.diff(L.indices) * 10.0 / 26.0)
        bits = np.concatenate(allbits)
        separations = np.concatenate(seps)
        assert np.median(separations) >= 1.0  # precondition: >= 1/fd apart
        assert abs(lag1_correlation(bits)) < 0.1

    def test_eavesdropper_decorrelated_at_bessel_null(self):
        # Eve plays Bob's role (steps 3-4) on her own trace at the first
        # spatial-correlation null beyond one wavelength
        agree = total = 0
        for seed in range(4):
            rec = make_record(1.0, 0.01, 10.0, 100.0, 40000, seed=500 + seed, d_over_lambda=D_OVER_LAMBDA_NULL)
            u_x = subtract_windowed_mean(rec.x_hat, 51)
            u_e = subtract_windowed_mean(rec.e_hat, 51)
            t_x = compute_thresholds(u_x, 0.125)
            t_e = compute_thresholds(u_e, 0.125)
            L = alice_select(find_excursions(u_x, t_x, 4))
            reply, _ = bob_reply(L, u_e, t_e, 4, 1)
            idx = reply.indices
            a_bits = u_x[idx] > t_x.q_plus
            e_bits = u_e[idx] > t_e.q_plus
            agree += int((a_bits == e_bits).sum())
            total += idx.size
        assert abs(agree / total - 0.5) < 0.05

    def test_eavesdropper_at_one_wavelength_retains_correlation(self):
        # at exactly d = lambda the spatial correlation is J0(2*pi) ~ 0.22,
        # which leaves a measurable advantage (~0.61 agreement); the 0.5
        # guess rate is reached only near nulls of J0
        agree = total = 0
        for seed in range(4):
            rec = make_record(1.0, 0.01, 10.0, 100.0, 40000, seed=500 + seed, d_over_lambda=1.0)
            u_x = subtract_windowed_mean(rec.x_hat, 51)
            u_e = subtract_windowed_mean(rec.e_hat, 51)
            t_x = compute_thresholds(u_x, 0.125)
            t_e = compute_thresholds(u_e, 0.125)
            L = alice_select(find_excursions(u_x, t_x, 4))
            reply, _ = bob_reply(L, u_e, t_e, 4, 1)
            idx = reply.indices
            a_bits = u_x[idx] > t_x.q_plus
            e_bits = u_e[idx] > t_e.q_plus
            agree += int((a_bits == e_bits).sum())
            total += idx.size
        assert 0.55 < agree / total < 0.67

    def test_per_probe_efficiency_matches_hardware_scale(self):
        # ~0.12 raw key bits per probe pair at m=4, alpha=1/8; at 9 probe
        # pairs per second that is ~1.1 bits/s -- the order-of-magnitude
        # benchmark for an indoor channel
        rec = make_record(1.0, 0.01, 10.0, 100.0, 100_000, seed=9000)
        res = run_protocol(rec, LevelCrossConfig(alpha=0.125, m=4, window=51, n_au=128, seed=0))
        assert res.authenticated
        per_probe = len(res.raw_key_alice) / 100_000
        assert 0.06 < per_probe < 0.3
        assert 0.5 < per_probe * 9.0 < 3.0

    def test_fast_fading_probe_split_prevents_agreement(self):
        # probing at fs ~ fd with interleaved TDD puts Alice's and Bob's
        # samples half a probe period apart, where the fading has already
        # decorrelated (J0(pi*fd/fs) < 0): their bits disagree and the
        # protocol cannot authenticate
        rec = make_record(1.0, 0.001, 10.0, 9.0, 3600, seed=1)
        res = run_protocol(rec, LevelCrossConfig(alpha=0.125, m=4, window=51, n_au=128, seed=1))
        assert not res.authenticated
        assert res.aborted_reason in ("mac_failure", "fake_L")
        assert len(res.key_alice) == 0


class TestCrossModuleErrorOracle:
    def test_windowed_error_rate_matches_orthant_estimate(self):
        # The per-window conditional error (all m Alice samples beyond one
        # threshold, Bob's interleaved sample beyond the opposite one)
        # measured through the protocol's own signal path must agree with
        # the Gaussian-orthant Monte Carlo estimate at matched parameters.
        m, fs, fd, P, N, alpha = 2, 9.0, 10.0, 1.0, 0.1, 0.8
        pe = pe_levelcross(m, alpha, fs, fd, P, N, 200_000, seed=42)
        opp = tot = 0
        for seed in range(10):
            rec = make_record(P, N, fd, fs, 25000, seed=700 + seed)
            ux = subtract_windowed_mean(rec.x_hat, 501)
            uy = subtract_windowed_mean(rec.y_hat, 501)
            tx = compute_thresholds(ux, alpha)
            ty = compute_thresholds(uy, alpha)
            up = (ux[:-1] > tx.q_plus) & (ux[1:] > tx.q_plus)
            dn = (ux[:-1] < tx.q_minus) & (ux[1:] < tx.q_minus)
            opp += int(np.sum(up & (uy[:-1] < ty.q_minus)) + np.sum(dn & (uy[:-1] > ty.q_plus)))
            tot += int(up.sum() + dn.sum())
        phat = opp / tot
        half = 1.96 * np.sqrt(phat * (1 - phat) / tot)
        joint = half + (pe.ci_high - pe.ci_low) / 2
        assert abs(phat - pe.value) <= joint

    def test_excursion_centers_read_cleaner_than_raw_windows(self):
        # announced centers of maximal runs are deeper into the excursion
        # than an arbitrary m-window, so their conditional error rate sits
        # strictly below the orthant estimate (~0.466 vs ~0.489 here)
        m, fs, fd, P, N, alpha = 2, 9.0, 10.0, 1.0, 0.1, 0.8
        pe = pe_levelcross(m, alpha, fs, fd, P, N, 200_000, seed=42)
        opp = tot = 0
        for seed in range(8):
            rec = make_record(P, N, fd, fs, 25000, seed=700 + seed)
            ux = subtract_windowed_mean(rec.x_hat, 501)
            uy = subtract_windowed_mean(rec.y_hat, 501)
            tx = compute_thresholds(ux, alpha)
            ty = compute_thresholds(uy, alpha)
            L = alice_select(find_excursions(ux, tx, m))
            idx = L.indices
            signs = np.where(ux[idx] > tx.q_plus, 1, -1)
            yv = uy[idx]
            opp += int(np.sum((signs == 1) & (yv < ty.q_minus)) + np.sum((signs == -1) & (yv > ty.q_plus)))
            tot += idx.size
        center_rate = opp / tot
        assert center_rate < pe.value
        assert abs(center_rate - pe.value) < 0.05
