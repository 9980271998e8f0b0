"""Acceptance gate: thirteen end-to-end criteria, one verdict line each.

Each criterion prints ``ACCEPTANCE n: PASS/FAIL — detail`` and then asserts,
so a failing criterion is visible both in the log line and in the pytest
result.  Statistical criteria run at fixed seeds; regimes and tolerances are
stated inline.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import entr, jn_zeros, ndtr
from scipy.stats import chi2_contingency

from fadekey._bits import BitString
from fadekey.analysis import (
    converter_convergence_check,
    mutual_information_estimate,
    pe_levelcross,
    randomness_tests,
    rate_levelcross,
    secret_key_capacity,
)
from fadekey.channel import ChannelParams, gen_fading_trace, gen_iid_gaussian_source, probe_sequence
from fadekey.gaussian_keygen import GaussianConfig, make_quantizer, quantize_and_code, run_gaussian_system
from fadekey.levelcross import (
    LevelCrossConfig,
    alice_select,
    bob_reply,
    compute_thresholds,
    find_excursions,
    run_protocol,
    subtract_windowed_mean,
)
from fadekey.reconcile import decode_syndrome, to_alist
from fadekey.universal import UniversalConfig, heuristic_llr, run_universal_system
from reference_bp import reference_decode


# first null of the spatial correlation J0(2*pi*d/lambda) beyond one
# wavelength (third zero of J0): the nearest placement at which the channel
# model makes the eavesdropper's channel uncorrelated with the legitimate one
D_OVER_LAMBDA_NULL = float(jn_zeros(0, 3)[2]) / (2.0 * math.pi)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _make_record(noise, fd, fs, n_probes, seed, d_over_lambda=None):
    lam = 0.125
    d = lam if d_over_lambda is None else d_over_lambda * lam
    params = ChannelParams(1.0, noise, noise, fd, fs,
                           carrier_wavelength_lambda=lam, eve_distance_d=d)
    trace = gen_fading_trace(params, 2 * n_probes, seed)
    return probe_sequence(trace, params, seed + 1000)


@pytest.fixture(scope="module")
def level_cross_runs():
    """100 seeded end-to-end runs at SNR=20dB, fd=10, fs=100, m=4, alpha=1/8."""
    cfg = LevelCrossConfig(alpha=0.125, m=4, window=51, epsilon=0.1, n_au=128, seed=3)
    results = []
    for i in range(100):
        rec = _make_record(0.01, 10.0, 100.0, 100_000, seed=9000 + i)
        results.append(run_protocol(rec, cfg))
    return results


def test_criterion_01_capacity_formula():
    worst = 0.0
    for snr_db in range(-10, 31, 5):
        snr = 10.0 ** (snr_db / 10.0)
        noise = 1.0 / snr
        got = secret_key_capacity(1.0, noise, noise)
        want = math.log2(1.0 + snr / (2.0 + 1.0 / snr))
        worst = max(worst, abs(got - want) / abs(want))
    _verdict(1, worst <= 1e-12, f"max relative error {worst:.3e} over SNR -10..30 dB (tol 1e-12)")


def test_criterion_02_worked_llr_examples():
    # the LLR arithmetic is type-generic; rational inputs make "exactly"
    # meaningful (binary floats cannot even represent 0.3)
    (a,) = heuristic_llr(Fraction(3, 10), Fraction(1, 5), 1)
    (b,) = heuristic_llr(Fraction(1, 2), Fraction(1, 5), 1)
    ok = (a == Fraction(3, 10)) and (b == Fraction(-1, 10))
    _verdict(2, ok, f"heuristic_llr(0.3,0.2,1)={a} (want 3/10), heuristic_llr(0.5,0.2,1)={b} (want -1/10), exact")


def test_criterion_03_converter_convergence():
    est = converter_convergence_check([100, 1000, 10000], trials=200, seed=3)
    bounds = {n: n ** -0.25 for n in est}
    ok = all(est[n] <= bounds[n] for n in est)
    detail = ", ".join(f"n={n}: {est[n]:.4f} <= {bounds[n]:.4f}" for n in sorted(est))
    _verdict(3, ok, detail)


def test_criterion_04_pe_monotone_in_m():
    ests = {}
    for m in (2, 3, 4, 5):
        # SNR 10 dB, slow probing
        ests[m] = pe_levelcross(m, 0.8, 9.0, 10.0, 1.0, 0.1, 100_000, seed=40 + m)
    vals = [ests[m].value for m in (2, 3, 4, 5)]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    separated = ests[2].ci_low > ests[5].ci_high
    detail = ("pe(m=2..5) = " + ", ".join(f"{v:.4f}" for v in vals)
              + f"; CI(m=2) low {ests[2].ci_low:.4f} vs CI(m=5) high {ests[5].ci_high:.4f}")
    _verdict(4, decreasing and separated, detail)


def test_criterion_05_rate_saturation():
    rates = {}
    for fs in (100.0, 400.0, 1000.0, 4000.0):
        rates[fs] = rate_levelcross(4, 0.8, fs, 10.0, 1.0, 0.001, 200_000, seed=9).value
    ratio = rates[4000.0] / rates[400.0]
    bound_ok = all(r <= 5.0 * 10.0 for r in rates.values())
    detail = (f"R(4000)/R(400) = {ratio:.3f} (< 2), max R {max(rates.values()):.2f}"
              f" <= 5*fd = 50")
    _verdict(5, ratio < 2.0 and bound_ok, detail)


def _eve_raw_agreement(d_over_lambda):
    """Eve runs Bob's side of steps 3-4 on her own trace; her raw-bit agreement."""
    agree = total = 0
    for seed in range(4):
        rec = _make_record(0.01, 10.0, 100.0, 40_000, seed=500 + seed, d_over_lambda=d_over_lambda)
        u_x = subtract_windowed_mean(rec.x_hat, 51)
        u_e = subtract_windowed_mean(rec.e_hat, 51)
        t_x = compute_thresholds(u_x, 0.125)
        t_e = compute_thresholds(u_e, 0.125)
        msg_l = alice_select(find_excursions(u_x, t_x, 4))
        reply, _ = bob_reply(msg_l, u_e, t_e, 4, 1)
        a_bits = u_x[reply.indices] > t_x.q_plus
        e_bits = u_e[reply.indices] > t_e.q_plus
        agree += int((a_bits == e_bits).sum())
        total += reply.indices.size
    return agree / total


def test_criterion_06_end_to_end_level_crossing(level_cross_runs):
    identical = sum(
        1 for r in level_cross_runs
        if r.aborted_reason is None and len(r.key_alice) > 0 and r.key_alice == r.key_bob
    )

    # an eavesdropper whose channel the model decorrelates gains nothing
    # from the public messages; at d = lambda (J0(2*pi) ~ 0.22) she keeps a
    # raw-bit advantage, reported here and priced by the privacy-amplified
    # key length rather than asserted away
    eve_null = _eve_raw_agreement(D_OVER_LAMBDA_NULL)
    eve_lambda = _eve_raw_agreement(1.0)

    ok_keys = identical >= 99
    ok_eve = abs(eve_null - 0.5) <= 0.05
    detail = (f"identical keys {identical}/100 (need >= 99); "
              f"Eve raw-bit agreement at the J0 null d={D_OVER_LAMBDA_NULL:.3f} lambda "
              f"{eve_null:.3f} (need 0.50 +/- 0.05); at d=lambda {eve_lambda:.3f} "
              f"(reported: spatial correlation 0.22 leaves a raw-bit advantage, "
              f"which the hashed key's length allowance is sized to remove)")
    _verdict(6, ok_keys and ok_eve, detail)


def test_criterion_07_gaussian_overquantized_system(code4096):
    # clause 1: 20 dB, net rate within 1.5 bits/sample of what the source
    # can yield, at FER <= 10%.  The source is the real-valued pair
    # X = F + Z_A, Y = F + Z_B, whose I(X;Y) = -1/2*log2(1 - rho^2) with
    # rho = P/(P + N) bounds the secret-key rate per sample (Maurer 1993);
    # secret_key_capacity is twice that, the complex-sample form.  A
    # rate-1/2 code nets v/2 bits per sample, so v is the smallest kept-bit
    # width whose v/2 clears the bar and that divides the 4096-bit block.
    # Stop early once more than 5 of the 50 blocks have failed, which
    # settles FER > 10%.
    P, N = 1.0, 0.01
    rho = P / (P + N)
    bar = -0.5 * math.log2(1.0 - rho * rho) - 1.5
    v = next(w for w in range(1, code4096.n + 1) if code4096.n % w == 0 and w / 2 >= bar)
    n_samples = code4096.n // v
    fails = 0
    net_sum = 0.0
    blocks_run = 0
    for b in range(50):
        out = run_gaussian_system(GaussianConfig(
            code=code4096, v=v, n_samples=n_samples, variant="overquant", m_over=1,
            P=P, N=N, seed=700 + b))
        fails += not out.decode_success
        net_sum += out.net_rate_bits_per_sample
        blocks_run += 1
        if fails > 5:
            break
    fer1 = fails / blocks_run
    clause1 = fer1 <= 0.10 and (net_sum / blocks_run) >= bar

    # clause 2: over-quantization does not raise FER at equal v=1, at every
    # integer SNR of the 5-12 dB sweep where a rate-1/2 code goes from
    # certain failure (H(X_1|Y) = 0.665 bit > 0.5 at 5 dB) to certain success
    fer = {}
    for snr_db in range(5, 13):
        noise = 10.0 ** (-snr_db / 10.0)
        for variant, m in (("basic", 0), ("overquant", 1)):
            f = sum(
                not run_gaussian_system(GaussianConfig(
                    code=code4096, v=1, n_samples=code4096.n, variant=variant, m_over=m,
                    P=1.0, N=noise, seed=730 + b)).decode_success
                for b in range(20))
            fer[snr_db, variant] = f / 20
    snrs = range(5, 13)
    clause2 = all(fer[s, "overquant"] <= fer[s, "basic"] for s in snrs)

    sweep = ", ".join(f"{s}: {fer[s, 'overquant']:.2f}<={fer[s, 'basic']:.2f}" for s in snrs)
    detail = (f"20 dB v={v} n_samples={n_samples}: FER {fails}/{blocks_run} blocks, mean net "
              f"{net_sum / blocks_run:.3f} vs bar {bar:.3f} (I(X;Y) - 1.5); "
              f"v=1 FER overquant<=basic by dB: {sweep}")
    _verdict(7, clause1 and clause2, detail)


def _sign_bit_equivocation(snr_db):
    """H(X_1|Y) in bits for the v = 1 (sign) bit of X = F + Z_A given Y = F + Z_B.

    P = 1 and N = 10^(-snr_db/10), as both systems draw the source.  Given
    Y = y, X is N(a y, s^2) with a = P/(P+N) and s^2 = (2PN + N^2)/(P+N), so
    Pr(X > 0 | y) = Phi(a y / s); its binary entropy is averaged over
    Y ~ N(0, P+N).
    """
    P, N = 1.0, 10.0 ** (-snr_db / 10.0)
    a, s, sy = P / (P + N), math.sqrt((2.0 * P * N + N * N) / (P + N)), math.sqrt(P + N)

    def integrand(y):
        p = ndtr(a * y / s)
        density = math.exp(-0.5 * (y / sy) ** 2) / (sy * math.sqrt(2.0 * math.pi))
        return (entr(p) + entr(1.0 - p)) / math.log(2.0) * density

    return quad(integrand, -math.inf, math.inf)[0]


def test_criterion_08_universal_tracks_overquantized(code400):
    # A v = 1 block reveals a 0.5-bit-per-sample syndrome, and Bob can only
    # recover Alice's bits where H(X_1|Y) is below that budget (Slepian-Wolf);
    # below it both systems fail every block and the comparison is empty.  The
    # points are the 0-20 dB grid in 5 dB steps, kept where H(X_1|Y) < 0.5 as
    # computed here, never by outcome.
    points = [(snr, h) for snr in (0.0, 5.0, 10.0, 15.0, 20.0)
              if (h := _sign_bit_equivocation(snr)) < 0.5]
    worst_gap = 0.0
    details = []
    for snr, h in points:
        noise = 10.0 ** (-snr / 10.0)
        net_u = np.mean([
            run_universal_system(UniversalConfig(
                v=1, n_samples=400, code=code400, snr_db=snr, seed=s)
            ).net_rate_bits_per_sample
            for s in range(10)])
        net_g = np.mean([
            run_gaussian_system(GaussianConfig(
                code=code400, v=1, n_samples=400, variant="overquant", m_over=1,
                P=1.0, N=noise, seed=s)).net_rate_bits_per_sample
            for s in range(10)])
        worst_gap = max(worst_gap, abs(net_u - net_g))
        details.append(f"{snr:g} dB (H(X1|Y) {h:.3f}): universal {net_u:.3f} vs overquant {net_g:.3f}")
    _verdict(8, bool(points) and worst_gap <= 0.5,
             "; ".join(details) + f" (max gap {worst_gap:.3f}, tol 0.5)")


def test_criterion_09_short_block_shape(code400):
    out = run_gaussian_system(GaussianConfig(
        code=code400, v=2, n_samples=200, variant="basic", P=1.0, N=1e-3, seed=12))
    ok = out.decode_success and out.net_bits == 200
    _verdict(9, ok, f"n=400 LDPC, v=2, 200 high-SNR samples: success={out.decode_success}, "
                    f"net bits {out.net_bits} (want exactly 200)")


def test_criterion_10_over_bit_independence():
    xs, _ = gen_iid_gaussian_source(1.0, 0.1, 0.1, 100_000, seed=[2024, 0])
    spec = make_quantizer(1.1, 2, 1)
    reg, over = quantize_and_code(xs, spec)
    r = reg.to_array().reshape(-1, 2)
    table = np.zeros((4, 2))
    np.add.at(table, (r[:, 0] * 2 + r[:, 1], over.to_array()), 1)
    p = chi2_contingency(table).pvalue
    _verdict(10, p > 0.01, f"chi-square independence p = {p:.4f} (alpha 0.01, 1e5 samples, v=2 m=1)")


def test_criterion_11_mi_estimator():
    rng = np.random.default_rng([11, 0])
    z = rng.standard_normal((100_000, 2))
    rho = 0.9
    xs, ys = z[:, 0], rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1]
    dep = mutual_information_estimate(xs, ys).bits
    indep = mutual_information_estimate(z[:, 0], z[:, 1]).bits
    ok = abs(dep - 1.203) / 1.203 <= 0.10 and abs(indep) <= 0.02
    _verdict(11, ok, f"rho=0.9: {dep:.4f} bits (want 1.203 +/- 10%); independent: {indep:.4f} (tol 0.02)")


def test_criterion_12_key_randomness(level_cross_runs):
    keys = [r.key_alice for r in level_cross_runs
            if r.aborted_reason is None and len(r.key_alice) > 0]
    pooled = np.concatenate([k.to_array() for k in keys])
    res = randomness_tests(pooled)
    ok = res["monobit_p"] > 0.01 and res["runs_p"] > 0.01
    _verdict(12, ok,
             f"{pooled.size} pooled privacy-amplified key bits from {len(keys)} runs: "
             f"monobit p {res['monobit_p']:.4f}, runs p {res['runs_p']:.4f} (alpha 0.01; "
             f"the secrecy evidence is the entropy-sized length, not these tests)")


def test_criterion_13_decoder_oracle_equivalence(code400):
    alist = to_alist(code400)
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(20):
        llr = rng.normal(1.2, 1.8, size=400)
        ok_r, it_r, hard_r = reference_decode(alist, np.zeros(200, np.uint8), llr)
        res = decode_syndrome(code400, BitString.zeros(200), llr)
        same = (res.success == ok_r and res.iterations == it_r
                and res.bits.to_array().tolist() == hard_r.tolist())
        mismatches += not same
    _verdict(13, mismatches == 0, f"{20 - mismatches}/20 seeded all-zero-coset decodes bit-exact vs reference")
