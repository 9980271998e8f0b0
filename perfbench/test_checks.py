"""Tests of the benchmark's own checkers.

    python3 -m pytest -q perfbench/test_checks.py

Each reference is compared with a brute-force computation on tiny inputs
and with fadekey on small ones, and a corrupted output must be reported as
a failed operation.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import fadekey as fk  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import measure, run_op  # noqa: E402


@pytest.fixture(scope="module")
def code400():
    return fk.reconcile.ldpc_generate(400, 400)


def _gaussian_block(code, seed, snr_db=20.0):
    n = code.n
    xs, ys = workloads.gaussian_source([seed, 1], n, workloads.noise_at(snr_db))
    cfg = fk.gaussian_keygen.GaussianConfig(code=code, v=1, n_samples=n, variant="basic",
                                            N=workloads.noise_at(snr_db), seed=seed, xs=xs, ys=ys)
    return xs, fk.gaussian_keygen.run_gaussian_system(cfg)


def _flip_first(bitstring):
    a = bitstring.to_array().copy()
    a[0] ^= 1
    return fk.BitString(a)


@pytest.mark.parametrize("L,out_len,seed", [(1, 1, 0), (5, 3, 1), (9, 9, 2), (12, 4, [3, 7])])
def test_toeplitz_matches_brute_force(L, out_len, seed):
    bits = np.random.default_rng(L).integers(0, 2, L).astype(np.uint8)
    t = np.random.default_rng(seed).integers(0, 2, size=out_len + L - 1, dtype=np.int64)
    T = np.array([[t[i - j + L - 1] for j in range(L)] for i in range(out_len)])
    assert np.array_equal(checks.toeplitz_hash(bits, out_len, seed, rows_per_chunk=2), (T @ bits) % 2)


def test_toeplitz_matches_fadekey():
    bits = fk.BitString(np.random.default_rng(5).integers(0, 2, 3000))
    want = fk.reconcile.privacy_amplify(bits, 700, 99)
    assert np.array_equal(checks.toeplitz_hash(bits, 700, 99), want.to_array())


@pytest.mark.parametrize("seed", range(6))
def test_markov_matches_path_products(seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random(40) < rng.random()).astype(np.uint8)
    k = 8
    b = bits.astype(int)
    counts = np.zeros((2, 2))
    for a, c in zip(b[:-1], b[1:]):
        counts[a, c] += 1
    trans = np.array([counts[a] / counts[a].sum() if counts[a].sum() else np.eye(2)[a] for a in (0, 1)])
    init = [1 - b.mean(), b.mean()]
    paths = ["0" * k, "1" * k, "01" * (k // 2), "10" * (k // 2), "0" + "1" * (k - 1), "1" + "0" * (k - 1)]
    p_max = max(init[int(s[0])] * math.prod(trans[int(a), int(c)] for a, c in zip(s[:-1], s[1:]))
                for s in paths)
    want = min(-math.log2(p_max) / k, 1.0)
    assert checks.markov_min_entropy(bits, horizon=k) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_markov_matches_fadekey(seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random(500) < [0.5, 0.2, 0.9, 0.0][seed]).astype(np.uint8)
    bits[::3] ^= seed % 2
    assert checks.markov_min_entropy(bits) == pytest.approx(fk.analysis.markov_min_entropy(bits), abs=1e-12)


def test_gray_and_equiprobable_cells_match_fadekey():
    spec = fk.gaussian_keygen.make_quantizer(1.1, 2, 3)
    xs = np.random.default_rng(0).normal(0, math.sqrt(1.1), 2000)
    cells = checks.equiprobable_cells(xs, 1.1, 5)
    assert np.array_equal(cells, np.searchsorted(spec.boundaries[1:-1], xs, side="right"))
    kept, over = checks.gaussian_bits(xs, 1.1, 2, 3)
    reg, pub = fk.gaussian_keygen.quantize_and_code(xs, spec)
    assert np.array_equal(kept, reg.to_array())
    assert np.array_equal(over.reshape(-1), pub.to_array())
    for c in range(32):
        assert list(checks.gray_bits(np.array([c]), 5)[0]) == list(fk.gaussian_keygen.gray_encode(c, 5).to_array())


@pytest.mark.parametrize("n,v,A", [(37, 2, 4), (2048, 2, 4), (100, 1, 3)])
def test_rank_quantizer_matches_per_sample_loop(n, v, A):
    xs = np.random.default_rng(n).normal(size=n)
    u = fk.universal.fixed_point_convert(xs, A).values
    want = np.concatenate([fk.universal.uniform_quantize(x, v)[0] for x in u])
    assert np.array_equal(checks.rank_quantizer_bits(xs, v, A), want)


@pytest.mark.parametrize("y", [-1.3, 0.02, 0.7, 2.9])
def test_llr_reference_matches_integration_and_fadekey(y):
    v, m_over, P, N = 2, 1, 1.0, 0.3
    k = v + m_over
    edges = math.sqrt(P + N) * norm.ppf(np.arange(2**k + 1) / 2**k)
    mu, s = P / (P + N) * y, math.sqrt((2 * P * N + N * N) / (P + N))
    codes = checks.gray_bits(np.arange(2**k), k)
    over = np.array([1], dtype=np.uint8)
    mass = [integrate.quad(lambda x: norm.pdf(x, mu, s), edges[j], edges[j + 1])[0] for j in range(2**k)]
    want = []
    for i in range(v):
        m0 = sum(mass[j] for j in range(2**k) if codes[j, v] == 1 and codes[j, i] == 0)
        m1 = sum(mass[j] for j in range(2**k) if codes[j, v] == 1 and codes[j, i] == 1)
        want.append(math.log(m0 / m1))
    got = checks.llr_reference(y, over, v, m_over, P, N)
    assert got == pytest.approx(np.clip(want, -30, 30), abs=1e-7)
    spec = fk.gaussian_keygen.make_quantizer(P + N, v, m_over)
    assert checks.check_llrs(fk.gaussian_keygen.llr_overquantized, spec, [y], [over], [0],
                             v, m_over, P, N) == []


def test_block_check_passes_and_catches_a_flipped_key_bit(code400):
    xs, out = _gaussian_block(code400, seed=11)
    bits, _ = checks.gaussian_bits(xs, 1.0 + workloads.noise_at(20.0), 1, 0)
    assert checks.check_block(out, bits, 400, [11, 7]) == []
    out.key_bits = _flip_first(out.key_bits)
    assert checks.check_block(out, bits, 400, [11, 7])


class FlippedKey(workloads.Kind):
    """A kind whose output key has its first bit flipped."""

    def run(self, fk_, code, inp):
        out = super().run(fk_, code, inp)
        outcome = out if self.system == "universal" else out[0]
        outcome.key_bits = _flip_first(outcome.key_bits)
        return out


class ShiftedLlr(workloads.Kind):
    """A kind whose batched LLR path is off by 1e-3 (the blocks still decode)
    while ``llr_overquantized``, called only by the check, stays right."""

    def run(self, fk_, code, inp):
        gk = fk_.gaussian_keygen
        batched = gk._llr_from_logp
        gk._llr_from_logp = lambda *a: batched(*a) + 1e-3
        try:
            return super().run(fk_, code, inp)
        finally:
            gk._llr_from_logp = batched


def _like(cls, kind):
    return cls(kind.label, kind.system, kind.snr_db, kind.v, kind.m_over)


def test_corrupted_output_counts_as_failed_operation(code400):
    for kind in (workloads.Kind("overquant", "overquant", 20.0, m_over=2),
                 workloads.Kind("universal", "universal", 20.0, v=2)):
        inp = kind.inputs(code400, 0, 0, 0)
        t_ok, fails_ok = run_op(kind, fk, code400, inp)
        assert t_ok > 0 and fails_ok == []
        _, fails_bad = run_op(_like(FlippedKey, kind), fk, code400, inp)
        assert len(fails_bad) == 1 and "Toeplitz" in fails_bad[0]


def test_wrong_decoder_llrs_count_as_failed_operation(code400):
    kind = workloads.Kind("overquant", "overquant", 20.0, v=2, m_over=2)
    inp = kind.inputs(code400, 0, 0, 0)
    _, fails = run_op(_like(ShiftedLlr, kind), fk, code400, inp)
    assert fails and all(f.startswith("decoder LLRs") for f in fails)


@pytest.mark.parametrize("traced", [False, True])
def test_run_with_a_corrupted_operation_is_not_correct(code400, traced):
    good = workloads.Kind("basic", "basic", 20.0)
    tracer = (lambda: Tracer(fk)) if traced else (lambda: None)
    ok = measure("t", [good], fk, code400, 0, 0.0, tracer())
    assert ok["correct"] and ok["failed"] == 0 and ok["attempted"] == (2 if traced else 1)
    bad = measure("t", [good, _like(FlippedKey, good)], fk, code400, 0, 0.0, tracer())
    assert not bad["correct"] and bad["failed"] == bad["attempted"] // 2


def test_traced_run_rejects_a_span_outside_its_operation(code400):
    tracer = Tracer(fk)
    res = measure("t", [workloads.Kind("basic", "basic", 20.0)], fk, code400, 0, 0.0, tracer)
    assert res["correct"]
    op = res["traced_ops"][0][0]
    span = next(sp for sp in tracer.spans if sp[4] == op)
    span[2] = tracer.windows[op][1] + 1.0
    assert not tracer.nested(op)


@pytest.fixture(scope="module")
def small_campaign():
    params = fk.channel.ChannelParams(1.0, 0.01, 0.01, 10.0, 100.0, carrier_wavelength_lambda=0.125,
                                      eve_distance_d=workloads.LC_EVE_D)
    trace = fk.channel.gen_fading_trace(params, 40_000, 21)
    rec = fk.channel.probe_sequence(trace, params, 22)
    cfg = fk.levelcross.LevelCrossConfig(**workloads.LC_CONFIG)
    return rec, fk.levelcross.run_protocol(rec, cfg)


def test_levelcross_reference_matches_protocol(small_campaign):
    rec, result = small_campaign
    c = workloads.LC_CONFIG
    ref = checks.levelcross_reference(rec.x_hat, rec.y_hat, rec.e_hat, c["alpha"], c["m"], c["window"],
                                      c["epsilon"])
    u_x = fk.levelcross.subtract_windowed_mean(rec.x_hat, c["window"])
    t_x = fk.levelcross.compute_thresholds(u_x, c["alpha"])
    assert ref["announced"] == len(fk.levelcross.find_excursions(u_x, t_x, c["m"]))
    assert checks.check_campaign_keys(result, ref, c["seed"]) == []
    result.key_alice = _flip_first(result.key_alice)
    assert checks.check_campaign_keys(result, ref, c["seed"])


def test_channel_check_rejects_a_white_trace():
    white = np.random.default_rng(0).normal(size=200_000)
    assert checks.check_channel(white, 10.0, 0.005)


def test_channel_check_rejects_a_wrong_variance(small_campaign):
    rec, _ = small_campaign
    fading = rec.x_hat - rec.x_hat.mean()
    fading /= fading.std()
    assert checks.check_channel(fading, 10.0, 0.01) == []
    fails = checks.check_channel(1.2 * fading, 10.0, 0.01)
    assert len(fails) == 1 and fails[0].startswith("trace variance")
