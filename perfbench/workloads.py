"""The three workloads: inputs made from the seed, timed calls, output checks.

Each workload is a fixed round of operations.  ``inputs`` makes one
operation's inputs from the run seed outside the timed region, ``run``
is the timed call into fadekey, and ``check`` compares the output with the
references in ``checks`` and returns failure messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jn_zeros

import checks

CODE_N = 4096
CODE_SEED = 4096
P = 1.0
LLR_PICKS = 3  # samples per Gaussian block whose LLRs are checked

# level-crossing campaign: the acceptance criterion-6 setting and CLI default
LC_PROBES = 100_000
LC_FD = 10.0
LC_FS = 100.0
LC_NOISE = 0.01  # 20 dB
LC_LAMBDA = 0.125
# Eve at the first null of J0(2 pi d / lambda) beyond one wavelength
LC_EVE_D = float(jn_zeros(0, 3)[2]) / (2.0 * math.pi) * LC_LAMBDA
LC_CONFIG = dict(alpha=0.125, m=4, window=51, epsilon=0.1, n_au=128, seed=3)


def noise_at(snr_db: float) -> float:
    return P * 10.0 ** (-snr_db / 10.0)


def gaussian_source(seed, n: int, noise: float):
    """X = F + Z_A, Y = F + Z_B with F ~ N(0, P), Z ~ N(0, noise)."""
    rng = np.random.default_rng(seed)
    f = rng.normal(0.0, math.sqrt(P), n)
    return f + rng.normal(0.0, math.sqrt(noise), n), f + rng.normal(0.0, math.sqrt(noise), n)


@dataclass(frozen=True)
class Kind:
    """One operation shape: a campaign, or a block of one system at one SNR."""

    label: str
    system: str  # "levelcross" | "basic" | "overquant" | "universal"
    snr_db: float = 20.0
    v: int = 1
    m_over: int = 0

    def inputs(self, code, seed: int, r: int, k: int):
        """Inputs of operation k of round r; op_seed also keys fadekey's PA seed."""
        op_seed = (seed * 1_000 + r) * 16 + k
        if self.system == "levelcross":
            return {"op_seed": op_seed}
        xs, ys = gaussian_source([op_seed, 1], code.n // self.v, noise_at(self.snr_db))
        return {"op_seed": op_seed, "xs": xs, "ys": ys}

    def run(self, fk, code, inp):
        if self.system == "levelcross":
            return run_campaign(fk, inp["op_seed"])
        if self.system == "universal":
            cfg = fk.universal.UniversalConfig(v=self.v, n_samples=len(inp["xs"]), code=code,
                                               seed=inp["op_seed"], xs=inp["xs"], ys=inp["ys"])
            return fk.universal.run_universal_system(cfg)
        cfg = fk.gaussian_keygen.GaussianConfig(
            code=code, v=self.v, n_samples=len(inp["xs"]), variant=self.system,
            m_over=self.m_over, P=P, N=noise_at(self.snr_db), seed=inp["op_seed"],
            xs=inp["xs"], ys=inp["ys"])
        return run_block_keeping_llrs(fk.gaussian_keygen, cfg)

    def check(self, fk, inp, out) -> list[str]:
        if self.system == "levelcross":
            return check_campaign(out)
        pa_seed = [inp["op_seed"], 7]
        n = len(inp["xs"])
        if self.system == "universal":
            bits = checks.rank_quantizer_bits(inp["xs"], self.v, self.v + 2)
            return checks.check_block(out, bits, n * self.v, pa_seed)
        outcome, used_llr = out
        noise = noise_at(self.snr_db)
        bits, over_rows = checks.gaussian_bits(inp["xs"], P + noise, self.v, self.m_over)
        fails = checks.check_block(outcome, bits, n * self.v, pa_seed)
        spec = fk.gaussian_keygen.make_quantizer(P + noise, self.v, self.m_over)
        picks = np.random.default_rng([inp["op_seed"], 2]).choice(n, LLR_PICKS, replace=False)
        fails += checks.check_llrs(fk.gaussian_keygen.llr_overquantized, spec, inp["ys"], over_rows,
                                   picks, self.v, self.m_over, P, noise)
        fails += checks.check_used_llrs(used_llr, inp["ys"], over_rows, picks, self.v, self.m_over,
                                        P, noise)
        return fails


def run_block_keeping_llrs(gk, cfg):
    """(outcome, LLRs the block passed to the decoder) of one Gaussian block.

    The LLRs come from a batched path inside ``run_gaussian_system``, not
    from ``llr_overquantized``, so the decoder's input is captured at
    ``gaussian_keygen.decode_syndrome`` and checked too.  The wrapper costs
    one extra call and one 4096-entry copy per block.
    """
    decode = gk.decode_syndrome
    used = []

    def keep_llrs(code, syn, llr, *args, **kwargs):
        used.append(np.array(llr, dtype=np.float64))
        return decode(code, syn, llr, *args, **kwargs)

    gk.decode_syndrome = keep_llrs
    try:
        outcome = gk.run_gaussian_system(cfg)
    finally:
        gk.decode_syndrome = decode
    return outcome, used[-1]


def run_campaign(fk, op_seed: int):
    """gen_fading_trace -> probe_sequence -> run_protocol for one campaign."""
    params = fk.channel.ChannelParams(P, LC_NOISE, LC_NOISE, LC_FD, LC_FS,
                                      carrier_wavelength_lambda=LC_LAMBDA, eve_distance_d=LC_EVE_D)
    trace = fk.channel.gen_fading_trace(params, 2 * LC_PROBES, op_seed)
    record = fk.channel.probe_sequence(trace, params, op_seed + 1)
    result = fk.levelcross.run_protocol(record, fk.levelcross.LevelCrossConfig(**LC_CONFIG))
    return trace.samples, record.x_hat, record.y_hat, record.e_hat, result


def check_campaign(out) -> list[str]:
    samples, x_hat, y_hat, e_hat, result = out
    c = LC_CONFIG
    ref = checks.levelcross_reference(x_hat, y_hat, e_hat, c["alpha"], c["m"], c["window"], c["epsilon"])
    return (checks.check_channel(samples, LC_FD, 1.0 / (2.0 * LC_FS), P)
            + checks.check_campaign_keys(result, ref, c["seed"])
            + checks.check_eve(ref))


WORKLOADS = {
    # the paper's headline protocol and the CLI levelcross-sim default;
    # synthesis-bound, bypasses PEG, BP and the quantizer LLRs
    "levelcross-campaign": [Kind("campaign", "levelcross")],
    # criterion 7's block with a 2^12-cell over-quantizer: LLR-bound,
    # bypasses the channel synthesis
    "overquant-fine": [Kind("overquant-v4-m8-20dB", "overquant", 20.0, v=4, m_over=8)],
    # one pass of a rate-curve sweep above the decoding threshold plus
    # universal blocks: PA- and decode-bound, 2-4 LLR cells per sample
    "reconcile-sweep": [
        Kind("basic-12dB", "basic", 12.0),
        Kind("basic-13dB", "basic", 13.0),
        Kind("overquant-11dB", "overquant", 11.0, m_over=1),
        Kind("overquant-12dB", "overquant", 12.0, m_over=1),
        Kind("universal-v2-15dB", "universal", 15.0, v=2),
        Kind("universal-v2-20dB", "universal", 20.0, v=2),
    ],
}


def needs_code(workload: str) -> bool:
    return any(k.system != "levelcross" for k in WORKLOADS[workload])
