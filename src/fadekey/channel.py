"""Correlated-randomness source: reciprocal probes of a Rayleigh-fading channel.

Alice and Bob probe a common scalar fading process F(t) in TDD fashion and
obtain noisy estimates; an eavesdropper at distance d observes a spatially
decorrelated copy of the same process.  The temporal autocorrelation follows
the Clarke/Jakes model J0(2*pi*fd*tau).  Traces are synthesised by the
IDFT method: complex white noise shaped by the square root of the Jakes
Doppler spectrum, integrated over each DFT bin and folded modulo the sample
rate.  The resulting ACF is a sum of cosines weighted by nonnegative bin
masses, so it is a valid covariance by construction and needs no clamping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import j0

__all__ = [
    "ChannelParams",
    "FadingTrace",
    "ProbeRecord",
    "jakes_acf",
    "gen_fading_trace",
    "probe_sequence",
    "eavesdropper_trace",
    "gen_iid_gaussian_source",
    "write_probe_csv",
    "read_probe_csv",
]


@dataclass
class ChannelParams:
    signal_variance_P: float  # variance of the fading process F (linear power)
    noise_variance_A: float  # Alice's estimation-noise variance
    noise_variance_B: float  # Bob's estimation-noise variance
    doppler_fd: float  # maximum Doppler shift, Hz
    probe_rate_fs: float  # probe-pair rate, probes/s
    carrier_wavelength_lambda: float = 0.125  # carrier wavelength, m
    eve_distance_d: float = 0.125  # Eve's distance from Bob, m

    def __post_init__(self):
        for name in ("signal_variance_P", "noise_variance_A", "noise_variance_B", "eve_distance_d"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        for name in ("doppler_fd", "probe_rate_fs", "carrier_wavelength_lambda"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass
class FadingTrace:
    samples: np.ndarray  # channel amplitude F(t_k), linear units
    sample_times: np.ndarray  # seconds, strictly increasing, spacing 1/(2 fs)
    params: ChannelParams

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.sample_times = np.asarray(self.sample_times, dtype=np.float64)
        if self.samples.shape != self.sample_times.shape:
            raise ValueError("samples and sample_times must have equal length")
        if self.samples.size >= 2 and not np.all(np.diff(self.sample_times) > 0):
            raise ValueError("sample_times must be strictly increasing")

    def __len__(self):
        return self.samples.size


@dataclass
class ProbeRecord:
    x_hat: np.ndarray  # Alice's noisy channel estimates
    y_hat: np.ndarray  # Bob's noisy channel estimates
    e_hat: np.ndarray  # Eve's noisy estimates of her own channel copy
    x_times: np.ndarray  # Alice's probe instants, seconds
    y_times: np.ndarray  # Bob's probe instants (offset by 1/(2 fs))
    e_times: np.ndarray  # Eve's observation instants

    def __post_init__(self):
        if not (len(self.x_hat) == len(self.y_hat) == len(self.x_times) == len(self.y_times)):
            raise ValueError("Alice and Bob probe sequences must have equal length")

    def __len__(self):
        return len(self.x_hat)


def jakes_acf(tau, fd):
    """Temporal correlation coefficient J0(2*pi*fd*tau) of the fading process.

    Accepts scalar or array lags; total on its domain (fd > 0).
    """
    return j0(2.0 * np.pi * fd * np.asarray(tau, dtype=np.float64))


def _jakes_bin_masses(P, fd, N, dt):
    """Jakes spectral mass of each of the N DFT bins at sample spacing dt.

    Bin j covers the frequencies [(j - 1/2) df, (j + 1/2) df], df = 1/(N dt),
    and receives the exact integral of the Doppler density
    P / (pi sqrt(fd^2 - f^2)) over them.  Bins beyond +-1/(2 dt) fold
    modulo the sample rate onto bin j mod N, as sampling aliases them, so
    the masses sum to P for any fd.
    """
    df = 1.0 / (N * dt)
    reach = int(np.ceil(fd / df)) + 1
    masses = np.zeros(N)
    # one period of bins per pass keeps memory at O(N) when fd >> 1/dt
    for start in range(-reach, reach + 1, N):
        j = np.arange(start, min(start + N, reach + 1))
        edges = np.append(j - 0.5, j[-1] + 0.5) * df
        cdf = np.arcsin(np.clip(edges / fd, -1.0, 1.0))
        masses += np.bincount(j % N, weights=np.diff(cdf), minlength=N)
    return masses * (P / np.pi)


@lru_cache(maxsize=1)
def _fading_spectrum(P, fd, n, dt):
    """Square-root Jakes spectrum for an n-sample trace: (amplitudes, N).

    Young & Beaulieu's IDFT method: complex white noise shaped by the
    square root of the bin-integrated Doppler spectrum at FFT size N.  The
    synthesised ACF at lag k is sum_j mass_j cos(2 pi j k / N), periodic in
    N, so N >= 2n keeps every lag of the trace in the first half-period;
    the 2^18 floor keeps the bins fine for short traces.

    The spectrum depends only on (P, fd, n, dt), and a campaign needs it
    twice (Bob's trace and Eve's independent copy), as does every seeded
    repeat of a campaign.  The last one is kept; it is read-only because
    it is shared between calls.
    """
    N = next_fast_len(max(2 * n, 1 << 18))
    amplitudes = np.sqrt(_jakes_bin_masses(P, fd, N, dt))
    amplitudes.flags.writeable = False
    return amplitudes, N


def _gaussian_from_spectrum(sqrt_eigs, m, n, rng):
    """One stationary Gaussian sequence of length n with the embedded ACF."""
    xi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = np.fft.fft(sqrt_eigs * xi)
    return np.ascontiguousarray(f.real[:n])


def gen_fading_trace(params: ChannelParams, n_samples: int, seed: int) -> FadingTrace:
    """Synthesise a stationary zero-mean Gaussian fading trace.

    Samples are spaced dt = 1/(2 fs) so that interleaved Alice/Bob probe
    instants fall on consecutive samples.  Variance is P and the lag-tau
    autocorrelation is P*J0(2*pi*fd*tau).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    dt = 1.0 / (2.0 * params.probe_rate_fs)
    times = np.arange(n_samples) * dt
    if params.signal_variance_P == 0.0:
        return FadingTrace(np.zeros(n_samples), times, params)
    rng = np.random.default_rng(seed)
    sqrt_eigs, m = _fading_spectrum(params.signal_variance_P, params.doppler_fd, n_samples, dt)
    samples = _gaussian_from_spectrum(sqrt_eigs, m, n_samples, rng)
    return FadingTrace(samples, times, params)


def probe_sequence(trace: FadingTrace, params: ChannelParams, seed: int) -> ProbeRecord:
    """Interleaved TDD probing of a fading trace by Alice, Bob, and Eve.

    Alice observes even-index samples (times k/fs), Bob odd-index samples
    (times k/fs + 1/(2 fs)); both add independent Gaussian estimation noise.
    Eve observes her spatially decorrelated copy of the channel at Bob's
    instants, with noise variance equal to Bob's.
    """
    n = len(trace) // 2
    if n < 1:
        raise ValueError("trace too short for a single probe pair")
    rng = np.random.default_rng([seed, 0])
    f_alice = trace.samples[0 : 2 * n : 2]
    f_bob = trace.samples[1 : 2 * n : 2]
    x_hat = f_alice + rng.normal(0.0, np.sqrt(params.noise_variance_A), n)
    y_hat = f_bob + rng.normal(0.0, np.sqrt(params.noise_variance_B), n)
    eve_full = eavesdropper_trace(
        trace,
        params.eve_distance_d,
        params.carrier_wavelength_lambda,
        params.noise_variance_B,
        seed=[seed, 1],
    )
    e_hat = eve_full[1 : 2 * n : 2]
    return ProbeRecord(
        x_hat=x_hat,
        y_hat=y_hat,
        e_hat=e_hat,
        x_times=trace.sample_times[0 : 2 * n : 2],
        y_times=trace.sample_times[1 : 2 * n : 2],
        e_times=trace.sample_times[1 : 2 * n : 2].copy(),
    )


def eavesdropper_trace(trace: FadingTrace, d, wavelength, noise_var, seed) -> np.ndarray:
    """Eve's observation of the channel at distance d from a legitimate node.

    The spatial cross-correlation is rho = J0(2*pi*d/wavelength); her process
    is rho*F + sqrt(1-rho^2)*F' with F' an independent copy sharing F's
    temporal autocorrelation, plus white Gaussian observation noise.
    """
    if d < 0:
        raise ValueError("distance must be nonnegative")
    rho = float(j0(2.0 * np.pi * d / wavelength))
    n = len(trace)
    rng = np.random.default_rng(seed)
    out = rho * trace.samples
    p = trace.params.signal_variance_P
    if rho * rho < 1.0 and p > 0.0:
        dt = 1.0 / (2.0 * trace.params.probe_rate_fs)
        sqrt_eigs, m = _fading_spectrum(p, trace.params.doppler_fd, n, dt)
        indep = _gaussian_from_spectrum(sqrt_eigs, m, n, rng)
        out = out + np.sqrt(1.0 - rho * rho) * indep
    if noise_var > 0.0:
        out = out + rng.normal(0.0, np.sqrt(noise_var), n)
    return out


def gen_iid_gaussian_source(P, N_A, N_B, n, seed):
    """I.i.d. jointly Gaussian probe pairs X = F + Z_A, Y = F + Z_B.

    The memoryless counterpart of the fading source: each of the n pairs is
    drawn independently with F ~ N(0, P), Z_A ~ N(0, N_A), Z_B ~ N(0, N_B).
    Returns (x, y) as float64 arrays of length n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    f = rng.normal(0.0, np.sqrt(P), n)
    x = f + rng.normal(0.0, np.sqrt(N_A), n)
    y = f + rng.normal(0.0, np.sqrt(N_B), n)
    return x, y


def write_probe_csv(path, trace: FadingTrace, record: ProbeRecord) -> None:
    """Export one probe campaign as CSV rows `t,f,x_hat,y_hat,e_hat`.

    One row per probe pair; t is Alice's probe instant and f the true fading
    value at that instant.  Values are written in full decimal precision so
    that a read-back reproduces them bit-exactly.
    """
    n = len(record)
    f_true = trace.samples[0 : 2 * n : 2]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "f", "x_hat", "y_hat", "e_hat"])
        for i in range(n):
            w.writerow(
                [
                    repr(float(record.x_times[i])),
                    repr(float(f_true[i])),
                    repr(float(record.x_hat[i])),
                    repr(float(record.y_hat[i])),
                    repr(float(record.e_hat[i])),
                ]
            )


def read_probe_csv(path):
    """Read a probe-campaign CSV back into a dict of float64 column arrays."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != ["t", "f", "x_hat", "y_hat", "e_hat"]:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = [row for row in r if row]
    cols = np.array(rows, dtype=np.float64).reshape(len(rows), 5).T
    return {name: cols[i] for i, name in enumerate(header)}
