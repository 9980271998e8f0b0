"""Tests for the fading-channel source model.

Bessel oracle values were computed independently with mpmath at 50 digits
and frozen here; statistical checks run at Monte Carlo scale with seeds
fixed so the suite is deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadekey import channel
from fadekey.channel import (
    ChannelParams,
    FadingTrace,
    ProbeRecord,
    eavesdropper_trace,
    gen_fading_trace,
    gen_iid_gaussian_source,
    jakes_acf,
    probe_sequence,
    read_probe_csv,
    write_probe_csv,
)

# mpmath oracles, 50 digits, frozen
J0_AT_0_6283 = 0.9037126420924663  # J0(2*pi*10*0.01)
J0_AT_2PI = 0.22027690853993448  # J0(2*pi)
J0_FIRST_ZERO = 2.404825557695773


def _params(P=1.0, N_A=0.0, N_B=0.0, fd=10.0, fs=100.0, **kw):
    return ChannelParams(
        signal_variance_P=P,
        noise_variance_A=N_A,
        noise_variance_B=N_B,
        doppler_fd=fd,
        probe_rate_fs=fs,
        **kw,
    )


class TestJakesAcf:
    def test_zero_lag(self):
        assert jakes_acf(0.0, 5.0) == 1.0
        assert jakes_acf(0.0, 123.4) == 1.0

    def test_bessel_oracle(self):
        assert jakes_acf(0.01, 10.0) == pytest.approx(J0_AT_0_6283, rel=1e-12)

    def test_first_zero(self):
        fd = 10.0
        tau = J0_FIRST_ZERO / (2 * np.pi * fd)
        assert abs(jakes_acf(tau, fd)) < 1e-10

    def test_vectorised(self):
        taus = np.array([0.0, 0.01, 0.02])
        out = jakes_acf(taus, 10.0)
        assert out.shape == (3,)
        assert out[0] == 1.0

    @given(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.floats(0.01, 1000.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_bounded(self, tau, fd):
        v = float(jakes_acf(tau, fd))
        assert -1.0 <= v <= 1.0


class TestParamsValidation:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            _params(P=-1.0)

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError):
            _params(fd=0.0)
        with pytest.raises(ValueError):
            _params(fs=-5.0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            _params(carrier_wavelength_lambda=0.0)
        with pytest.raises(ValueError):
            _params(eve_distance_d=-0.1)


class TestGenFadingTrace:
    def test_zero_power_gives_zero_trace(self):
        tr = gen_fading_trace(_params(P=0.0), 64, seed=3)
        assert np.all(tr.samples == 0.0)

    def test_sample_spacing(self):
        tr = gen_fading_trace(_params(fs=100.0), 10, seed=0)
        dt = np.diff(tr.sample_times)
        assert np.allclose(dt, 1.0 / 200.0)

    def test_variance_near_P(self):
        # across-seed sd of the sample variance is ~1.7% at n = 1e5
        # (fd=10, fs=100 -> 500 s of trace), so the 5% band is ~3 sigma;
        # at n = 1e4 the same band would only be ~1 sigma wide
        tr = gen_fading_trace(_params(), 100_000, seed=7)
        assert abs(tr.samples.var() - 1.0) < 0.05
        assert abs(tr.samples.mean()) < 0.1

    def test_acf_matches_jakes(self):
        # lags up to 1/(4 fd) = 0.025 s = 5 sample steps at dt = 0.005
        tr = gen_fading_trace(_params(), 100_000, seed=11)
        x = tr.samples - tr.samples.mean()
        denom = x @ x
        for lag in range(1, 6):
            emp = (x[:-lag] @ x[lag:]) / denom
            ana = jakes_acf(lag * 0.005, 10.0)
            assert abs(emp - ana) < 0.05

    def test_deterministic(self):
        a = gen_fading_trace(_params(), 512, seed=42)
        b = gen_fading_trace(_params(), 512, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_cached_spectrum_is_bit_identical(self):
        # the kept spectrum must equal a fresh computation exactly, so that
        # seeded traces do not depend on what was synthesised before them
        params = _params(P=2.0, N_B=0.1)
        channel._fading_spectrum.cache_clear()
        cold = gen_fading_trace(params, 4096, seed=5)
        cold_eve = probe_sequence(cold, params, seed=6).e_hat
        warm = gen_fading_trace(params, 4096, seed=5)
        assert channel._fading_spectrum.cache_info().hits >= 2
        assert np.array_equal(cold.samples, warm.samples)
        assert np.array_equal(cold_eve, probe_sequence(warm, params, seed=6).e_hat)
        kept, m_kept = channel._fading_spectrum(2.0, 10.0, 4096, 0.005)
        channel._fading_spectrum.cache_clear()
        fresh, m = channel._fading_spectrum(2.0, 10.0, 4096, 0.005)
        assert fresh is not kept
        assert m == m_kept and np.array_equal(fresh, kept)
        assert not kept.flags.writeable

    def test_seed_changes_trace(self):
        a = gen_fading_trace(_params(), 512, seed=1)
        b = gen_fading_trace(_params(), 512, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            gen_fading_trace(_params(), 1, seed=0)


class TestSynthesisAcf:
    """The synthesised ACF, read exactly off the spectrum, against P*J0.

    With amplitudes a at FFT size N the trace's covariance at lag k is
    sum_j a_j^2 cos(2 pi j k / N) = Re(fft(a^2))[k], so this gate needs no
    Monte Carlo.  (fd, fs) = (10, 9) undersamples the Doppler band and
    checks the fold; fd = 1e-9 puts the whole band inside one bin.
    """

    @pytest.mark.parametrize("n", [16, 512, 4096, 100_000, 200_000])
    @pytest.mark.parametrize("fd, fs", [(10.0, 100.0), (10.0, 50.0), (10.0, 1000.0), (10.0, 9.0), (1e-9, 100.0)])
    def test_acf_error_bound(self, n, fd, fs):
        P, dt = 1.5, 1.0 / (2.0 * fs)
        amp, N = channel._fading_spectrum(P, fd, n, dt)
        assert N >= 2 * n
        mass = amp**2
        assert abs(mass.sum() - P) <= 1e-12 * P
        err = np.abs(np.fft.fft(mass).real[:n] - P * jakes_acf(np.arange(n) * dt, fd))
        assert err[: min(n - 1, 1000) + 1].max() <= 1e-4 * P
        assert err.max() <= 1e-2 * P

    def test_acf_error_at_campaign_setting(self):
        # 100k probe pairs at fd = 10 Hz, fs = 100 probes/s, P = 1
        amp, _ = channel._fading_spectrum(1.0, 10.0, 200_000, 0.005)
        acf = np.fft.fft(amp**2).real[:1001]
        assert np.abs(acf - jakes_acf(np.arange(1001) * 0.005, 10.0)).max() <= 1e-5


class TestProbeSequence:
    def test_static_noiseless_channel_agrees(self):
        # fd -> 0: the process is effectively constant, so the TDD offset
        # costs nothing and both estimates coincide
        p = _params(fd=1e-9, fs=100.0)
        tr = gen_fading_trace(p, 2000, seed=5)
        rec = probe_sequence(tr, p, seed=9)
        assert np.allclose(rec.x_hat, rec.y_hat, atol=1e-5)

    def test_zero_power_exact_equality(self):
        p = _params(P=0.0)
        tr = gen_fading_trace(p, 100, seed=0)
        rec = probe_sequence(tr, p, seed=0)
        assert np.array_equal(rec.x_hat, rec.y_hat)

    def test_high_snr_correlation(self):
        # corr = P*J0(pi fd/fs)/(P+N) ~ 0.99 at 20 dB and fs = 100 fd
        p = _params(N_A=0.01, N_B=0.01, fd=10.0, fs=1000.0)
        tr = gen_fading_trace(p, 20_000, seed=21)
        rec = probe_sequence(tr, p, seed=22)
        corr = np.corrcoef(rec.x_hat, rec.y_hat)[0, 1]
        assert corr >= 0.98

    def test_probe_offset_half_period(self):
        p = _params(fs=50.0)
        tr = gen_fading_trace(p, 64, seed=1)
        rec = probe_sequence(tr, p, seed=1)
        assert np.allclose(rec.y_times - rec.x_times, 1.0 / 100.0)

    def test_deterministic(self):
        p = _params(N_A=0.1, N_B=0.1)
        tr = gen_fading_trace(p, 256, seed=4)
        r1 = probe_sequence(tr, p, seed=77)
        r2 = probe_sequence(tr, p, seed=77)
        assert np.array_equal(r1.x_hat, r2.x_hat)
        assert np.array_equal(r1.y_hat, r2.y_hat)
        assert np.array_equal(r1.e_hat, r2.e_hat)

    def test_too_short(self):
        p = _params()
        tr = FadingTrace(np.zeros(1), np.zeros(1), p)
        with pytest.raises(ValueError):
            probe_sequence(tr, p, seed=0)

    def test_lengths_match(self):
        p = _params(N_A=0.1, N_B=0.1)
        tr = gen_fading_trace(p, 101, seed=4)
        rec = probe_sequence(tr, p, seed=5)
        assert len(rec) == 50
        assert len(rec.e_hat) == 50


class TestEavesdropperTrace:
    def test_colocated_noiseless_identical(self):
        p = _params()
        tr = gen_fading_trace(p, 512, seed=13)
        eve = eavesdropper_trace(tr, 0.0, p.carrier_wavelength_lambda, 0.0, seed=14)
        assert np.array_equal(eve, tr.samples)

    def test_first_bessel_zero_decorrelates(self):
        p = _params(fs=50.0)
        tr = gen_fading_trace(p, 20_000, seed=31)
        lam = p.carrier_wavelength_lambda
        eve = eavesdropper_trace(tr, 0.3827 * lam, lam, 0.0, seed=32)
        corr = np.corrcoef(tr.samples, eve)[0, 1]
        assert abs(corr) < 0.05

    def test_one_wavelength_correlation(self):
        p = _params(fs=50.0)
        tr = gen_fading_trace(p, 20_000, seed=33)
        lam = p.carrier_wavelength_lambda
        eve = eavesdropper_trace(tr, lam, lam, 0.0, seed=34)
        corr = np.corrcoef(tr.samples, eve)[0, 1]
        assert abs(abs(corr) - J0_AT_2PI) < 0.05

    def test_monotone_envelope_decorrelation(self):
        p = _params(fs=50.0)
        tr = gen_fading_trace(p, 20_000, seed=35)
        lam = p.carrier_wavelength_lambda
        near = eavesdropper_trace(tr, lam / 10.0, lam, 0.0, seed=36)
        far = eavesdropper_trace(tr, lam / 2.0, lam, 0.0, seed=36)
        c_near = np.corrcoef(tr.samples, near)[0, 1]
        c_far = np.corrcoef(tr.samples, far)[0, 1]
        assert abs(c_far) < abs(c_near)

    def test_negative_distance_rejected(self):
        p = _params()
        tr = gen_fading_trace(p, 16, seed=0)
        with pytest.raises(ValueError):
            eavesdropper_trace(tr, -1.0, p.carrier_wavelength_lambda, 0.0, seed=0)


class TestIidGaussianSource:
    def test_noiseless_equality(self):
        x, y = gen_iid_gaussian_source(2.0, 0.0, 0.0, 1000, seed=3)
        assert np.array_equal(x, y)

    def test_unit_snr_correlation(self):
        # corr = P/(P+N) = 1/2 at P = N_A = N_B = 1
        x, y = gen_iid_gaussian_source(1.0, 1.0, 1.0, 100_000, seed=8)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr - 0.5) < 0.02

    def test_marginal_variances(self):
        x, y = gen_iid_gaussian_source(1.0, 0.5, 0.25, 100_000, seed=9)
        assert abs(x.var() - 1.5) < 0.05
        assert abs(y.var() - 1.25) < 0.05

    def test_deterministic(self):
        a = gen_iid_gaussian_source(1.0, 0.1, 0.1, 64, seed=5)
        b = gen_iid_gaussian_source(1.0, 0.1, 0.1, 64, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen_iid_gaussian_source(1.0, 0.1, 0.1, 0, seed=5)


class TestProbeCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = _params(N_A=0.2, N_B=0.3)
        tr = gen_fading_trace(p, 32, seed=6)
        rec = probe_sequence(tr, p, seed=7)
        path = tmp_path / "probes.csv"
        write_probe_csv(path, tr, rec)
        cols = read_probe_csv(path)
        assert np.array_equal(cols["t"], rec.x_times)
        assert np.array_equal(cols["f"], tr.samples[0:32:2])
        assert np.array_equal(cols["x_hat"], rec.x_hat)
        assert np.array_equal(cols["y_hat"], rec.y_hat)
        assert np.array_equal(cols["e_hat"], rec.e_hat)

    def test_lf_line_endings(self, tmp_path):
        p = _params()
        tr = gen_fading_trace(p, 8, seed=6)
        rec = probe_sequence(tr, p, seed=7)
        path = tmp_path / "probes.csv"
        write_probe_csv(path, tr, rec)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"t,f,x_hat,y_hat,e_hat\n")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_probe_csv(path)
