"""CLI surface: parsing precedence, artifact formats, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from fadekey.analysis import secret_key_capacity
from fadekey.channel import ChannelParams, gen_fading_trace, probe_sequence, write_probe_csv
from fadekey.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    main,
    parse_config,
)


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestParseConfig:
    def test_minimal_capacity(self):
        cfg = parse_config(["capacity", "--snr-db", "10"])
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.subcommand == "capacity"
        assert cfg.params["snr_db"] == [10.0]
        assert cfg.params["seed"] == 0  # default applied
        assert cfg.params["out"] is None

    def test_list_flags(self):
        cfg = parse_config(["pe-curve", "--m", "2,3,4,5"])
        assert cfg.params["m"] == [2, 3, 4, 5]

    def test_file_values_used(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("snr-db=0,5\nseed = 7\n# comment\n\n", encoding="utf-8")
        cfg = parse_config(["capacity", "--config", str(f)])
        assert cfg.params["snr_db"] == [0.0, 5.0]
        assert cfg.params["seed"] == 7

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("seed=7\nsnr_db=0\n", encoding="utf-8")
        cfg = parse_config(["capacity", "--config", str(f), "--seed", "9"])
        assert cfg.params["seed"] == 9  # flag wins
        assert cfg.params["snr_db"] == [0.0]  # file fills the rest

    def test_underscore_and_dash_keys_equivalent(self, tmp_path):
        for key in ("snr-db", "snr_db"):
            f = tmp_path / f"{key}.cfg"
            f.write_text(f"{key}=5\n", encoding="utf-8")
            cfg = parse_config(["capacity", "--config", str(f)])
            assert cfg.params["snr_db"] == [5.0]

    def test_unknown_file_key_rejected(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("bogus=1\n", encoding="utf-8")
        assert main(["capacity", "--config", str(f), "--snr-db", "5"]) == EXIT_USAGE

    def test_bad_file_value_rejected(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("seed=abc\n", encoding="utf-8")
        assert main(["capacity", "--config", str(f), "--snr-db", "5"]) == EXIT_USAGE

    def test_missing_required_parameter(self):
        assert main(["capacity"]) == EXIT_USAGE

    def test_missing_config_file(self):
        assert main(["capacity", "--config", "/no/such/file", "--snr-db", "5"]) == EXIT_USAGE

    def test_bad_flag_type_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["pe-curve", "--m", "x"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_usage(self):
        assert main(["capacity", "--snr-db", "5", "--bogus", "1"]) == EXIT_USAGE

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["levelcross-sim", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--m", "--alpha", "--epsilon", "--window", "--snr-db",
                     "--fd", "--fs", "--n-probes", "--seed", "--out"):
            assert flag in text


class TestCapacity:
    def test_rows_match_formula(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert main(["capacity", "--snr-db", "0,10,20", "--out", str(out)]) == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "snr_db,capacity_bits_per_sample"
        assert lines[-1].startswith("# seed=")
        for line in lines[1:-1]:
            snr, cap = (float(tok) for tok in line.split(","))
            noise = 10.0 ** (-snr / 10.0)
            assert cap == pytest.approx(secret_key_capacity(1.0, noise, noise), rel=1e-12)

    def test_stdout_when_no_out(self, capsys):
        assert main(["capacity", "--snr-db", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("snr_db,capacity_bits_per_sample\n")
        assert out.endswith("\n")


class TestLevelcrossSim:
    # 10k probes: the privacy-amplification margin needs ~800 raw bits
    # (~6.5k probes) before a hashed bit is left
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["levelcross-sim", "--n-probes", "10000", "--seed", "1"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_shape(self, tmp_path):
        out = tmp_path / "lc.json"
        assert main(["levelcross-sim", "--n-probes", "10000", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"key_len", "agreement", "aborted", "bps", "params"}
        assert payload["params"]["seed"] == 1
        assert payload["aborted"] is None
        assert payload["key_len"] > 0
        assert payload["bps"] > 0


class TestGaussianRateCurve:
    def test_row_per_snr_per_variant(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gaussian-rate-curve", "--snr-db", "0,5,10,15,20",
                     "--blocks", "2", "--n", "240", "--code-seed", "240",
                     "--out", str(out)]) == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "snr_db,variant,v,m,fer,net_rate_bits_per_sample,capacity"
        body = [l for l in lines[1:] if not l.startswith("#")]
        assert len(body) == 10  # 5 SNRs x 2 variants
        assert lines[-1] == "# seed=0 trials=2"
        variants = {row.split(",")[1] for row in body}
        assert variants == {"basic", "overquant"}

    def test_indivisible_code_length_rejected(self, tmp_path):
        assert main(["gaussian-rate-curve", "--snr-db", "10", "--v", "3",
                     "--n", "400", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE


class TestPeCurve:
    def test_monotone_in_excursion_length(self, tmp_path):
        out = tmp_path / "pe.csv"
        assert main(["pe-curve", "--m", "2,3,4,5", "--trials", "40000",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "m,pe,ci_low,ci_high"
        pes = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert len(pes) == 4
        assert all(a > b for a, b in zip(pes, pes[1:]))

    def test_infeasible_estimate_exit_code(self, tmp_path):
        # thresholds no sample ever exceeds: the conditioning event is empty
        assert main(["pe-curve", "--m", "2", "--alpha", "50", "--trials",
                     "10000", "--out", str(tmp_path / "x.csv")]) == EXIT_NUMERICAL


class TestRateCurve:
    def test_reports_both_rate_units(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rate-curve", "--fs", "400,1000", "--trials", "20000",
                     "--out", str(out)]) == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "fs,rate_bits_per_second,rate_bits_per_probe,ci_low,ci_high"
        for line in lines[1:-1]:
            fs, rps, rpp = (float(t) for t in line.split(",")[:3])
            assert rpp == pytest.approx(rps / fs, rel=1e-12)


# SHA-256 of each sweep's CSV at its default m and fs lists with --trials 10000;
# a refactor of the estimators must leave every printed number as it is
CURVE_DIGESTS = {
    "pe-curve": "1afb5c48b1034f7efdeb5f2e86d12fc0994b682096bb96c867d683eba460bf4c",
    "rate-curve": "44855073e23a37618281cee2178ac978aafb4bf134f9dfeb5303f2255b9c27bd",
}


@pytest.mark.parametrize("subcommand", sorted(CURVE_DIGESTS))
def test_curve_csv_matches_recorded_digest(subcommand, tmp_path):
    out = tmp_path / "curve.csv"
    assert main([subcommand, "--trials", "10000", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVE_DIGESTS[subcommand]


class TestMiEstimate:
    def test_synthetic_pair(self, tmp_path):
        out = tmp_path / "mi.csv"
        assert main(["mi-estimate", "--rho", "0.9", "--n", "20000",
                     "--out", str(out)]) == EXIT_OK
        lines = read_lines(out)
        assert lines[0] == "source,n,mi_bits,degenerate"
        src, n, mi, degen = lines[1].split(",")
        assert src == "synthetic"
        assert abs(float(mi) - 1.2) < 0.15
        assert degen == "0"

    def test_short_trace_exits_usage(self, tmp_path):
        params = ChannelParams(signal_variance_P=1.0, noise_variance_A=0.01,
                               noise_variance_B=0.01, doppler_fd=10.0, probe_rate_fs=100.0)
        tr = gen_fading_trace(params, 100, seed=1)
        trace = tmp_path / "short.csv"
        write_probe_csv(trace, tr, probe_sequence(tr, params, seed=2))
        assert main(["mi-estimate", "--trace", str(trace),
                     "--out", str(tmp_path / "mi.csv")]) == EXIT_USAGE


class TestUniversalSim:
    def test_accepts_external_trace(self, tmp_path):
        params = ChannelParams(signal_variance_P=1.0, noise_variance_A=1e-3,
                               noise_variance_B=1e-3, doppler_fd=10.0,
                               probe_rate_fs=100.0)
        trace = gen_fading_trace(params, 600, seed=2)
        record = probe_sequence(trace, params, seed=2)
        csv_path = tmp_path / "trace.csv"
        write_probe_csv(csv_path, trace, record)

        out = tmp_path / "u.json"
        assert main(["universal-sim", "--trace", str(csv_path), "--n", "200",
                     "--v", "2", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["params"]["trace"] == str(csv_path)
        assert payload["decode_success"] is True
        assert payload["net_bits"] == 200

    def test_short_trace_rejected(self, tmp_path):
        params = ChannelParams(signal_variance_P=1.0, noise_variance_A=1e-3,
                               noise_variance_B=1e-3, doppler_fd=10.0,
                               probe_rate_fs=100.0)
        trace = gen_fading_trace(params, 100, seed=2)
        record = probe_sequence(trace, params, seed=2)
        csv_path = tmp_path / "short.csv"
        write_probe_csv(csv_path, trace, record)
        assert main(["universal-sim", "--trace", str(csv_path), "--n", "200",
                     "--v", "2", "--out", str(tmp_path / "u.json")]) == EXIT_USAGE

    def test_missing_trace_file(self, tmp_path):
        assert main(["universal-sim", "--trace", "/no/such/trace.csv",
                     "--out", str(tmp_path / "u.json")]) == EXIT_IO

    @pytest.mark.parametrize("text", ["t,x,y\n0,1,2\n", ""], ids=["bad_header", "empty"])
    def test_malformed_trace_file(self, tmp_path, text):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text, encoding="utf-8")
        assert main(["universal-sim", "--trace", str(csv_path),
                     "--out", str(tmp_path / "u.json")]) == EXIT_IO


class TestExitCodes:
    def test_bad_flag_value_exits_usage(self, tmp_path):
        assert main(["levelcross-sim", "--window", "50", "--n-probes", "300",
                     "--out", str(tmp_path / "lc.json")]) == EXIT_USAGE

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, tmp_path):
        def broken(record, config):
            raise ValueError("internal fault")

        monkeypatch.setattr("fadekey.levelcross.run_protocol", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["levelcross-sim", "--n-probes", "300", "--out", str(tmp_path / "lc.json")])

    @pytest.mark.parametrize("argv, message", [
        (["pe-curve", "--trials", "10", "--m", "2"], "must be >="),
        (["rate-curve", "--trials", "9999", "--fs", "100"], "must be >="),
        (["mi-estimate", "--n", "5"], "must be >="),
        (["levelcross-sim", "--n-probes", "0"], "must be >="),
        (["levelcross-sim", "--n-probes", "1"], "must be >="),
        (["gaussian-rate-curve", "--snr-db", "10", "--blocks", "0", "--n", "8"], "must be >="),
        (["universal-sim", "--n", "8", "--v", "1", "--scale", "0"], "scale must be positive"),
        (["universal-sim", "--n", "8", "--v", "1", "--scale", "-1"], "scale must be positive"),
        (["pe-curve", "--trials", "10000", "--fs", "0"], "fs must be positive"),
        (["pe-curve", "--trials", "10000", "--alpha", "-1"], "alpha must be nonnegative"),
        (["pe-curve", "--trials", "10000", "--fd", "-1"], "fd must be nonnegative"),
        (["rate-curve", "--trials", "10000", "--fs", "0"], "fs must be positive"),
        (["rate-curve", "--trials", "10000", "--fs", "-100"], "fs must be positive"),
        (["rate-curve", "--trials", "10000", "--fs", "inf"], "fs must be positive"),
        (["rate-curve", "--trials", "10000", "--alpha", "-1"], "alpha must be nonnegative"),
    ], ids=["pe-trials", "rate-trials", "mi-n", "lc-probes-0", "lc-probes-1", "grc-blocks",
            "us-scale-0", "us-scale-neg", "pe-fs-0", "pe-alpha-neg", "pe-fd-neg", "rate-fs-0",
            "rate-fs-neg", "rate-fs-inf", "rate-alpha-neg"])
    def test_count_below_minimum_exits_usage(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output(self):
        assert main(["capacity", "--snr-db", "5",
                     "--out", "/nonexistent-dir/x.csv"]) == EXIT_IO

    def test_success_is_zero(self, tmp_path):
        assert main(["capacity", "--snr-db", "5",
                     "--out", str(tmp_path / "c.csv")]) == EXIT_OK

    def test_artifacts_are_lf_only(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["capacity", "--snr-db", "5,10", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8")
