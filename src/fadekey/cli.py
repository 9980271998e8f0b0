"""Experiment runner: subcommands that sweep the simulators and emit CSV/JSON.

Every subcommand writes a machine-readable artifact (CSV for sweeps, JSON
for single simulations), surfaces the seed it ran with, and prints a
one-line summary.  A flat key=value config file can pre-fill any flag;
explicitly passed flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_REQUIRED = object()  # sentinel default: flag must come from argv or file


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


# flag tables: name -> (converter, default, help text with units)
_COMMON_OUT = {"out": (str, None, "output file path (stdout when omitted)")}

_FLAGS: dict[str, dict[str, tuple]] = {
    "capacity": {
        "snr-db": (_float_list, _REQUIRED, "comma-separated SNR points, dB"),
        "seed": (int, 0, "seed recorded in the artifact (formula is exact)"),
        **_COMMON_OUT,
    },
    "pe-curve": {
        "m": (_int_list, [2, 3, 4, 5], "comma-separated excursion lengths, probes"),
        "alpha": (float, 0.8, "threshold offset, population standard deviations"),
        "snr-db": (float, 10.0, "probe SNR, dB"),
        "fd": (float, 10.0, "maximum Doppler frequency, Hz"),
        "fs": (float, 9.0, "probing rate, probes/second (slow probing keeps pe visible)"),
        "trials": (int, 100_000, "Monte Carlo trials per point"),
        "seed": (int, 0, "master seed"),
        **_COMMON_OUT,
    },
    "rate-curve": {
        "fs": (_float_list, [100.0, 400.0, 1000.0, 4000.0], "probing rates, probes/second"),
        "m": (int, 4, "excursion length, probes"),
        "alpha": (float, 0.8, "threshold offset, population standard deviations"),
        "snr-db": (float, 30.0, "probe SNR, dB"),
        "fd": (float, 10.0, "maximum Doppler frequency, Hz"),
        "trials": (int, 100_000, "Monte Carlo trials per point"),
        "seed": (int, 0, "master seed"),
        **_COMMON_OUT,
    },
    "mi-estimate": {
        "rho": (float, 0.9, "correlation of the synthetic Gaussian pair"),
        "n": (int, 100_000, "sample count"),
        "trace": (str, None, "probe CSV; overrides the synthetic pair"),
        "seed": (int, 0, "master seed"),
        **_COMMON_OUT,
    },
    "levelcross-sim": {
        "m": (int, 4, "excursion length, probes"),
        "alpha": (float, 0.125, "threshold offset, population standard deviations"),
        "epsilon": (float, 0.1, "index-check margin above 1/2"),
        "window": (int, 51, "moving-average window, probes (odd)"),
        "snr-db": (float, 20.0, "probe SNR, dB"),
        "fd": (float, 10.0, "maximum Doppler frequency, Hz"),
        "fs": (float, 100.0, "probing rate, probes/second"),
        "n-probes": (int, 100_000, "probe pairs to simulate"),
        "seed": (int, 0, "master seed"),
        **_COMMON_OUT,
    },
    "gaussian-rate-curve": {
        "snr-db": (_float_list, _REQUIRED, "comma-separated SNR points, dB"),
        "variants": (_str_list, ["basic", "overquant"], "variants to sweep"),
        "v": (int, 1, "kept bits per sample"),
        "m-over": (int, 1, "published bits per sample (overquant variant)"),
        "n": (int, 400, "code length, bits"),
        "blocks": (int, 20, "blocks per sweep point"),
        "code-seed": (int, 400, "parity-check construction seed"),
        "seed": (int, 0, "master seed"),
        **_COMMON_OUT,
    },
    "universal-sim": {
        "v": (int, 2, "quantizer bits per sample"),
        "A": (int, None, "fixed-point resolution, bits (default v+2)"),
        "scale": (float, 8.0, "LLR rescale constant"),
        "n": (int, 200, "samples per block"),
        "snr-db": (float, 20.0, "Gaussian-source SNR, dB"),
        "trace": (str, None, "probe CSV supplying x_hat/y_hat instead"),
        "code-seed": (int, 400, "parity-check construction seed"),
        "seed": (int, 0, "master seed"),
        **_COMMON_OUT,
    },
}


@dataclass
class ExperimentConfig:
    subcommand: str  # one of the _FLAGS keys
    params: dict  # fully typed, defaults applied, file+flags merged


class UsageError(Exception):
    pass


def _from_flags(factory, *args, **kwargs):
    """Build one input of a subcommand; a ValueError there is a bad flag value."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require_at_least(p, flag: str, low: int) -> None:
    """A count flag below ``low`` is a bad flag value."""
    value = p[flag.replace("-", "_")]
    if value < low:
        raise UsageError(f"--{flag} must be >= {low}, got {value}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadekey",
        description="Secret-key generation experiments: sweeps and single simulations.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in _FLAGS.items():
        sp = subs.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", type=str, default=None,
                        help="flat key=value file pre-filling any flag below")
        for flag, (conv, _default, helptext) in flags.items():
            sp.add_argument(f"--{flag}", type=conv, default=argparse.SUPPRESS,
                            help=helptext, dest=flag.replace("-", "_"))
    return parser


def _read_config_file(path: str, flags: dict) -> dict:
    """Parse a flat key=value file into typed parameters for one subcommand."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        flag = key.replace("_", "-")
        if flag not in flags:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        conv = flags[flag][0]
        try:
            values[key] = conv(val.strip())
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def parse_config(argv) -> ExperimentConfig:
    """argv -> validated ExperimentConfig; flags override config-file values."""
    ns = _build_parser().parse_args(argv)
    flags = _FLAGS[ns.subcommand]
    params = {}
    if ns.config is not None:
        params.update(_read_config_file(ns.config, flags))
    for flag in flags:
        attr = flag.replace("-", "_")
        if hasattr(ns, attr):
            params[attr] = getattr(ns, attr)
    for flag, (_conv, default, _help) in flags.items():
        attr = flag.replace("-", "_")
        if attr not in params:
            if default is _REQUIRED:
                raise UsageError(f"missing required parameter --{flag}")
            params[attr] = default
    return ExperimentConfig(subcommand=ns.subcommand, params=params)


def _emit_csv(out_path, header, rows, meta: str, summary: str) -> None:
    """Write header+rows+trailing metadata comment; stdout when out_path is None."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines.append(meta)
    _emit("\n".join(lines) + "\n", out_path, summary)


def _emit_json(out_path, payload: dict, summary: str) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path, summary)


def _emit(text: str, out_path, summary: str) -> None:
    """Write text to out_path and print the summary; stdout when out_path is None."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoError(str(exc)) from exc
    print(summary)


class _IoError(Exception):
    pass


def _read_trace(path):
    """Columns of a probe CSV; an unreadable or malformed file is an I/O error."""
    from .channel import read_probe_csv

    try:
        return read_probe_csv(path)
    except (OSError, ValueError) as exc:
        raise _IoError(str(exc)) from exc


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _snr_to_noise(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def _run_capacity(p) -> None:
    from .analysis import secret_key_capacity

    rows = []
    for snr in p["snr_db"]:
        noise = _snr_to_noise(snr)
        rows.append((snr, secret_key_capacity(1.0, noise, noise)))
    _emit_csv(p["out"], ["snr_db", "capacity_bits_per_sample"], rows,
              f"# seed={p['seed']} trials=0",
              f"capacity: {len(rows)} rows -> {p['out']}")


def _run_pe_curve(p) -> None:
    from .analysis import MIN_TRIALS, pe_levelcross

    _require_at_least(p, "trials", MIN_TRIALS)
    noise = _snr_to_noise(p["snr_db"])
    rows = []
    for m in p["m"]:
        est = _from_flags(pe_levelcross, m, p["alpha"], p["fs"], p["fd"], 1.0, noise,
                          p["trials"], seed=p["seed"] + m)
        rows.append((m, est.value, est.ci_low, est.ci_high))
    _emit_csv(p["out"], ["m", "pe", "ci_low", "ci_high"], rows,
              f"# seed={p['seed']} trials={p['trials']}",
              f"pe-curve: {len(rows)} rows -> {p['out']}")


def _run_rate_curve(p) -> None:
    from .analysis import MIN_TRIALS, rate_levelcross

    _require_at_least(p, "trials", MIN_TRIALS)
    noise = _snr_to_noise(p["snr_db"])
    rows = []
    for i, fs in enumerate(p["fs"]):
        est = _from_flags(rate_levelcross, p["m"], p["alpha"], fs, p["fd"], 1.0, noise,
                          p["trials"], seed=p["seed"] + i)
        rows.append((fs, est.value, est.value / fs, est.ci_low, est.ci_high))
    _emit_csv(p["out"],
              ["fs", "rate_bits_per_second", "rate_bits_per_probe", "ci_low", "ci_high"],
              rows, f"# seed={p['seed']} trials={p['trials']}",
              f"rate-curve: {len(rows)} rows -> {p['out']}")


def _run_mi_estimate(p) -> None:
    from .analysis import MIN_MI_SAMPLES, mutual_information_estimate

    if p["trace"] is not None:
        cols = _read_trace(p["trace"])
        xs, ys = cols["x_hat"], cols["y_hat"]
        source, n = p["trace"], len(xs)
        if n < MIN_MI_SAMPLES:
            raise UsageError(f"trace has {n} probes; mi-estimate needs >= {MIN_MI_SAMPLES}")
    else:
        _require_at_least(p, "n", MIN_MI_SAMPLES)
        rng = np.random.default_rng([p["seed"], 0])
        z = rng.standard_normal((p["n"], 2))
        xs = z[:, 0]
        ys = p["rho"] * z[:, 0] + np.sqrt(1.0 - p["rho"] ** 2) * z[:, 1]
        source, n = "synthetic", p["n"]
    est = mutual_information_estimate(xs, ys)
    rows = [(source, n, est.bits, int(est.degenerate))]
    _emit_csv(p["out"], ["source", "n", "mi_bits", "degenerate"], rows,
              f"# seed={p['seed']} trials={n}",
              f"mi-estimate: {est.bits:.4f} bits -> {p['out']}")


def _run_levelcross_sim(p) -> None:
    from .channel import ChannelParams, gen_fading_trace, probe_sequence
    from .levelcross import LevelCrossConfig, run_protocol

    noise = _snr_to_noise(p["snr_db"])
    ch = _from_flags(ChannelParams, signal_variance_P=1.0, noise_variance_A=noise,
                     noise_variance_B=noise, doppler_fd=p["fd"], probe_rate_fs=p["fs"])
    cfg = _from_flags(LevelCrossConfig, alpha=p["alpha"], m=p["m"], window=p["window"],
                      epsilon=p["epsilon"], seed=p["seed"])
    _require_at_least(p, "n-probes", cfg.window)
    trace = gen_fading_trace(ch, 2 * p["n_probes"], seed=p["seed"])
    record = probe_sequence(trace, ch, seed=p["seed"])
    result = run_protocol(record, cfg)
    payload = {
        "key_len": len(result.key_alice),
        "agreement": result.agreement,
        "aborted": result.aborted_reason,
        "bps": result.bits_per_second,
        "params": {k: p[k] for k in
                   ("m", "alpha", "epsilon", "window", "snr_db", "fd", "fs",
                    "n_probes", "seed")},
    }
    _emit_json(p["out"], payload,
               f"levelcross-sim: key_len={payload['key_len']} "
               f"agreement={payload['agreement']:.3f} aborted={payload['aborted']} "
               f"-> {p['out']}")


def _run_gaussian_rate_curve(p) -> None:
    from .analysis import secret_key_capacity
    from .gaussian_keygen import GaussianConfig, run_gaussian_system
    from .reconcile import ldpc_generate

    if p["v"] < 1 or p["n"] % p["v"]:
        raise UsageError(f"v={p['v']} must be >= 1 and divide the code length {p['n']}")
    _require_at_least(p, "blocks", 1)
    for variant in p["variants"]:
        if variant not in ("basic", "overquant", "soft_error"):
            raise UsageError(f"unknown variant {variant!r}")
    code = _from_flags(ldpc_generate, p["n"], seed=p["code_seed"])
    n_samples = p["n"] // p["v"]
    rows = []
    for snr in p["snr_db"]:
        noise = _snr_to_noise(snr)
        cap = secret_key_capacity(1.0, noise, noise)
        for variant in p["variants"]:
            m = p["m_over"] if variant == "overquant" else 0
            fails = 0
            net = 0.0
            for b in range(p["blocks"]):
                out = run_gaussian_system(_from_flags(
                    GaussianConfig, code=code, v=p["v"], n_samples=n_samples,
                    variant=variant, m_over=m, P=1.0, N=noise, seed=p["seed"] + b))
                fails += not out.decode_success
                net += out.net_rate_bits_per_sample
            rows.append((snr, variant, p["v"], m, fails / p["blocks"],
                         net / p["blocks"], cap))
    _emit_csv(p["out"],
              ["snr_db", "variant", "v", "m", "fer", "net_rate_bits_per_sample",
               "capacity"],
              rows, f"# seed={p['seed']} trials={p['blocks']}",
              f"gaussian-rate-curve: {len(rows)} rows -> {p['out']}")


def _run_universal_sim(p) -> None:
    from .reconcile import ldpc_generate
    from .universal import UniversalConfig, run_universal_system

    xs = ys = None
    if p["trace"] is not None:
        cols = _read_trace(p["trace"])
        xs, ys = cols["x_hat"], cols["y_hat"]
        if xs.size < p["n"]:
            raise UsageError(
                f"trace has {xs.size} probes, --n {p['n']} requested")
    code = _from_flags(ldpc_generate, p["n"] * p["v"], seed=p["code_seed"])
    cfg = _from_flags(UniversalConfig, v=p["v"], n_samples=p["n"], code=code, A=p["A"],
                      scale=p["scale"], snr_db=p["snr_db"], seed=p["seed"], xs=xs, ys=ys)
    out = run_universal_system(cfg)
    payload = {
        "decode_success": bool(out.decode_success),
        "net_bits": int(out.net_bits),
        "net_rate_bits_per_sample": out.net_rate_bits_per_sample,
        "bit_agreement": out.bit_agreement,
        "iterations": int(out.iterations),
        "revealed_bits": int(out.revealed_bits),
        "params": {k: p[k] for k in
                   ("v", "A", "scale", "n", "snr_db", "code_seed", "seed",
                    "trace")},
    }
    _emit_json(p["out"], payload,
               f"universal-sim: success={payload['decode_success']} "
               f"net_bits={payload['net_bits']} -> {p['out']}")


_DISPATCH = {
    "capacity": _run_capacity,
    "pe-curve": _run_pe_curve,
    "rate-curve": _run_rate_curve,
    "mi-estimate": _run_mi_estimate,
    "levelcross-sim": _run_levelcross_sim,
    "gaussian-rate-curve": _run_gaussian_rate_curve,
    "universal-sim": _run_universal_sim,
}


def run(config: ExperimentConfig) -> int:
    """Dispatch one parsed experiment; returns the process exit code."""
    from .analysis import EstimateInfeasibleError

    try:
        _DISPATCH[config.subcommand](config.params)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EstimateInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits with its own code for --help and usage errors
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
