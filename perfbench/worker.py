"""One measured run of one workload, in a fresh single-threaded process.

Started by ``run.py``; prints one JSON line with the raw figures.  With
``--probe`` it only imports fadekey and reports how long that took from
process launch, which ``run.py`` uses for the set-up median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def import_fadekey(root: Path, launched: float):
    """Import fadekey from the checkout's src/ and time launch -> imported."""
    import fadekey

    src = (root / "src").resolve()
    if Path(fadekey.__file__).resolve().parent.parent != src:
        raise SystemExit(f"fadekey imported from {fadekey.__file__}, not from {src}")
    return fadekey, time.time() - launched


# per-layer times: (metric name, span name, self time instead of total)
LAYERS = [
    ("channel.gen_fading_trace.s", "channel.gen_fading_trace", False),
    ("channel.eavesdropper_trace.s", "channel.eavesdropper_trace", False),
    ("channel.probe_sequence.self_s", "channel.probe_sequence", True),
    ("levelcross.run_protocol.self_s", "levelcross.run_protocol", True),
    ("analysis.markov_min_entropy.s", "analysis.markov_min_entropy", False),
    ("reconcile.privacy_amplify.s", "reconcile.privacy_amplify", False),
    ("kernels.bp_syndrome_decode.s", "kernels.bp_syndrome_decode", False),
    ("reconcile.syndrome.s", "reconcile.syndrome", False),
    ("gaussian_keygen.run_gaussian_system.self_s", "gaussian_keygen.run_gaussian_system", True),
    ("gaussian_keygen.quantize_and_code.s", "gaussian_keygen.quantize_and_code", False),
    ("universal.run_universal_system.self_s", "universal.run_universal_system", True),
    ("universal.fixed_point_convert.s", "universal.fixed_point_convert", False),
]
COUNTS = [
    "channel.samples",
    "levelcross.announced",
    "levelcross.confirmed",
    "levelcross.raw_bits",
    "levelcross.key_bits",
    "reconcile.privacy_amplify.calls",
    "reconcile.privacy_amplify.in_bits",
    "reconcile.privacy_amplify.matrix_bits",
    "kernels.bp_syndrome_decode.iterations",
    "kernels.bp_syndrome_decode.edge_updates",
    "gaussian_keygen.net_bits",
]


def per_op(samples_by_kind: dict) -> float:
    """Mean over the round's operation kinds of each kind's median."""
    return statistics.fmean(statistics.median(v) for v in samples_by_kind.values())


def layer_metrics(tracer, traced_ops):
    """Per-layer medians over the traced operations, and the trace identity check.

    The identity holds when every span of an operation lies inside its
    parent span, or inside the operation's timed window for a top-level
    span: then no self time is negative and the self times plus the
    unspanned remainder add up to the operation's traced time.
    """
    values = {}  # metric -> kind -> per-op values
    identity_ok = True
    for op, label, t_op in traced_ops:
        identity_ok &= tracer.nested(op)
        times = tracer.layer_times(op)
        unspanned = t_op - times[None][0]
        self_sum = sum(s for name, (_, s) in times.items() if name is not None)
        identity_ok &= unspanned >= 0 and abs(self_sum + unspanned - t_op) <= 1e-9 * max(t_op, 1.0)
        row = {m: times[span][1 if own else 0] if span in times else 0.0 for m, span, own in LAYERS}
        row["trace.unspanned_pct"] = 100.0 * unspanned / t_op
        counts = tracer.counts.get(op, {})
        row.update({m: counts.get(m, 0) for m in COUNTS})
        row["trace.op_s"] = t_op
        for m, x in row.items():
            values.setdefault(m, {}).setdefault(label, []).append(x)
    return {m: per_op(v) for m, v in values.items()}, identity_ok


def run_op(kind, fk, code, inp, tracer=None, op=None):
    """Time one operation, then check it: (seconds, failure messages).

    An operation fails when it raises or when any output check fails; the
    checks run outside the timed region and after tracing is removed.
    """
    if tracer:
        tracer.op = op
        tracer.install()
    try:
        t0 = time.perf_counter()
        out = kind.run(fk, code, inp)
        t1 = time.perf_counter()
    except Exception:
        traceback.print_exc()
        return None, ["operation raised"]
    finally:
        if tracer:
            tracer.uninstall()
    t_op = t1 - t0
    if tracer:
        tracer.windows[op] = (t0, t1)
    try:
        return t_op, kind.check(fk, inp, out)
    except Exception:
        traceback.print_exc()
        return t_op, ["check raised"]


def measure(name, kinds, fk, code, seed, seconds, tracer=None):
    """Whole rounds of ``kinds`` until ``seconds`` have passed; the run's figures.

    A traced run alternates traced and plain rounds and needs one of each
    for the overhead figure.  ``correct`` is false when any operation failed
    or, in a traced run, when the span identity does not hold.
    """
    plain = {k.label: [] for k in kinds}
    traced = []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while r < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        trace_round = tracer is not None and r % 2 == 0
        for k, kind in enumerate(kinds):
            inp = kind.inputs(code, seed, r, k)
            op = attempted
            attempted += 1
            t_op, fails = run_op(kind, fk, code, inp, tracer if trace_round else None, op)
            if fails:
                failed += 1
                print(f"{name} seed {seed} round {r} {kind.label}: " + "; ".join(fails), file=sys.stderr)
            elif trace_round:
                traced.append((op, kind.label, t_op))
            else:
                plain[kind.label].append(t_op)
        r += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "op_s": per_op(plain) if all(plain.values()) else None,
    }
    if tracer:
        layers, identity_ok = layer_metrics(tracer, traced)
        if result["op_s"] is not None and traced:
            layers["trace.overhead_s"] = layers["trace.op_s"] - result["op_s"]
        result["layers"] = layers
        result["traced_ops"] = traced
        result["correct"] &= identity_ok
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    a = ap.parse_args()
    root = Path(a.root)
    fk, import_s = import_fadekey(root, a.launched)
    if a.probe:
        print(json.dumps({"import_s": import_s}))
        return

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from spans import Tracer

    tracer = Tracer(fk) if a.trace else None
    peg_s = 0.0
    code = None
    if workloads.needs_code(a.workload):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        code = fk.reconcile.ldpc_generate(workloads.CODE_N, workloads.CODE_SEED)
        peg_s = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()

    result = measure(a.workload, workloads.WORKLOADS[a.workload], fk, code, a.seed, a.seconds, tracer)
    result.update(import_s=import_s, peg_s=peg_s,
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        result["layers"]["reconcile.ldpc_generate.s"] = sum(
            (e - s for name, s, e, _, op in tracer.spans if name == "reconcile.ldpc_generate"), 0.0)
        traced = result.pop("traced_ops")
        if a.spans:
            os.makedirs(os.path.dirname(a.spans), exist_ok=True)
            tracer.dump(a.spans, {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                                  "traced_ops": traced, "import_s": import_s, "peg_s": peg_s})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
