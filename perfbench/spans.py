"""Spans and counts recorded from outside fadekey.

A ``Tracer`` replaces public functions by timing wrappers at the module
attributes where their callers look them up (``levelcross.privacy_amplify``
is the name ``run_protocol`` calls, ``_kernels.bp_syndrome_decode`` the one
``reconcile.decode_syndrome`` calls) and puts the originals back on
``uninstall``.  Each call appends one span (name, start, end, parent, op) to
an in-memory list; counts are added at the same boundaries.  A span's self
time is its duration minus the time its child spans cover; the time an
operation spends outside every top-level span is its unspanned remainder,
so self times plus that remainder add up to the operation's traced time
as long as every span nests inside its parent (``nested``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _count_samples(c, args, kwargs, out):
    c["channel.samples"] += len(out)


def _count_pa(c, args, kwargs, out):
    n_in = len(args[0])
    c["reconcile.privacy_amplify.calls"] += 1
    c["reconcile.privacy_amplify.in_bits"] += n_in
    c["reconcile.privacy_amplify.matrix_bits"] += n_in * len(out)


def _count_bp(c, args, kwargs, out):
    c["kernels.bp_syndrome_decode.iterations"] += out[1]
    c["kernels.bp_syndrome_decode.edge_updates"] += out[1] * len(args[0])


def _count_protocol(c, args, kwargs, out):
    c["levelcross.raw_bits"] += len(out.raw_key_alice)
    c["levelcross.key_bits"] += len(out.key_alice)


def _count_announced(c, args, kwargs, out):
    c["levelcross.announced"] += len(out.indices)


def _count_confirmed(c, args, kwargs, out):
    c["levelcross.confirmed"] += len(out[0].indices)


def _count_net(c, args, kwargs, out):
    c["gaussian_keygen.net_bits"] += out.net_bits


# span name -> (lookup sites as (module, attribute), count hook)
SPANS = {
    "channel.gen_fading_trace": ([("channel", "gen_fading_trace")], _count_samples),
    "channel.probe_sequence": ([("channel", "probe_sequence")], None),
    "channel.eavesdropper_trace": ([("channel", "eavesdropper_trace")], _count_samples),
    "levelcross.run_protocol": ([("levelcross", "run_protocol")], _count_protocol),
    "analysis.markov_min_entropy": ([("levelcross", "markov_min_entropy")], None),
    "reconcile.privacy_amplify": (
        [("levelcross", "privacy_amplify"), ("gaussian_keygen", "privacy_amplify"),
         ("universal", "privacy_amplify")], _count_pa),
    "reconcile.syndrome": ([("gaussian_keygen", "syndrome"), ("universal", "syndrome")], None),
    "kernels.bp_syndrome_decode": ([("_kernels", "bp_syndrome_decode")], _count_bp),
    "reconcile.ldpc_generate": ([("reconcile", "ldpc_generate")], None),
    "gaussian_keygen.run_gaussian_system": ([("gaussian_keygen", "run_gaussian_system")], _count_net),
    "gaussian_keygen.quantize_and_code": ([("gaussian_keygen", "quantize_and_code")], None),
    "universal.run_universal_system": ([("universal", "run_universal_system")], None),
    "universal.fixed_point_convert": ([("universal", "fixed_point_convert")], None),
}

# counted but not spanned: cheap steps whose time stays in run_protocol's self time
COUNTS_ONLY = {
    "levelcross.alice_select": ([("levelcross", "alice_select")], _count_announced),
    "levelcross.bob_reply": ([("levelcross", "bob_reply")], _count_confirmed),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(lambda: defaultdict(int))  # op id -> name -> count
        self.windows = {}  # op id -> (start, end) of the operation's timed region
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, count, spanned):
        def traced(*args, **kwargs):
            if spanned:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, 0.0, 0.0, parent, self.op])
                self._stack.append(idx)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[idx][1:3] = start, end
            else:
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self.op], args, kwargs, out)
            return out

        return traced

    def install(self):
        for table, spanned in ((SPANS, True), (COUNTS_ONLY, False)):
            for name, (sites, count) in table.items():
                for mod_name, attr in sites:
                    mod = getattr(self.package, mod_name)
                    fn = getattr(mod, attr)
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn, count, spanned))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def nested(self, op) -> bool:
        """Whether every span of ``op`` lies inside its parent span, and each
        top-level span inside the operation's timed window."""
        t0, t1 = self.windows[op]
        for name, start, end, parent, span_op in self.spans:
            if span_op != op:
                continue
            lo, hi = (t0, t1) if parent < 0 else self.spans[parent][1:3]
            if not lo <= start <= end <= hi:
                return False
        return True

    def layer_times(self, op):
        """name -> (total duration, self time) summed over the op's spans,
        plus the op's top-level span time under the key None."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == op]
        child = defaultdict(float)
        for i in idx:
            name, start, end, parent, _ = self.spans[i]
            child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0])
        for i in idx:
            name, start, end, parent, _ = self.spans[i]
            out[name][0] += end - start
            out[name][1] += end - start - child[i]
        out[None] = [child[-1], child[-1]]
        return out

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}}, fh)
