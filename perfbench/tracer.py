"""Traced runs: spans around calls into pgt's public functions.

The program is not instrumented.  For a traced pass the benchmark replaces
the public functions named in TARGETS -- in their own module and in every
pgt module that imported them by name -- with a wrapper that records a span
(name, start, end, parent, op, attributes), and puts the originals back
afterwards.  Spans stay in memory; `layer_metrics` derives the per-layer
numbers from them once the pass is over.

A target that no longer exists is skipped and its metrics are reported as
absent, so a later rename does not break the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

# (pgt module, attribute, method of that attribute or None, span name,
#  key in _ATTRS of the call attributes the span keeps)
TARGETS = [
    ("trace_engine", "trace_set", None, "trace_engine.trace_set", "traces"),
    ("trace_engine", "gv_per_trace", None, "trace_engine.gv_per_trace", "sweep"),
    ("trace_engine", "LambdaVectors", "vec", "trace_engine.lambda_vec", "prime_power"),
    ("gaussian", "prime_ideals_upto", None, "gaussian.prime_ideals_upto", "length"),
    ("gaussian", "factor", None, "gaussian.factor", None),
    ("gaussian", "factor_pair_cached", None, "gaussian.factor", None),
    ("geodesics", "psi", None, "geodesics.window", "v_used"),
    ("geodesics", "psi_short_interval", None, "geodesics.window", "v_used"),
    ("geodesics", "psi_smoothed", None, "geodesics.psi_smoothed", None),
    ("geodesics", "KernelSpec", "cdf", "geodesics.kernel_cdf", None),
    ("lfunctions", "zagier_L1", None, "lfunctions.zagier_L1", "walk"),
    ("lfunctions", "L_chi", None, "lfunctions.L_chi", "walk"),
    ("lfunctions", "T_l_poly", None, "lfunctions.T_l_poly", None),
    ("lfunctions", "szmidt_coefficient_check", None, "lfunctions.szmidt_check", None),
    ("quad_counts", "lambda_at_prime_power", None, "quad_counts.lambda_at_prime_power", None),
    ("quad_counts", "kloosterman", None, "quad_counts.kloosterman", "modulus"),
    ("quad_counts", "rho_bruteforce", None, "quad_counts.rho_bruteforce", None),
    ("quad_counts", "rho_fast", None, "quad_counts.rho_fast", None),
    ("characters", "discriminant_split", None, "characters.pin", "delta"),
    ("characters", "quadratic_character", None, "characters.pin", "delta"),
    ("lattice", "eta_fit", None, "lattice.eta_fit", None),
    ("lattice", "circle_count", None, "lattice.circle_count", None),
]

# Metric names each span name feeds; absent together when the span is.
_FED_BY = {
    "trace_engine.trace_set": ["trace_engine.trace_set_s", "trace_engine.traces"],
    "trace_engine.gv_per_trace": [
        "trace_engine.gv_per_trace_s", "trace_engine.gv_per_trace_calls",
        "trace_engine.dfs_self_s", "trace_engine.dfs_self_share",
        "trace_engine.ideals_upto_cutoff_computed",
        "trace_engine.ideal_trace_products_computed",
        "trace_engine.vector_bytes_computed",
        "geodesics.validate_pass_s", "geodesics.retries"],
    "trace_engine.lambda_vec": [
        "trace_engine.lambda_vec_s", "trace_engine.lambda_vec_calls",
        "trace_engine.lambda_vec_repeat_ratio", "trace_engine.lambda_vec_share",
        "trace_engine.lambda_vec_share.wide", "trace_engine.lambda_vec_share.deep",
        "trace_engine.dfs_self_share.wide", "trace_engine.dfs_self_share.deep"],
    "gaussian.prime_ideals_upto": ["gaussian.prime_ideals_upto_s", "gaussian.prime_ideals"],
    "gaussian.factor": ["gaussian.factor_s", "gaussian.factor_calls"],
    "geodesics.window": ["geodesics.v_used"],
    "geodesics.kernel_cdf": ["geodesics.kernel_cdf_s", "geodesics.kernel_cdf_calls"],
    "geodesics.kernel_setup": ["geodesics.kernel_setup_s"],
    "lfunctions.zagier_L1": ["lfunctions.zagier_L1_s"],
    "lfunctions.L_chi": ["lfunctions.L_chi_s"],
    "lfunctions.T_l_poly": ["lfunctions.T_l_poly_s"],
    "lfunctions.szmidt_check": ["lfunctions.szmidt_check_s"],
    "quad_counts.lambda_at_prime_power": [
        "quad_counts.lambda_at_prime_power_s", "quad_counts.lambda_at_prime_power_calls"],
    "quad_counts.kloosterman": ["quad_counts.kloosterman_s",
                                "quad_counts.kloosterman_units_computed"],
    "quad_counts.rho_bruteforce": ["quad_counts.rho_bruteforce_s"],
    "quad_counts.rho_fast": ["quad_counts.rho_fast_s"],
    "characters.pin": ["characters.pin_s", "characters.pin_calls", "characters.pin_cold"],
    "lattice.eta_fit": ["lattice.eta_fit_s"],
    "lattice.circle_count": ["lattice.circle_count_calls"],
}

PER_LAYER = sorted({name for names in _FED_BY.values() for name in names}
                   | {"lfunctions.ideals_walked_computed", "trace.overhead_ratio",
                      "trace.spans"})


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")) or "_share." in name:
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name == "geodesics.v_used":
        return "V"
    return "count"


class Tracer:
    """Records spans for one pass; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, op, attrs]
        self._stack: list = []
        self._undo: list = []
        self.present: set = {"geodesics.kernel_setup"}
        self.op = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = (t0, t1)

    def _wrap(self, fn, name, attrs):
        sig = inspect.signature(fn)
        pick = _ATTRS.get(attrs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = (t0, t1)
            if pick is not None:
                self.spans[idx][5] = pick(sig, args, kwargs, out)
            return out
        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        pgt_modules = [m for k, m in list(sys.modules.items())
                       if (k == "pgt" or k.startswith("pgt.")) and m is not None]
        for mod_name, attr, method, name, attrs in TARGETS:
            owner = sys.modules.get(f"pgt.{mod_name}")
            obj = getattr(owner, attr, None)
            if method is not None:
                fn = getattr(obj, method, None) if obj is not None else None
                if fn is None:
                    continue
                self._set(obj, method, self._wrap(fn, name, attrs))
            else:
                if obj is None:
                    continue
                wrapped = self._wrap(obj, name, attrs)
                for mod in pgt_modules:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._set(mod, key, wrapped)
            self.present.add(name)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def _arg(sig, args, kwargs, name):
    """Argument `name` of a call, defaults applied, without a full bind."""
    if name in kwargs:
        return kwargs[name]
    params = list(sig.parameters)
    i = params.index(name)
    if i < len(args):
        return args[i]
    return sig.parameters[name].default


def _sweep(sig, args, kwargs, out):
    traces = _arg(sig, args, kwargs, "traces")
    return (float(_arg(sig, args, kwargs, "V")),
            float(_arg(sig, args, kwargs, "cutoff_mult")), len(traces))


def _walk(sig, args, kwargs, out):
    # zagier_L1 reports its V; L_chi reports the largest doubling it walked
    v = getattr(out, "v_used", None)
    return float(v if v is not None else out.V)


_ATTRS = {
    "traces": lambda sig, a, k, out: len(out),
    "sweep": _sweep,
    "prime_power": lambda sig, a, k, out: (a[2], a[3]) if len(a) >= 4 else None,
    "length": lambda sig, a, k, out: len(out),
    "v_used": lambda sig, a, k, out: float(out.v_used),
    "walk": _walk,
    "modulus": lambda sig, a, k, out: _arg(sig, a, k, "c"),
    "delta": lambda sig, a, k, out: _arg(sig, a, k, "delta").pair,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, cutoff_mult: float | None, tags: dict) -> dict:
    """Per-layer numbers of one traced pass, keyed as in PER_LAYER.

    `_s` metrics are inclusive times of the outermost spans of that name,
    except lambda_vec_s and dfs_self_s, which are self times.  Counts named
    `_computed` are derived from sizes, not measured.  The `.wide` / `.deep`
    shares are those of the sweeps inside the ops with that tag (op index ->
    tag in `tags`), 0 where the pass has no such op.
    """
    from pgt import gaussian as g
    from workloads import ideal_count

    spans = tracer.spans
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def outer(name):
        """Spans of `name` with no ancestor of the same name."""
        out = []
        for i in by_name.get(name, []):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def total(name):
        return sum(dur(i) for i in outer(name))

    def calls(name):
        return len(by_name.get(name, []))

    def attrs(name):
        return [spans[i][5] for i in by_name.get(name, [])]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children.get(i, []))

    m: dict = {}
    gv = by_name.get("trace_engine.gv_per_trace", [])
    vec = by_name.get("trace_engine.lambda_vec", [])
    gv_s = total("trace_engine.gv_per_trace")
    vec_s = sum(self_time(i) for i in vec)
    dfs_s = sum(self_time(i) for i in gv)

    m["trace_engine.trace_set_s"] = total("trace_engine.trace_set")
    m["trace_engine.traces"] = sum(attrs("trace_engine.trace_set"))
    m["trace_engine.gv_per_trace_s"] = gv_s
    m["trace_engine.gv_per_trace_calls"] = len(gv)
    m["trace_engine.lambda_vec_s"] = vec_s
    m["trace_engine.lambda_vec_calls"] = len(vec)
    seen, repeats = set(), 0
    for i in vec:
        key = (spans[i][3], spans[i][5])
        repeats += key in seen
        seen.add(key)
    m["trace_engine.lambda_vec_repeat_ratio"] = repeats / len(vec) if vec else 0.0
    m["trace_engine.dfs_self_s"] = dfs_s
    m["trace_engine.lambda_vec_share"] = vec_s / gv_s if gv_s else 0.0
    m["trace_engine.dfs_self_share"] = dfs_s / gv_s if gv_s else 0.0
    for tag in ("wide", "deep"):
        ops = {i for i, t in tags.items() if t == tag}
        tagged = [i for i in gv if spans[i][4] in ops]
        total_s = sum(dur(i) for i in tagged)
        vec_self = sum(self_time(c) for i in tagged for c in children.get(i, [])
                       if spans[c][0] == "trace_engine.lambda_vec")
        dfs_self = sum(self_time(i) for i in tagged)
        m[f"trace_engine.lambda_vec_share.{tag}"] = vec_self / total_s if total_s else 0.0
        m[f"trace_engine.dfs_self_share.{tag}"] = dfs_self / total_s if total_s else 0.0
    ideals = products = 0
    for i in gv:
        V, mult, width = spans[i][5]
        n_ideals = ideal_count(int(mult * V))
        ideals += n_ideals
        products += n_ideals * width
    m["trace_engine.ideals_upto_cutoff_computed"] = ideals
    m["trace_engine.ideal_trace_products_computed"] = products
    # one float64 product vector written per ideal visited
    m["trace_engine.vector_bytes_computed"] = 8 * products

    # quarter-V validation passes: a sweep at V/4 right after a sweep at V
    # on the same traces, under one psi / psi_short_interval call
    validate_s, retries = 0.0, 0
    for w in by_name.get("geodesics.window", []):
        sweeps = [c for c in children.get(w, []) if spans[c][0] == "trace_engine.gv_per_trace"]
        main = 0
        for prev, cur in zip([None] + sweeps, sweeps):
            if (prev is not None and spans[cur][5][2] == spans[prev][5][2]
                    and spans[cur][5][0] * 4.0 == spans[prev][5][0]):
                validate_s += dur(cur)
            else:
                main += 1
        retries += max(main - 1, 0)
    m["geodesics.validate_pass_s"] = validate_s
    m["geodesics.retries"] = retries
    m["geodesics.v_used"] = max(attrs("geodesics.window"), default=0.0)
    m["geodesics.kernel_cdf_s"] = total("geodesics.kernel_cdf")
    m["geodesics.kernel_cdf_calls"] = calls("geodesics.kernel_cdf")
    m["geodesics.kernel_setup_s"] = total("geodesics.kernel_setup")

    m["gaussian.prime_ideals_upto_s"] = total("gaussian.prime_ideals_upto")
    m["gaussian.prime_ideals"] = sum(attrs("gaussian.prime_ideals_upto"))
    m["gaussian.factor_s"] = total("gaussian.factor")
    m["gaussian.factor_calls"] = calls("gaussian.factor")

    for key, name in (("zagier_L1_s", "zagier_L1"), ("L_chi_s", "L_chi"),
                      ("T_l_poly_s", "T_l_poly"), ("szmidt_check_s", "szmidt_check")):
        m[f"lfunctions.{key}"] = total(f"lfunctions.{name}")
    walks = by_name.get("lfunctions.zagier_L1", []) + by_name.get("lfunctions.L_chi", [])
    if cutoff_mult is not None:
        m["lfunctions.ideals_walked_computed"] = sum(
            ideal_count(int(cutoff_mult * spans[i][5])) for i in walks)

    m["quad_counts.lambda_at_prime_power_s"] = total("quad_counts.lambda_at_prime_power")
    m["quad_counts.lambda_at_prime_power_calls"] = calls("quad_counts.lambda_at_prime_power")
    m["quad_counts.kloosterman_s"] = total("quad_counts.kloosterman")
    m["quad_counts.kloosterman_units_computed"] = sum(
        g.euler_phi(c) for c in attrs("quad_counts.kloosterman"))
    m["quad_counts.rho_bruteforce_s"] = total("quad_counts.rho_bruteforce")
    m["quad_counts.rho_fast_s"] = total("quad_counts.rho_fast")

    m["characters.pin_s"] = total("characters.pin")
    m["characters.pin_calls"] = calls("characters.pin")
    m["characters.pin_cold"] = len(set(attrs("characters.pin")))

    m["lattice.eta_fit_s"] = total("lattice.eta_fit")
    m["lattice.circle_count_calls"] = calls("lattice.circle_count")
    m["trace.spans"] = len(spans)

    for name, fed in _FED_BY.items():
        if name not in tracer.present:
            for key in fed:
                m.pop(key, None)
    return m
