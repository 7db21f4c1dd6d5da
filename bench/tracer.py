"""Spans around the public functions of each lieconf layer, installed from outside.

``install()`` wraps every function in ``WRAPPED`` and rebinds the wrapper at
every ``lieconf.*`` site that binds the original: the defining module, each
module that imported it by name, and class attributes (``__rmul__`` is the
same function as ``__mul__``).  Each call records a span ``(name, start,
end, parent)``; spans stay in memory until ``dump()``.  The patches are
process-wide, so the span store is module state: one tracer per interpreter,
in the command's own process.

``summarize()`` turns the dumps of one pass into the per-layer metrics.  A
span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans add up to the root ``cli.main`` spans.
Functions that are not wrapped (private helpers, ``SimpleAlgebra`` methods,
``lieconf.surd``) count in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

# (layer, module, qualified name) of every wrapped function.
WRAPPED = [
    ("cli", "lieconf.cli", "main"),
    ("liealg", "lieconf.liealg", "build_algebra"),
    ("liealg", "lieconf.liealg", "constructible_types"),
    ("reps", "lieconf.reps", "weyl_dim"),
    ("reps", "lieconf.reps", "casimir"),
    ("reps", "lieconf.reps", "dynkin_index"),
    ("reps", "lieconf.reps", "dual_weight"),
    ("reps", "lieconf.reps", "freudenthal_weights"),
    ("reps", "lieconf.reps", "product_weight_system"),
    ("reps", "lieconf.reps", "tensor_decompose"),
    ("reps", "lieconf.reps", "pair_weights"),
    ("reps", "lieconf.reps", "decompose_weight_system"),
    ("reps", "lieconf.reps", "square_decompose"),
    ("reps", "lieconf.reps", "irreps_of_dim"),
    ("embed", "lieconf.embed", "dual_pair_branching"),
    ("embed", "lieconf.embed", "embedding_index"),
    ("embed", "lieconf.embed", "defining_weight"),
    ("embed", "lieconf.embed", "load_catalog"),
    ("embed", "lieconf.embed", "resolve_case"),
    ("embed", "lieconf.embed", "builtin_labels"),
    ("embed", "lieconf.embed", "BranchingCase.check_dimensions"),
    ("conformal", "lieconf.conformal", "central_charge"),
    ("conformal", "lieconf.conformal", "solve_levels"),
    ("conformal", "lieconf.conformal", "level_flags"),
    ("conformal", "lieconf.conformal", "ap_check"),
    ("conformal", "lieconf.conformal", "necessary_constants"),
    ("conformal", "lieconf.conformal", "search_so_irreducible"),
    ("conformal", "lieconf.conformal", "search_sl_irreducible"),
    ("conformal", "lieconf.conformal", "table1_scan"),
    ("conformal", "lieconf.conformal", "a1_exclusion_check"),
    ("conformal", "lieconf.conformal", "a1_exclusion_survey"),
    ("conformal", "lieconf.conformal", "global_report"),
    ("qseries", "lieconf.qseries", "euler_phi"),
    ("qseries", "lieconf.qseries", "character"),
    ("qseries", "lieconf.qseries", "identity_sides"),
    ("qseries", "lieconf.qseries", "verify_identity"),
    ("qseries", "lieconf.qseries", "PuiseuxSeries.__mul__"),
    ("qseries", "lieconf.qseries", "PuiseuxSeries.inverse"),
    ("qseries", "lieconf.qseries", "PuiseuxSeries.__pow__"),
    ("qseries", "lieconf.qseries", "PuiseuxSeries.substitute"),
    ("qseries", "lieconf.qseries", "PuiseuxSeries.first_mismatch"),
]

LAYERS = ("cli", "liealg", "reps", "embed", "conformal", "qseries")

# The lru_caches read at the end of each command.
CACHES = [
    ("lieconf.liealg", "_build"),
    ("lieconf.reps", "_weyl_data"),
    ("lieconf.reps", "_height_form"),
    ("lieconf.reps", "_weyl_dim_cached"),
    ("lieconf.reps", "_weight_system"),
]


def span_name(layer: str, qualname: str) -> str:
    """``reps.weyl_dim``, ``qseries.mul`` for ``PuiseuxSeries.__mul__``."""
    return f"{layer}.{qualname.rsplit('.', 1)[-1].strip('_')}"


NAMES = [span_name(layer, qualname) for layer, _, qualname in WRAPPED]

_spans: List[Optional[tuple]] = []
_stack: List[int] = [-1]
_counters: Dict[str, int] = {}
_built: Dict[str, List[int]] = {}


def _bump(name: str, amount: int) -> None:
    _counters[name] = _counters.get(name, 0) + amount


def _coeff_bits(series) -> None:
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs.values()),
        default=0,
    )
    _counters["max_coeff_bits"] = max(_counters.get("max_coeff_bits", 0), bits)


def _after_build(args, alg) -> None:
    _built[str(alg.type)] = [alg.rank, alg.num_positive]


def _after_weights(args, ws) -> None:
    _bump("weights_returned", len(ws.entries if hasattr(ws, "entries") else ws))


def _after_decompose(args, result) -> None:
    ws = args[1]
    _bump("peel_input_weights", len(ws.entries if hasattr(ws, "entries") else ws))
    _bump("peel_components", len(result.components))


def _after_mul(args, result) -> None:
    other = args[1]
    _bump("terms_multiplied", len(args[0].coeffs) * len(getattr(other, "coeffs", (other,))))
    if result is not NotImplemented:
        _coeff_bits(result)


def _after_series(args, result) -> None:
    _coeff_bits(result)


# Counters are updated after the span closes, so they never count as the
# wrapped function's own time.
_AFTER: Dict[str, Callable] = {
    "liealg.build_algebra": _after_build,
    "reps.freudenthal_weights": _after_weights,
    "reps.product_weight_system": _after_weights,
    "reps.decompose_weight_system": _after_decompose,
    "qseries.mul": _after_mul,
    "qseries.inverse": _after_series,
    "qseries.pow": _after_series,
}


def _wrap(index: int, fn: Callable) -> Callable:
    after = _AFTER.get(NAMES[index])
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        pos = len(_spans)
        parent = _stack[-1]
        _spans.append(None)
        _stack.append(pos)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            _stack.pop()
            _spans[pos] = (index, start, end, parent)
        if after is not None:
            after(args, result)
        return result

    return traced


def _lieconf_namespaces():
    """Every lieconf module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != "lieconf" and not name.startswith("lieconf."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("lieconf"):
                yield value


def install() -> Dict[int, int]:
    """Wrap every function in WRAPPED; return the number of sites rebound per entry."""
    importlib.import_module("lieconf.cli")
    wrappers = {}
    for index, (_, module, qualname) in enumerate(WRAPPED):
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = vars(owner)[attr]
        wrappers[id(fn)] = (index, fn, _wrap(index, fn))
    sites = {index: 0 for index in range(len(WRAPPED))}
    seen = set()
    for namespace in _lieconf_namespaces():
        if id(namespace) in seen:
            continue
        seen.add(id(namespace))
        for attr, value in list(vars(namespace).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[1] is value:
                setattr(namespace, attr, hit[2])
                sites[hit[0]] += 1
    return sites


def dump() -> dict:
    """Everything the parent needs from one traced command."""
    caches = {}
    for module, name in CACHES:
        info = getattr(sys.modules[module], name).cache_info()
        caches[name] = [info.hits, info.misses]
    return {
        "names": NAMES,
        "spans": [s for s in _spans if s is not None],
        "counters": _counters,
        "built": _built,
        "caches": caches,
    }


# ---------------------------------------------------------------------------
# aggregation, in the benchmark process

_S = 1e-9

# per-function self-time metrics: metric name -> span name
FUNCTION_TIMES = {
    "liealg.build_algebra_s": "liealg.build_algebra",
    "reps.freudenthal_weights_s": "reps.freudenthal_weights",
    "reps.product_weight_system_s": "reps.product_weight_system",
    "reps.decompose_weight_system_s": "reps.decompose_weight_system",
    "reps.pair_weights_s": "reps.pair_weights",
    "reps.tensor_decompose_s": "reps.tensor_decompose",
    "reps.irreps_of_dim_s": "reps.irreps_of_dim",
    "reps.casimir_s": "reps.casimir",
    "embed.dual_pair_branching_s": "embed.dual_pair_branching",
    "embed.resolve_case_s": "embed.resolve_case",
    "embed.load_catalog_s": "embed.load_catalog",
    "conformal.solve_levels_s": "conformal.solve_levels",
    "conformal.ap_check_s": "conformal.ap_check",
    "conformal.global_report_s": "conformal.global_report",
    "qseries.mul_s": "qseries.mul",
    "qseries.inverse_s": "qseries.inverse",
    "qseries.pow_s": "qseries.pow",
    "qseries.substitute_s": "qseries.substitute",
    "qseries.first_mismatch_s": "qseries.first_mismatch",
}

# per-function call counts: metric name -> span name
FUNCTION_CALLS = {
    "reps.weyl_dim_calls": "reps.weyl_dim",
    "reps.casimir_calls": "reps.casimir",
    "embed.cases_built": "embed.check_dimensions",
    "conformal.solve_levels_calls": "conformal.solve_levels",
    "conformal.level_flags_calls": "conformal.level_flags",
    "conformal.ap_check_calls": "conformal.ap_check",
    "qseries.mul_calls": "qseries.mul",
}

COUNTERS = {
    "reps.weights_returned": "weights_returned",
    "reps.peel_components": "peel_components",
    "reps.peel_input_weights": "peel_input_weights",
    "qseries.terms_multiplied": "terms_multiplied",
}


def self_times(spans: Sequence[Sequence[int]]) -> List[int]:
    """Self time in ns of every span: duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def summarize(dumps: Sequence[dict], output_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its commands' dumps."""
    self_ns = {name: 0 for name in NAMES}
    calls = {name: 0 for name in NAMES}
    counters: Dict[str, int] = {}
    caches = {name: [0, 0] for _, name in CACHES}
    built = {"roots": 0, "max_rank": 0}
    root_ns = spans = 0
    for d in dumps:
        names = d["names"]
        own = self_times(d["spans"])
        for (index, start, end, parent), ns in zip(d["spans"], own):
            self_ns[names[index]] += ns
            calls[names[index]] += 1
            if parent < 0:
                root_ns += end - start
        spans += len(d["spans"])
        for key, value in d["counters"].items():
            if key == "max_coeff_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for name, (hits, misses) in d["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses
        built["roots"] += sum(roots for _, roots in d["built"].values())
        built["max_rank"] = max([built["max_rank"]] + [r for r, _ in d["built"].values()])

    out: Dict[str, float] = {}
    layer_total = 0
    for layer in LAYERS:
        members = [n for n in NAMES if n.startswith(layer + ".")]
        ns = sum(self_ns[n] for n in members)
        layer_total += ns
        out[f"{layer}.self_s"] = ns * _S
        out[f"{layer}.calls"] = sum(calls[n] for n in members)
    out["cli.output_bytes"] = output_bytes
    out["liealg.algebras_built"] = caches["_build"][1]
    out["liealg.positive_roots_built"] = built["roots"]
    out["liealg.max_rank_built"] = built["max_rank"]
    for metric, name in FUNCTION_TIMES.items():
        out[metric] = self_ns[name] * _S
    for metric, name in FUNCTION_CALLS.items():
        out[metric] = calls[name]
    for metric, name in COUNTERS.items():
        out[metric] = counters.get(name, 0)
    out["qseries.max_coeff_bits"] = counters.get("max_coeff_bits", 0)
    out["reps.weight_system_cache_hit_ratio"] = _ratio(*caches["_weight_system"])
    out["reps.weyl_dim_cache_hit_ratio"] = _ratio(*caches["_weyl_dim_cached"])
    out["trace.spans"] = spans
    out["trace.command_s"] = root_ns * _S
    out["trace.attributed_ratio"] = layer_total / root_ns if root_ns else 0.0
    return out


def median_metrics(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Median of each metric over passes (counts repeat exactly across passes)."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
