"""Spans and counters around the public functions of each ``euscat`` module.

Only the traced worker imports this file.  ``install`` replaces each
function in LAYERS, in every ``euscat`` module namespace that holds it, by a
wrapper that records a span (name, start, end, parent) while the recorder
is active, plus the counters the per-layer metrics need.  LAYERS holds the
functions the workloads reach that a per-layer metric needs.  A call nested
directly in a span of the same name (``Semigroup.apply`` calling
``semigroup_apply``) is part of that span, so it is counted once.

A layer's self time is its span durations minus the parts covered by child
spans.  Everything is kept in memory and summarised when the worker ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute or Class.method, span name, hook).  The hook names a
# counter function of HOOKS; an entry without a span only counts its calls,
# under the counter named in its hook field.
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("euscat.spectral", "build_grid", "spectral.build_grid", "grid"),
    ("euscat.spectral", "discretize_h", "spectral.discretize_h", None),
    ("euscat.spectral", "diagonalize", "spectral.diagonalize", None),
    ("euscat.spectral", "semigroup_apply", "spectral.semigroup", "semigroup"),
    ("euscat.spectral", "Semigroup.apply", "spectral.semigroup", "semigroup"),
    ("euscat.chebyshev", "expansion_coefficients", "chebyshev.expansion", "probe"),
    ("euscat.chebyshev", "converged_expansion", "chebyshev.converged", None),
    ("euscat.chebyshev", "apply_to_semigroup", "chebyshev.clenshaw", "degree"),
    ("euscat.model", "exact_s_on_shell", "model.exact_s_on_shell", None),
    ("euscat.kato_birman", "kb_s_overlap", "kato_birman.kb_s_overlap", None),
    ("euscat.kato_birman", "exact_s_in_packets", "kato_birman.exact_s_in_packets", None),
    ("euscat.kato_birman", "sweep_n", "kato_birman.sweep_n", None),
    ("euscat.kato_birman", "extract_sharp_t", "kato_birman.extract_sharp_t", None),
    ("euscat.euclidean_gf", "CovarianceKernel._sesqui", "euclidean_gf.sesqui", None),
    ("euscat.euclidean_gf", "CovarianceKernel._sesqui_at_resolution", None,
     "euclidean_gf.sesqui.passes"),
    ("euscat.euclidean_gf", "physical_gram", "euclidean_gf.gram", None),
    ("euscat.euclidean_gf", "one_particle_hamiltonian", "euclidean_gf.fd", None),
    ("euscat.euclidean_gf", "one_particle_mass_squared", "euclidean_gf.fd", None),
    ("euscat.euclidean_gf", "cluster_probe_pair", "euclidean_gf.cluster", None),
    ("euscat.euclidean_gf", "cluster_check", "euclidean_gf.cluster", None),
)


class Recorder:
    """Spans and counters of one traced process; records only while active."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
        return dict(out)

    def root_seconds(self) -> float:
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0
        )

    def dump(self) -> dict:
        """All spans, with names interned, for the spans file."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


def _semigroup(rec: Recorder, args, result) -> None:
    # one application per vector column; bytes are computed, not measured:
    # two reads of the N x N eigenvector matrix plus the vectors in and out
    op = getattr(args[0], "op", args[0])
    columns = result.shape[1] if result.ndim == 2 else 1
    rec.counters["spectral.semigroup.apps"] += columns
    rec.counters["spectral.semigroup.bytes"] += 2 * op.vectors.nbytes + 2 * result.nbytes


def _grid(rec: Recorder, args, result) -> None:
    rec.counters["spectral.grid_points"] += result.size


def _degree(rec: Recorder, args, result) -> None:
    rec.counters["chebyshev.degree_sum"] += args[0].degree


def _probe(rec: Recorder, args, result) -> None:
    # an expansion built inside converged_expansion is one convergence probe
    if rec.stack and rec.names[rec.stack[-1]] == "chebyshev.converged":
        rec.counters["chebyshev.probe_attempts"] += 1


HOOKS: Dict[str, Callable] = {
    "semigroup": _semigroup,
    "grid": _grid,
    "degree": _degree,
    "probe": _probe,
}


def _span_wrapper(fn: Callable, name: str, hook: Optional[Callable], rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if not rec.active or (stack and rec.names[stack[-1]] == name):
            return fn(*args, **kwargs)
        index = len(rec.names)
        rec.names.append(name)
        rec.parents.append(stack[-1] if stack else -1)
        rec.ends.append(0.0)
        stack.append(index)
        rec.starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.ends[index] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def _count_wrapper(fn: Callable, counter: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            rec.counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> List[str]:
    """Wrap every function in LAYERS; returns the names that were missing."""
    missing = []
    packages = [m for name, m in sys.modules.items() if name.split(".")[0] == "euscat"]
    for module_name, attr, span, hook in LAYERS:
        module = sys.modules[module_name]
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, member, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if span is None:
            wrapped = _count_wrapper(original, hook, rec)
        else:
            wrapped = _span_wrapper(original, span, HOOKS.get(hook), rec)
        setattr(owner, member, wrapped)
        if not owner_name:
            for other in packages:
                if getattr(other, member, None) is original:
                    setattr(other, member, wrapped)
    return missing


def layer_metrics(summary: Dict[str, Dict[str, float]], counters: Counter,
                  passes: int) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, per pass over the inputs.
    A ratio whose base is 0 (the layer is not used) reads 0."""

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0) / passes

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0) / passes

    def count(name: str) -> float:
        return counters.get(name, 0) / passes

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    apps = count("spectral.semigroup.apps")
    attempts = count("chebyshev.probe_attempts")
    sesqui = calls("euclidean_gf.sesqui")
    sesqui_passes = count("euclidean_gf.sesqui.passes")
    return {
        "spectral.semigroup.apps": apps,
        "spectral.semigroup.self_s": self_s("spectral.semigroup"),
        "spectral.semigroup.us_per_app": ratio(1e6 * self_s("spectral.semigroup"), apps),
        "spectral.semigroup.bytes_per_app": ratio(count("spectral.semigroup.bytes"), apps),
        "spectral.diagonalize.calls": calls("spectral.diagonalize"),
        "spectral.diagonalize.self_s": self_s("spectral.diagonalize"),
        "spectral.discretize_h.self_s": self_s("spectral.discretize_h"),
        "spectral.build_grid.calls": calls("spectral.build_grid"),
        "spectral.build_grid.self_s": self_s("spectral.build_grid"),
        "spectral.grid_points": count("spectral.grid_points"),
        "chebyshev.expansion.calls": calls("chebyshev.expansion"),
        "chebyshev.converged.calls": calls("chebyshev.converged"),
        "chebyshev.converged.self_s": self_s("chebyshev.converged"),
        "chebyshev.probe_ratio": ratio(calls("chebyshev.converged"), attempts),
        "chebyshev.degree_sum": count("chebyshev.degree_sum"),
        "chebyshev.clenshaw.self_s": self_s("chebyshev.clenshaw"),
        "kato_birman.kb_s_overlap.self_s": self_s("kato_birman.kb_s_overlap"),
        "kato_birman.sweep_n.self_s": self_s("kato_birman.sweep_n"),
        "kato_birman.extract_sharp_t.self_s": self_s("kato_birman.extract_sharp_t"),
        "kato_birman.exact_s_in_packets.self_s": self_s("kato_birman.exact_s_in_packets"),
        "model.exact_s_on_shell.calls": calls("model.exact_s_on_shell"),
        "model.exact_s_on_shell.self_s": self_s("model.exact_s_on_shell"),
        "euclidean_gf.sesqui.calls": sesqui,
        "euclidean_gf.sesqui.passes": sesqui_passes,
        "euclidean_gf.sesqui.self_s": self_s("euclidean_gf.sesqui"),
        "euclidean_gf.refine_ratio": ratio(sesqui, sesqui_passes),
        "euclidean_gf.gram.self_s": self_s("euclidean_gf.gram"),
        "euclidean_gf.fd.self_s": self_s("euclidean_gf.fd"),
        "euclidean_gf.cluster.self_s": self_s("euclidean_gf.cluster"),
    }
