"""Spans at the library's layer boundaries, for the traced run only.

The benchmark times the layers from outside the library: each layer is
one module of ``cellcomplexes``.  :meth:`Tracer.install` replaces the
workloads' own entry points (:class:`workloads.Lib`), the names one
library module imports from another, and the few methods and
module-internal names that the per-layer metrics need, with wrappers
that record one span per call: name, start, end, parent span and op.
:meth:`Tracer.restore` puts the originals back.  Spans are kept in
memory and written as gzip-compressed JSON lines when the run ends.

A span is named after the function it wraps (``snf.invariant_factors``,
``complexes.Ccc.__init__``); its self time is its duration minus the
time its child spans cover.  The per-layer metrics sum self times by
span name and add counts taken from the arguments and results that
cross each boundary.  A name the library no longer has raises at
install time, so that a renamed layer cannot report zero time.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# module -> names patched in that module's namespace.  Most are imports
# from another module; subdivision and duality also route calls between
# their own functions through these names.
NAMESPACE_PATCHES = {
    "cli": ("homology", "cohomology", "h0_components", "orient", "orient_all_cells",
            "all_flags", "stokes_check", "verify_duality", "barycentric",
            "barycentric_via_stellar", "stellar"),
    "fileformat": ("loads", "dumps", "build_complex"),
    "chains": ("invariant_factors", "kernel_basis", "smith_normal_form",
               "solve_columns", "matmul"),
    "subdivision": ("chain_complex", "homology_of", "flags_of",
                    "permutation_orientation", "_derive_signs", "stellar",
                    "barycentric", "big_phi", "barycentric_via_stellar"),
    "duality": ("chain_complex", "homology_of", "cohomology_of",
                "free_cycle_generators", "boundary", "coboundary", "orient",
                "orient_all_cells", "flags_of", "_closure_flag_graph",
                "_derive_signs", "_two_color", "barycentric", "chain_of_cell",
                "dual_orientations"),
}
CLASS_PATCHES = {
    ("complexes", "Ccc"): ("__init__", "validate_axioms", "closure", "up_set",
                           "subcomplex", "classify", "dual"),
    ("subdivision", "ChainMap"): ("then",),
}

# per-layer time metric -> the spans whose self time it sums
SELF_TIME = {
    "cli.main_s": ("cli.main",),
    "fileformat.loads_s": ("fileformat.loads",),
    "fileformat.dumps_s": ("fileformat.dumps",),
    "complexes.build_s": ("complexes.Ccc.__init__", "complexes.build_complex",
                          "complexes.from_simplicial", "complexes.product"),
    "complexes.validate_s": ("complexes.Ccc.validate_axioms",),
    "complexes.query_s": ("complexes.Ccc.closure", "complexes.Ccc.up_set",
                          "complexes.Ccc.subcomplex", "complexes.Ccc.classify",
                          "complexes.Ccc.dual"),
    "flags.orient_all_cells_s": ("flags.orient_all_cells",),
    "flags.orient_s": ("flags.orient",),
    "flags.simplicial_signs_s": ("flags.simplicial_signs",),
    "chains.chain_complex_s": ("chains.chain_complex",),
    "chains.homology_s": ("chains.homology", "chains.cohomology", "chains.homology_of",
                          "chains.cohomology_of"),
    "chains.cycle_reps_s": ("chains.free_cycle_generators",),
    "snf.invariant_factors_s": ("snf.invariant_factors",),
    "snf.smith_normal_form_s": ("snf.smith_normal_form", "snf.kernel_basis",
                                "snf.solve_columns"),
    "subdivision.stellar_s": ("subdivision.stellar",),
    "subdivision.chain_map_s": ("subdivision.ChainMap.then",),
    "subdivision.barycentric_s": ("subdivision.barycentric",),
    "subdivision.big_phi_s": ("subdivision.big_phi",),
    "subdivision.tower_s": ("subdivision.barycentric_via_stellar",),
    "duality.dual_orientations_s": ("duality.dual_orientations",),
    "duality.verify_duality_s": ("duality.verify_duality",),
    "duality.stokes_check_s": ("duality.stokes_check",),
    "duality.pairing_matrix_s": ("duality.homology_pairing_matrix",),
}
# every span of these layers; "bench" is the workload's own code inside an op
LAYER_TOTALS = ("fileformat", "complexes", "flags", "chains", "snf", "subdivision",
                "duality", "bench")
ROOT = "bench.op"

COUNT_METRICS = ("fileformat.bytes", "complexes.cells_built", "flags.flags", "flags.signs",
                 "chains.nnz", "chains.dense_entries", "snf.invariant_factors_calls",
                 "snf.smith_calls", "subdivision.stellar_steps", "duality.sign_pairs")
MAX_METRICS = ("snf.max_side", "snf.largest_factor")


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {m: "s" for m in SELF_TIME}
    units.update({f"{layer}.self_s": "s" for layer in LAYER_TOTALS})
    units.update({m: "count" for m in COUNT_METRICS + MAX_METRICS})
    units["fileformat.bytes"] = "bytes"
    units.update({"flags.flags_per_sign": "1", "chains.density": "1",
                  "subdivision.rebuild_ratio": "1", "trace.overhead_s": "s",
                  "trace.spans": "count", "trace.root_cover": "1", "trace.lib_cover": "1"})
    return units


def _shape_nnz(m):
    if hasattr(m, "shape"):
        return m.shape, int(np.count_nonzero(m))
    rows = len(m)
    return (rows, len(m[0]) if rows else 0), sum(1 for row in m for x in row if x)


def _count_elimination(tr, matrix, counts_boundary):
    (rows, cols), nnz = _shape_nnz(matrix)
    tr.maximize("snf.max_side", max(rows, cols))
    if counts_boundary:
        tr.counts["chains.nnz"] += nnz
        tr.counts["chains.dense_entries"] += rows * cols


def _count_invariant_factors(tr, args, result):
    tr.counts["snf.invariant_factors_calls"] += 1
    _count_elimination(tr, args[0], True)
    tr.maximize("snf.largest_factor", max((abs(d) for d in result), default=0))


def _count_kernel_basis(tr, args, result):
    tr.counts["snf.smith_calls"] += 1
    _count_elimination(tr, args[0], True)


def _count_solve_columns(tr, args, result):
    tr.counts["snf.smith_calls"] += 1
    basis = args[0]
    tr.maximize("snf.max_side", max(len(basis), len(basis[0]) if basis else 0))


def _count_smith(tr, args, result):
    tr.counts["snf.smith_calls"] += 1
    _count_elimination(tr, args[0], False)
    tr.maximize("snf.largest_factor", max((abs(d) for d in result.diagonal), default=0))


def _count_sign_table(tr, args, table):
    tr.counts["flags.flags"] += sum(len(o.colors) for o in table.orientations.values())
    tr.counts["flags.signs"] += len(table.signs)


def _count_orientation(tr, args, omega):
    tr.counts["flags.flags"] += len(omega.colors)


def _count_stellar(tr, args, result):
    res, _ = result
    tr.counts["subdivision.stellar_steps"] += 1
    tr.counts["subdivision.changed"] += len(args[0]) - len(res.old_cells) + len(res.new_cells)
    tr.counts["subdivision.rebuilt"] += len(res.complex)


COUNTERS = {
    "fileformat.loads": lambda tr, args, r: tr.add("fileformat.bytes", len(args[0])),
    "fileformat.dumps": lambda tr, args, r: tr.add("fileformat.bytes", len(r)),
    "complexes.Ccc.__init__": lambda tr, args, r: tr.add("complexes.cells_built",
                                                         len(args[1])),
    "flags.orient_all_cells": _count_sign_table,
    "flags.simplicial_signs": _count_sign_table,
    "flags.orient": _count_orientation,
    "snf.invariant_factors": _count_invariant_factors,
    "snf.kernel_basis": _count_kernel_basis,
    "snf.solve_columns": _count_solve_columns,
    "snf.smith_normal_form": _count_smith,
    "subdivision.stellar": _count_stellar,
    "duality.dual_orientations": lambda tr, args, r: tr.add("duality.sign_pairs",
                                                            len(r.signs.signs)),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.names = []                # span name by id
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1              # innermost open span
        self.op_id = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._wrappers = {}            # original function -> its wrapper
        self._patched = []             # (owner, attribute, original)

    # -- counters ------------------------------------------------------------

    def add(self, key, value):
        self.counts[key] += value

    def maximize(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.current = self.parent[i]

    @contextmanager
    def root(self, op_id: int):
        """The root span of one op; library spans inside it become its children."""
        self.op_id = op_id
        i = self._open(self._name_id(ROOT))
        try:
            yield
        finally:
            self._close(i)
            self.op_id = -1

    def _wrap(self, fn):
        name = span_name(fn)
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        tr = self

        def wrapper(*args, **kwargs):
            i = tr._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(i)
            if count is not None:
                count(tr, args, result)
            return result

        wrapper.__name__, wrapper.__qualname__ = fn.__name__, fn.__qualname__
        wrapper.__doc__, wrapper.__wrapped__ = fn.__doc__, fn
        return wrapper

    # -- installing and restoring ---------------------------------------------

    def _patch(self, owner, attr: str):
        original = vars(owner)[attr]
        if original not in self._wrappers:
            self._wrappers[original] = self._wrap(original)
        setattr(owner, attr, self._wrappers[original])
        self._patched.append((owner, attr, original))

    def install(self, lib):
        for module, names in NAMESPACE_PATCHES.items():
            mod = importlib.import_module(f"cellcomplexes.{module}")
            for name in names:
                self._patch(mod, name)
        for (module, cls_name), names in CLASS_PATCHES.items():
            cls = getattr(importlib.import_module(f"cellcomplexes.{module}"), cls_name)
            for name in names:
                self._patch(cls, name)
        for name in list(vars(lib)):
            self._patch(lib, name)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        return dur, parent, name_of

    def self_times(self) -> dict:
        """Total self time per span name."""
        dur, parent, name_of = self._arrays()
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        totals = np.bincount(name_of, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))

    def root_time(self) -> float:
        dur, parent, name_of = self._arrays()
        return float(dur[(name_of == self._ids.get(ROOT, -1)) & (parent < 0)].sum())

    def metrics(self, batches: int, batch_wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics per traced batch.  ``batch_wall_s`` is the wall
        time of all traced batches, checks included."""
        own = self.self_times()
        out = {m: sum(own.get(s, 0.0) for s in spans) / batches
               for m, spans in SELF_TIME.items()}
        for layer in LAYER_TOTALS:
            out[f"{layer}.self_s"] = sum(t for n, t in own.items()
                                         if n.split(".", 1)[0] == layer) / batches
        for key in COUNT_METRICS:
            out[key] = self.counts[key] / batches
        for key in MAX_METRICS:
            out[key] = self.maxima[key]
        c = self.counts
        out["flags.flags_per_sign"] = c["flags.flags"] / c["flags.signs"] if c["flags.signs"] else 0.0
        out["chains.density"] = (c["chains.nnz"] / c["chains.dense_entries"]
                                 if c["chains.dense_entries"] else 0.0)
        out["subdivision.rebuild_ratio"] = (c["subdivision.changed"] / c["subdivision.rebuilt"]
                                            if c["subdivision.rebuilt"] else 0.0)
        roots = self.root_time()
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = len(self.start) / batches
        out["trace.root_cover"] = roots / batch_wall_s
        out["trace.lib_cover"] = 1.0 - own.get(ROOT, 0.0) / roots if roots else 0.0
        return out

    def write_jsonl(self, path):
        names, ops = self.names, self.op
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i, (n, s, e, p) in enumerate(zip(self.name_of, self.start, self.end,
                                                 self.parent)):
                f.write(f'{{"id":{i},"name":"{names[n]}","start":{s!r},"end":{e!r},'
                        f'"parent":{p},"op":{ops[i]}}}\n')
