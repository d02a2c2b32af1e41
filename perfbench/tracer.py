"""Outside-in tracer for the crgeom benchmark's traced run.

``Tracer.install()`` wraps, from outside the program, the public
functions of every measured ``crgeom`` module at every place they are
bound (modules import each other with ``from .linalg import rank``, so
``crgeom.frame.rank`` and ``crgeom.hypersurface.rank`` are patched
separately), the ``Series`` operators and kernels on the class, and
``Frame.__init__``.  Each wrapped call records a span (name, start, end,
parent span, job id) in flat in-memory arrays; self time is a span's
duration minus that of its direct children.  ``GaussRational`` add, mul
and div are only counted, because a single job makes about a million of
them.  ``uninstall()`` restores every binding.

``corpus`` and ``errors`` are not measured.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from statistics import median, median_low

# layer name (the ROADMAP's five layers) -> modules
LAYERS = {
    "scalars": ("scalars",),
    "series_kernels": ("series", "parsing"),
    "frame_levi": ("frame", "hypersurface", "crmap"),
    "solvers": ("linalg", "briot_bouquet", "prolongation"),
    "pipelines": ("report", "cli"),
}
TIMED_MODULES = [m for layer, mods in LAYERS.items() if layer != "scalars"
                 for m in mods]

SERIES_OPERATORS = {"__add__": "add", "__radd__": "add", "__sub__": "sub",
                    "__rsub__": "sub", "__neg__": "neg", "__mul__": "mul",
                    "__rmul__": "mul", "__pow__": "pow"}
SERIES_METHODS = ("diff", "conjugate", "is_real", "reciprocal",
                  "divide_by_power", "divide_unit_form", "subs",
                  "coefficient_in", "set_var_zero", "truncate", "to_literal")
# __sub__, __rsub__, __pow__ and __rtruediv__ go through these
SCALAR_OPERATORS = {"__add__": "add", "__radd__": "add", "__mul__": "mul",
                    "__rmul__": "mul", "__truediv__": "div"}

# The end-to-end metric each per-layer metric of BENCHMARK.json should
# move, and the workloads it should move on (the rest should see little
# or none).  Names and units come from BENCHMARK.json; run.py checks
# that the two name lists agree.
MOVES = {
    "scalars.mul_calls": ("wall_s", "all"),
    "scalars.add_calls": ("wall_s", "all"),
    "scalars.div_calls": ("wall_s", "all"),
    "scalars.max_coeff_bits": ("wall_s, peak_rss_mb", "odes"),
    "series.mul_calls": ("wall_s", "invariants, maps"),
    "series.mul_self_s": ("wall_s", "invariants, maps"),
    "series.mul_term_pairs": ("wall_s", "invariants, maps"),
    "series.diff_self_s": ("wall_s", "invariants"),
    "series.add_self_s": ("wall_s", "invariants"),
    "series.subs_calls": ("wall_s", "maps"),
    "series.subs_self_s": ("wall_s", "maps"),
    "series.reciprocal_calls": ("wall_s", "maps, invariants"),
    "series.reciprocal_self_s": ("wall_s", "maps, invariants"),
    "series.max_terms": ("peak_rss_mb", "invariants, maps"),
    "parsing.parse_series_self_s": ("job_p50_s", "maps"),
    "frame.bracket_calls": ("wall_s", "invariants, maps"),
    "frame.bracket_self_s": ("wall_s", "invariants, maps"),
    "frame.lie_derivative_calls": ("wall_s", "invariants"),
    "frame.lie_derivative_self_s": ("wall_s", "invariants"),
    "frame.filtration_self_s": ("wall_s", "invariants"),
    "frame.Frame_init_self_s": ("wall_s", "maps, invariants"),
    "frame.levi_matrix_self_s": ("wall_s", "maps, invariants"),
    "frame.desingularize_self_s": ("wall_s", "maps, invariants"),
    "hypersurface.essentiality_check_self_s": ("job_p50_s", "invariants"),
    "hypersurface.nondegeneracy_ell_self_s": ("job_p50_s", "invariants"),
    "hypersurface.validate_self_s": ("job_p50_s", "invariants"),
    "crmap.check_identities_self_s": ("wall_s", "maps"),
    "crmap.frame_data_self_s": ("wall_s", "maps"),
    "crmap.maps_into_self_s": ("wall_s", "maps"),
    "crmap.compose_with_map_calls": ("wall_s", "maps"),
    "linalg.rref_calls": ("wall_s", "odes, invariants"),
    "linalg.rref_self_s": ("wall_s", "odes, invariants"),
    "linalg.solve_linear_self_s": ("wall_s", "odes"),
    "linalg.max_matrix_dim": ("wall_s", "odes"),
    "linalg.char_poly_calls": ("wall_s", "odes"),
    "linalg.mat_mul_calls": ("wall_s", "odes"),
    "linalg.mat_mul_self_s": ("wall_s", "odes"),
    "linalg.char_poly_self_s": ("wall_s", "odes"),
    "linalg.series_mat_inverse_self_s": ("wall_s", "maps, invariants"),
    "briot_bouquet.formal_solve_self_s": ("wall_s", "odes"),
    "briot_bouquet.linear_part_calls": ("wall_s", "odes"),
    "briot_bouquet.linear_part_self_s": ("wall_s", "odes"),
    "prolongation.assemble_and_solve_self_s": ("job_p50_s", "odes"),
    "prolongation.freeze_x_self_s": ("job_p50_s", "odes"),
    "report.to_json_self_s": ("job_p50_s", "all"),
    "cli.main_self_s": ("job_p50_s", "all"),
    "layer.series_kernels_self_s": ("wall_s", "invariants, maps"),
    "layer.frame_levi_self_s": ("wall_s", "invariants, maps"),
    "layer.solvers_self_s": ("wall_s", "odes"),
    "layer.pipelines_self_s": ("job_p50_s", "all"),
    "trace.spans": ("none (tracing cost)", "all"),
    "trace.traced_wall_s": ("none (tracing cost)", "all"),
    "trace.overhead_s": ("none (tracing cost)", "all"),
}


PACKAGE = "crgeom"


class Tracer:
    def __init__(self):
        self.names = []                 # span name per name id
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.job = -1
        self.scalar_calls = {"add": [0], "mul": [0], "div": [0]}
        self.term_pairs = [0]
        self.max_terms = [0]
        self.max_dim = [0]
        self._patches = []              # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, pre=None, post=None):
        nid = self._name_id(name)
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    @staticmethod
    def _counter(fn, cell):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in TIMED_MODULES}
        Series = mods["series"].Series
        GaussRational = sys.modules[f"{PACKAGE}.scalars"].GaussRational
        Frame = mods["frame"].Frame
        max_terms, max_dim, pairs = self.max_terms, self.max_dim, self.term_pairs

        def note_terms(result):
            if type(result) is Series and len(result.terms) > max_terms[0]:
                max_terms[0] = len(result.terms)

        def note_pairs(args):
            a, b = args[0], args[1]
            pairs[0] += len(a.terms) * (len(b.terms) if type(b) is Series else 1)

        def note_dim(args):
            rows = args[0]
            dim = max(len(rows), len(rows[0]) if rows else 0)
            if dim > max_dim[0]:
                max_dim[0] = dim

        hooks = {"linalg.rref": (note_dim, None),
                 "linalg.char_poly": (note_dim, None),
                 "linalg.series_mat_inverse": (note_dim, None)}

        wrapped = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{mname}.{attr}"
                    pre, post = hooks.get(name, (None, None))
                    if mname in ("series", "parsing"):
                        post = note_terms
                    wrapped[obj] = self._span(obj, name, pre, post)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == PACKAGE
                                   or mname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        by_fn = {}
        for attr, op in SERIES_OPERATORS.items():
            fn = Series.__dict__[attr]
            if fn not in by_fn:
                by_fn[fn] = self._span(fn, f"series.{op}",
                                       note_pairs if op == "mul" else None,
                                       note_terms)
            self._patch(Series, attr, by_fn[fn])
        for attr in SERIES_METHODS:
            self._patch(Series, attr, self._span(
                Series.__dict__[attr], f"series.{attr}", None, note_terms))
        for attr, op in SCALAR_OPERATORS.items():
            self._patch(GaussRational, attr, self._counter(
                GaussRational.__dict__[attr], self.scalar_calls[op]))
        self._patch(Frame, "__init__",
                    self._span(Frame.__dict__["__init__"], "frame.Frame_init"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def per_pass(self, jobs_per_pass: int, passes: int):
        """Per traced pass, {span name: (calls, self seconds)}; job ids
        count up from 0, so job j belongs to pass j // jobs_per_pass."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = [{} for _ in range(passes)]
        for i in range(n):
            summary = out[self.span_job[i] // jobs_per_pass]
            name = self.names[self.span_name[i]]
            calls, self_s = summary.get(name, (0, 0.0))
            summary[name] = (calls + 1, self_s + ends[i] - starts[i] - child[i])
        return out

    def write(self, path: str, passes) -> None:
        """Every span as one JSON line, after a header line naming the
        traced passes' job ids."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "passes": passes}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"[{self.span_name[i]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r},{self.span_parent[i]},"
                         f"{self.span_job[i]}]\n")


def layer_metrics(units, per_pass, scalar_counts, counters, coeff_bits,
                  traced_wall, untraced_wall):
    """The per-layer metrics named in ``units`` ({name: unit}): medians
    over traced passes of the per-pass span summaries from
    ``Tracer.per_pass`` (a count takes the lower median, so it stays a
    count)."""
    def med(fn, pick=median):
        return pick(fn(p) for p in per_pass)

    module_layer = {m: layer for layer, mods in LAYERS.items() for m in mods}
    out = {}
    for name, unit in units.items():
        if name.startswith("scalars.") and name.endswith("_calls"):
            value = scalar_counts[name[len("scalars."):-len("_calls")]]
        elif name == "scalars.max_coeff_bits":
            value = coeff_bits
        elif name in counters:
            value = counters[name]
        elif name.startswith("layer."):
            layer = name[len("layer."):-len("_self_s")]
            value = med(lambda p: sum(
                s for span, (_, s) in p.items()
                if module_layer[span.split(".")[0]] == layer))
        elif name == "trace.spans":
            value = med(lambda p: sum(c for c, _ in p.values()), median_low)
        elif name == "trace.traced_wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        elif name.endswith("_calls"):
            span = name[:-len("_calls")]
            value = med(lambda p: p.get(span, (0, 0.0))[0], median_low)
        else:
            span = name[:-len("_self_s")]
            value = med(lambda p: p.get(span, (0, 0.0))[1])
        out[name] = {"value": value, "unit": unit}
    return out
