"""Span tracing around calls into mukailab's layers, from outside the package.

``Tracer.install()`` wraps every function the package exports, plus
``NSLattice.pair_coords``, ``CohMap.apply``, ``cli.main``,
``cli.build_parser`` and the ``jsonio`` ``parse_*`` readers.  A wrapper
replaces the function in every mukailab module that holds its own
reference to it, so calls between modules are seen too.  A span records
name, start, end and parent span; self time is the span's duration minus
the time its child spans cover.  Counts are read from arguments and
return values.

Spans are aggregated as they close, so memory stays flat however long the
run.  The first ``keep_spans`` raw spans are also kept and written to the
trace file with the aggregates.
"""

import functools
import json
import sys
import time
from fractions import Fraction
from math import ceil, floor

# span names are "<module>.<function>"; jsonio's readers belong to the CLI
# front end and are reported together as cli.parse
LAYERS = ("lattice", "transforms", "walls", "series", "partition", "reductions", "cli")

PER_LAYER = (
    ("lattice.pair_coords.calls", "count/round"), ("lattice.pair_coords.self_s", "s/round"),
    ("lattice.mukai_pair.calls", "count/round"), ("lattice.mukai_pair.self_s", "s/round"),
    ("lattice.twist.self_s", "s/round"), ("lattice.vector_stats.self_s", "s/round"),
    ("lattice.self_s", "s/round"),
    ("transforms.apply.calls", "count/round"), ("transforms.apply.self_s", "s/round"),
    ("transforms.check_isometry.self_s", "s/round"), ("transforms.self_s", "s/round"),
    ("walls.effective_decompositions.self_s", "s/round"), ("walls.box_points", "count/round"),
    ("walls.decompositions", "count/round"), ("walls.decomp_keep_ratio", "ratio"),
    ("walls.walls_dim1.self_s", "s/round"), ("walls.walls_emitted", "count/round"),
    ("walls.unique_hyperplanes.self_s", "s/round"), ("walls.unique_in", "count/round"),
    ("walls.unique_ratio", "ratio"), ("walls.chamber_path.self_s", "s/round"),
    ("walls.crossings", "count/round"), ("walls.self_s", "s/round"),
    ("series.euler_hilb.self_s", "s/round"), ("series.euler_hilb.order_sum", "count/round"),
    ("series.hilb_series.self_s", "s/round"), ("series.e_gl.self_s", "s/round"),
    ("series.laurent_terms", "count/round"), ("series.self_s", "s/round"),
    ("partition.partition_z1.self_s", "s/round"), ("partition.hecke_zr.self_s", "s/round"),
    ("partition.merge_terms.self_s", "s/round"), ("partition.merge_in", "count/round"),
    ("partition.merge_out", "count/round"), ("partition.box_vectors", "count/round"),
    ("partition.self_s", "s/round"),
    ("reductions.enriques_reduce.self_s", "s/round"), ("reductions.reduce_to_rank_one.self_s", "s/round"),
    ("reductions.elliptic_gcd_reduce.self_s", "s/round"), ("reductions.trace_steps", "count/round"),
    ("reductions.self_s", "s/round"),
    ("cli.main.self_s", "s/round"), ("cli.build_parser.self_s", "s/round"), ("cli.parse.self_s", "s/round"),
    ("cli.output_bytes", "count/round"), ("cli.self_s", "s/round"),
)

# ratio -> (numerator count, base count)
RATIOS = {
    "walls.decomp_keep_ratio": ("walls.decompositions", "walls.box_points"),
    "walls.unique_ratio": ("walls.unique_out", "walls.unique_in"),
}


def _span_name(module, name):
    short = module.rsplit(".", 1)[-1]
    if short == "jsonio":
        return "cli.parse"
    return "%s.%s" % (short, name)


def _box_points(m, xi):
    """Lattice points the decomposition search scans: the coordinate box of
    {D : D, xi - D in the cone}, from the generators' coefficients of xi."""
    gens = [list(g.coords) for g in m.effective_generators]
    n, k = len(xi.coords), len(gens)
    aug = [[gens[j][i] for j in range(k)] + [xi.coords[i]] for i in range(n)]
    lam = [Fraction(0)] * k
    row = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for r, col in enumerate(pivots):
        lam[col] = aug[r][k]
    if any(x < 0 for x in lam) or any(aug[i][k] != 0 for i in range(row, n)):
        return 0
    total = 1
    for i in range(n):
        lo = sum((g[i] * top for g, top in zip(gens, lam) if g[i] * top < 0), Fraction(0))
        hi = sum((g[i] * top for g, top in zip(gens, lam) if g[i] * top > 0), Fraction(0))
        total *= max(0, floor(hi) - ceil(lo) + 1)
    return total


def _laurent_terms(result):
    polys = result if isinstance(result, list) else [result]
    return sum(len(p.terms) for p in polys)


def _trace_steps(result):
    trace = getattr(result, "trace", result)
    return len(trace.steps)


# per-span-name hooks: (args, kwargs, result) -> [(count name, amount)]
COUNT_HOOKS = {
    "walls.effective_decompositions": lambda a, k, r: [
        ("walls.box_points", _box_points(a[0], a[1])), ("walls.decompositions", len(r))],
    "walls.walls_dim1": lambda a, k, r: [("walls.walls_emitted", len(r))],
    "walls.unique_hyperplanes": lambda a, k, r: [
        ("walls.unique_in", len(a[0])), ("walls.unique_out", len(r))],
    "walls.chamber_path": lambda a, k, r: [("walls.crossings", len(r))],
    "series.euler_hilb": lambda a, k, r: [("series.euler_hilb.order_sum", a[1])],
    "series.hilb_series": lambda a, k, r: [("series.laurent_terms", _laurent_terms(r))],
    "series.e_gl": lambda a, k, r: [("series.laurent_terms", _laurent_terms(r))],
    "partition.merge_terms": lambda a, k, r: [
        ("partition.merge_in", len(a[0])), ("partition.merge_out", len(r))],
    "partition.lattice_box_vectors": lambda a, k, r: [("partition.box_vectors", len(r))],
    "reductions.enriques_reduce": lambda a, k, r: [("reductions.trace_steps", _trace_steps(r))],
    "reductions.reduce_to_rank_one": lambda a, k, r: [("reductions.trace_steps", _trace_steps(r))],
    "reductions.elliptic_gcd_reduce": lambda a, k, r: [("reductions.trace_steps", _trace_steps(r))],
}


class Tracer:
    """Collects spans and counts while ``active``; inert otherwise."""

    def __init__(self, keep_spans=20000):
        self.active = False
        self.keep_spans = keep_spans
        self.spans = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counts = {}
        self._stack = []
        self._next_id = 1
        self._origin = time.perf_counter()

    def count_now(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, func):
        hook = COUNT_HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            if name == "partition.merge_terms" and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]   # the hook takes its length
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]   # time covered by children, own id
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[0]
                if len(self.spans) < self.keep_spans:
                    parent = stack[-1][1] if stack else 0
                    self.spans.append((span_id, parent, name, start - self._origin, end - self._origin))
            if hook is not None:
                for key, amount in hook(args, kwargs, result):
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return functools.wraps(func)(traced)

    def install(self):
        """Wrap the traced functions in every loaded mukailab module."""
        import mukailab
        from mukailab import cli, jsonio, lattice, transforms

        targets = {}
        for attr, value in vars(mukailab).items():
            if callable(value) and not isinstance(value, type) and \
                    getattr(value, "__module__", "").startswith("mukailab"):
                targets[value] = _span_name(value.__module__, attr)
        for attr in ("main", "build_parser"):
            targets[getattr(cli, attr)] = "cli." + attr
        for attr, value in vars(jsonio).items():
            if attr.startswith("parse_") and callable(value):
                targets[value] = "cli.parse"
        wrapped = {id(f): self.wrap(n, f) for f, n in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname == "mukailab" or modname.startswith("mukailab."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        setattr(module, attr, wrapped[id(value)])
        lattice.NSLattice.pair_coords = self.wrap("lattice.pair_coords", lattice.NSLattice.pair_coords)
        transforms.CohMap.apply = self.wrap("transforms.apply", transforms.CohMap.apply)

    # ------------------------------------------------------------------

    def layer_totals(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def per_layer_metrics(self, rounds):
        """Every per-layer metric as a per-round figure (one round is one pass
        over the workload's job list), 0 where the layer is not used."""
        layers = self.layer_totals()
        out = {}
        for metric, unit in PER_LAYER:
            if metric in RATIOS:
                num, base = RATIOS[metric]
                b = self.counts.get(base, 0)
                value = self.counts.get(num, 0) / b if b else 0.0
            elif metric.endswith(".calls"):
                value = self.calls.get(metric[:-len(".calls")], 0) / rounds
            elif metric.endswith(".self_s"):
                key = metric[:-len(".self_s")]
                value = (layers[key] if key in layers else self.self_time.get(key, 0.0)) / rounds
            else:
                value = self.counts.get(metric, 0) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path, meta):
        doc = {
            "meta": meta,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans_kept": len(self.spans),
            "spans_total": self._next_id - 1,
            "functions": {name: {"calls": self.calls[name], "total_s": self.total[name],
                                 "self_s": self.self_time[name]} for name in sorted(self.calls)},
            "layers_self_s": self.layer_totals(),
            "counts": dict(sorted(self.counts.items())),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
