"""Batch command-line front end.

Subcommands: pair, transform, walls, chamberpath, wallsolve, epoly,
partition, reduce, dims, gitweight.  Inputs are JSON documents (inline or
from files) in the shared schema; output is deterministic JSON or TSV
with exact rationals (never decimals).  Exit codes: 0 success, 1 domain
error (the violated precondition is named), 2 parse error, 3 internal
invariant failure (a bug in mukailab, reported without a traceback).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from . import partition as partition_mod
from . import reductions, series, transforms, walls
from ._record import record
from .errors import InvariantError, MukaiLabError, ParseError, PreconditionError
from .jsonio import (fmt_rational, laurent_to_json, loads, parse_box,
                     parse_class, parse_cohmap, parse_gamma, parse_int,
                     parse_laurent, parse_rational, parse_surface,
                     parse_vector, vector_to_json)
from .lattice import mukai_pair

SUBCOMMANDS = ("pair", "transform", "walls", "chamberpath", "wallsolve",
               "epoly", "partition", "reduce", "dims", "gitweight")

# Largest --samples a job accepts: a selftest runs about 30 us per sample,
# so 10^4 samples take a fraction of a second.
MAX_SAMPLES = 10 ** 4


@record(frozen=False)
class JobSpec:
    subcommand: str
    surface: dict = None
    inputs: dict = None
    output_format: str = "json"
    order: int = 8
    box: object = None
    samples: int = 200
    selftest: bool = False
    extra: dict = None


def run(job, out=None):
    """Execute a job; returns the exit code and writes to ``out``."""
    out = out or sys.stdout
    try:
        if job.subcommand not in SUBCOMMANDS:
            raise ParseError("unknown subcommand: %r" % job.subcommand)
        if job.extra is not None and not isinstance(job.extra, dict):
            raise ParseError("extra must be a JSON object")
        samples = parse_int(job.samples, "samples")
        if samples < 0:
            raise ParseError("samples must be >= 0, got %d" % samples)
        if samples > MAX_SAMPLES:
            raise PreconditionError("samples-too-large",
                                    "%d samples exceed %d" % (samples, MAX_SAMPLES))
        if job.selftest:
            lines = _selftest(job)
        else:
            lines = _dispatch(job)
        for line in lines:
            out.write(line + "\n")
        return 0
    except ParseError as exc:
        out.write("parse error: %s\n" % exc)
        return 2
    except PreconditionError as exc:
        out.write("domain error [%s]: %s\n" % (exc.precondition, exc))
        return 1
    except InvariantError as exc:
        out.write("internal error: invariant failed: %s\n" % exc)
        return 3
    except MukaiLabError as exc:
        out.write("domain error: %s\n" % exc)
        return 1


def _need(job, key):
    return _field(job.inputs, key)


def _field(doc, key):
    """doc[key] of an input object; a parse error when doc is not an
    object or lacks the key."""
    if doc is not None and not isinstance(doc, dict):
        raise ParseError("input for %r must be a JSON object" % key)
    if doc is None or key not in doc:
        raise ParseError("missing input field: %r" % key)
    return doc[key]


def _array(value, key):
    if not isinstance(value, list):
        raise ParseError("input field %r must be an array" % key)
    return value


def _rationals(value, key):
    return tuple(parse_rational(x) for x in _array(value, key))


def _surface(job):
    if job.surface is None:
        raise ParseError("this subcommand needs --surface")
    return parse_surface(job.surface)


def _emit(job, doc, tsv_rows):
    if job.output_format == "tsv":
        return ["\t".join(str(c) for c in row) for row in tsv_rows]
    return [json.dumps(doc, sort_keys=True)]


# --- subcommand bodies -----------------------------------------------------


def _dispatch(job):
    return {
        "pair": _run_pair,
        "transform": _run_transform,
        "walls": _run_walls,
        "chamberpath": _run_chamberpath,
        "wallsolve": _run_wallsolve,
        "epoly": _run_epoly,
        "partition": _run_partition,
        "reduce": _run_reduce,
        "dims": _run_dims,
        "gitweight": _run_gitweight,
    }[job.subcommand](job)


def _run_pair(job):
    m = _surface(job)
    v = parse_vector(_need(job, "v"), m)
    w = parse_vector(_need(job, "w"), m)
    value = mukai_pair(v, w)
    return _emit(job, {"pair": fmt_rational(value)}, [[fmt_rational(value)]])


def _run_transform(job):
    m = _surface(job)
    cmap = parse_cohmap(_need(job, "map"), m)
    v = parse_vector(_need(job, "vector"), m)
    img = cmap.apply(v)
    doc = {"vector": vector_to_json(img), "kind": cmap.kind, "sign": cmap.sign}
    row = [fmt_rational(img.r)] + [fmt_rational(x) for x in img.c.coords] + [fmt_rational(img.t)]
    return _emit(job, doc, [row])


def _job_walls(job):
    """The surface of a walls or chamberpath job and its walls_dim1 list."""
    m = _surface(job)
    gamma = parse_gamma(_need(job, "gamma"), m)
    H = parse_class(_need(job, "H"), m.ns)
    box = parse_box(job.box if job.box is not None else _need(job, "box"), m.ns.rank)
    return m, walls.walls_dim1(gamma, H, box, m)


def _run_walls(job):
    rows, docs = [], []
    for w in _job_walls(job)[1]:
        D = [fmt_rational(x) for x in w.D.coords]
        rows.append([",".join(D), w.n, ",".join(str(c) for c in w.normal), w.offset])
        docs.append({"D": D, "n": w.n, "normal": list(w.normal), "offset": w.offset})
    note = "walls are numerical candidates; absence certifies generality only numerically"
    return _emit(job, {"walls": docs, "note": note}, rows)


def _run_chamberpath(job):
    m, found = _job_walls(job)
    alpha = parse_class(_need(job, "alpha"), m.ns)
    alpha2 = parse_class(_need(job, "alpha2"), m.ns)
    rows, docs = [], []
    for c in walls.chamber_path(alpha, alpha2, found):
        t, D = fmt_rational(c.t), [fmt_rational(x) for x in c.wall.D.coords]
        rows.append([t, c.index, ",".join(D), c.wall.n])
        docs.append({"t": t, "wall_index": c.index, "D": D, "n": c.wall.n})
    return _emit(job, {"crossings": docs}, rows)


def _run_wallsolve(job):
    m = _surface(job)
    v = parse_vector(_need(job, "v"), m)
    v_sub = parse_vector(_need(job, "v_sub"), m)
    H = parse_class(_need(job, "H"), m.ns)
    direction = parse_class(_need(job, "dir"), m.ns)
    res = walls.wall_solve_tf(v, v_sub, H, direction, m)
    doc = {"roots": [fmt_rational(t) for t in res.roots],
           "no_wall": res.identical,
           "irrational": None}
    rows = [["no-wall" if res.identical else " ".join(fmt_rational(t) for t in res.roots) or "-"]]
    return _emit(job, doc, rows)


def _run_epoly(job):
    base = parse_laurent(_need(job, "base"))
    strata = []
    for stratum in _array(_need(job, "strata"), "strata"):
        matrix = [_rationals(row, "pairings")
                  for row in _array(_field(stratum, "pairings"), "pairings")]
        factors = [parse_laurent(f) for f in _array(_field(stratum, "factors"), "factors")]
        strata.append((matrix, factors))
    result = series.wallcross_epoly(base, strata)
    rows = [[i, j, fmt_rational(c)] for (i, j), c in result.sorted_terms()]
    return _emit(job, laurent_to_json(result), rows)


def _run_partition(job):
    r = (job.extra or {}).get("r")
    if r is None:
        r = job.inputs.get("r", 1) if isinstance(job.inputs, dict) else 1
    r = parse_int(r, "r")
    m = _surface(job) if job.surface else None
    from .lattice import enriques_lattice
    lat = m.ns if m is not None else enriques_lattice()
    box = parse_box(job.box, lat.rank) if job.box is not None else \
        tuple((0, 0) for _ in range(lat.rank))
    if any(x.denominator != 1 for bounds in box for x in bounds):
        raise ParseError("partition box bounds must be integers")
    terms = partition_mod.hecke_zr(r, lat, parse_rational(job.order), box)
    rows, docs = [], []
    for t in terms:
        rows.append([fmt_rational(t.hol_scalar), ",".join(str(x) for x in t.xi),
                     fmt_rational(t.pos_coef), fmt_rational(t.coeff)])
        docs.append({"q_exponent": fmt_rational(t.hol_scalar),
                     "xi": list(t.xi),
                     "split_tag": fmt_rational(t.pos_coef),
                     "coeff": fmt_rational(t.coeff)})
    return _emit(job, {"order": job.order, "r": r, "terms": docs}, rows)


def _run_reduce(job):
    kind = (job.extra or {}).get("kind") or _need(job, "kind")
    if kind == "rank-one":
        m = _surface(job)
        c1 = parse_class(_need(job, "c1"), m.ns)
        trace = reductions.reduce_to_rank_one(parse_int(_need(job, "l"), "l"),
                                              parse_int(_need(job, "r"), "r"),
                                              c1, parse_int(_need(job, "a"), "a"), m)
        extra = {}
    elif kind == "enriques":
        m = _surface(job)
        v = parse_vector(_need(job, "v"), m)
        red = reductions.enriques_reduce(v, m)
        trace = red.trace
        extra = {"n": red.n, "hodge": laurent_to_json(red.hodge)}
    elif kind == "elliptic-jacobian":
        trace = reductions.elliptic_gcd_reduce(parse_int(_need(job, "r"), "r"),
                                               parse_int(_need(job, "d"), "d"))
        extra = {}
    else:
        raise ParseError("unknown reduce kind: %r" % kind)
    steps = []
    rows = []
    for step, inv in zip(trace.steps, trace.invariant_log[1:]):
        state = _state_doc(step.after)
        steps.append({"move": step.move, "params": [list(p) for p in step.params],
                      "state": state,
                      "square": fmt_rational(inv[0]) if inv[0] is not None else None,
                      "multiplicity": inv[1]})
        rows.append([step.move, json.dumps(state, sort_keys=True),
                     "-" if inv[0] is None else fmt_rational(inv[0]), inv[1]])
    doc = {"steps": steps, "final": _state_doc(trace.final)}
    doc.update(extra)
    return _emit(job, doc, rows)


def _state_doc(state):
    if isinstance(state, tuple):
        return list(state)
    return vector_to_json(state)


def _run_dims(job):
    m = _surface(job)
    v = parse_vector(_need(job, "v"), m)
    flavor = (job.inputs or {}).get("flavor", "stack")
    value = reductions.moduli_dim(v, m, flavor)
    return _emit(job, {"dim": fmt_rational(value), "flavor": flavor},
                 [[flavor, fmt_rational(value)]])


def _run_gitweight(job):
    dims_doc = _need(job, "dims")
    data_doc = _need(job, "data")

    def q(doc, key):
        return parse_rational(_field(doc, key))

    def qs(doc, key):
        return _rationals(_field(doc, key), key)

    dims = reductions.GitDims(
        q(dims_doc, "dimV"), q(dims_doc, "dimVp"),
        q(dims_doc, "dim_alpha_VW"), q(dims_doc, "dim_alpha_VpW"),
        qs(dims_doc, "dim_alpha_i_V"), qs(dims_doc, "dim_V_i"))
    data = reductions.GitData(
        q(data_doc, "h_m"), qs(data_doc, "h_i_m"), qs(data_doc, "eps_i"),
        q(data_doc, "a1"), q(data_doc, "n"))
    value = reductions.git_weight(dims, data)
    return _emit(job, {"weight": fmt_rational(value)}, [[fmt_rational(value)]])


# --- self tests ------------------------------------------------------------


def _selftest(job):
    """Run the subcommand's bundled fixture plus quick property checks."""
    name = job.subcommand
    fixture = _load_fixture(name)
    lines = []
    if fixture is not None:
        sub_job = _job_from_doc(fixture["job"])
        import io
        buf = io.StringIO()
        code = run(sub_job, out=buf)
        got = buf.getvalue().strip()
        want = fixture["expect"].strip()
        ok = (code == fixture.get("exit", 0)) and got == want
        lines.append("fixture %s: %s" % (fixture["name"], "ok" if ok else "FAIL"))
        if not ok:
            lines.append("  expected: %s" % want)
            lines.append("  got     : %s (exit %d)" % (got, code))
            raise PreconditionError("selftest-failed", name)
    lines.extend(_property_checks(name, job.samples))
    return lines


def _property_checks(name, samples):
    import random   # only --selftest needs it, so other runs never load it
    rng = random.Random(11 + len(name))
    from .lattice import k3_model, random_mukai_vector
    m = k3_model()
    ok = True
    if name in ("pair", "transform"):
        for _ in range(samples):
            v = random_mukai_vector(m, rng)
            w = random_mukai_vector(m, rng)
            ok = ok and mukai_pair(v, w) == mukai_pair(w, v)
    if name == "transform":
        D = m.cls((rng.randint(-3, 3), rng.randint(-3, 3)))
        ok = ok and transforms.check_isometry(transforms.twist_map(m, D), samples, rng)
    if name in ("walls", "chamberpath", "wallsolve"):
        from .lattice import elliptic_model, GammaTriple
        el = elliptic_model()
        g = GammaTriple(0, el.cls((1, 2)), 1)
        found = walls.walls_dim1(g, el.cls((1, 3)), ((-2, 2), (-2, 2)), el)
        ok = ok and any(w.normal == (3, -1) and w.offset == -1 for w in found)
    if name in ("epoly", "partition"):
        ok = ok and series.e_gl(1) == series.LaurentPoly({(1, 1): 1, (0, 0): -1})
        ok = ok and len(series.hecke_cosets(3)) == 4
    if name in ("reduce", "dims"):
        tr = reductions.elliptic_gcd_reduce(5, 2)
        ok = ok and reductions.trace_rank_sequence(tr, 5) == [5, 2, 1]
    if name == "gitweight":
        ok = ok and reductions.parabolic_euler(3, [2], [Fraction(1, 2)], 5) == 4
    if not ok:
        raise PreconditionError("selftest-failed", name)
    return ["properties %s: ok (%d samples)" % (name, samples)]


def _load_fixture(name):
    # only --selftest reads fixtures; on Python 3.12+ importlib.resources loads inspect
    from importlib import resources
    try:
        text = resources.files("mukailab").joinpath("fixtures/%s.json" % name).read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        return None
    return json.loads(text)


def _job_from_doc(doc):
    return JobSpec(subcommand=doc["subcommand"],
                   surface=doc.get("surface"),
                   inputs=doc.get("inputs"),
                   output_format=doc.get("format", "json"),
                   order=doc.get("order", 8),
                   box=doc.get("box"),
                   extra=doc.get("extra"))


# --- argparse front end ----------------------------------------------------


def _read_doc(value):
    if value is None:
        return None
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8 text: %s" % (value, exc)) from exc
    return loads(text)


def build_parser():
    import argparse   # here, so that library use of run() never loads it
    parser = argparse.ArgumentParser(prog="mukailab",
                                     description="Exact Mukai-lattice calculations")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--surface", help="surface model: file path or inline JSON")
        p.add_argument("--in", dest="inputs", help="inputs: file path or inline JSON")
        p.add_argument("--out", help="write output to this file")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--order", type=int, default=8, help="series truncation order")
        p.add_argument("--box", help='coordinate box "lo,hi;lo,hi;..."')
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--selftest", action="store_true")
        if name == "partition":
            p.add_argument("--r", type=int, default=None,
                           help="Hecke order (odd); default: r from --in, else 1")
        if name == "reduce":
            p.add_argument("--kind", choices=("rank-one", "enriques", "elliptic-jacobian"))
    return parser


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        surface = _read_doc(args.surface)
        inputs = _read_doc(args.inputs)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    extra = {}
    if getattr(args, "r", None) is not None:
        extra["r"] = args.r
    if getattr(args, "kind", None) is not None:
        extra["kind"] = args.kind
    job = JobSpec(subcommand=args.subcommand, surface=surface, inputs=inputs,
                  output_format=args.format, order=args.order, box=args.box,
                  samples=args.samples, selftest=args.selftest, extra=extra)
    if args.out:
        with open(args.out, "w") as fh:
            return run(job, out=fh)
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
