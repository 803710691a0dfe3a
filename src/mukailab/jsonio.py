"""Shared JSON schema for surfaces, vectors, transforms and series.

Rationals are encoded as bare integers or strings "p/q" with q > 0; a
Gram matrix is an array of arrays; a Mukai vector is {"r": ..., "c":
[...], "t": ...}.  The same schema is used by every module and by the
command-line driver.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .lattice import (_CHI_O, GammaTriple, MukaiVector, NSLattice,
                      SurfaceModel, enriques_model, rat)
from .series import LaurentPoly
from .transforms import (EllipticRelativeParams, IsotropicContext, compose,
                         cor_ext_map, elliptic_jacobian_map,
                         elliptic_relative_map, enriques_reflection_map,
                         identity_map, isotropic_fm_map, twist_map)


# Largest accepted numerator or denominator, in decimal digits.  Bigger
# inputs are refused before the number is built: "1e9999" alone would be a
# 33,216-bit integer that slows every later operation.
MAX_DIGITS = 1000
_INT_LIMIT = 10 ** MAX_DIGITS


def _oversized(x):
    if isinstance(x, int):
        return not -_INT_LIMIT < x < _INT_LIMIT
    body, _, exp = x.strip().lower().partition("e")
    exp = exp.lstrip("+-").replace("_", "").lstrip("0")
    if not exp.isdecimal():
        exp = ""       # no exponent, or a malformed one Fraction rejects
    elif len(exp) > 6:
        return True
    digits = max(sum(ch.isdigit() for ch in part) for part in body.split("/"))
    return digits + int(exp or 0) > MAX_DIGITS


def parse_rational(x):
    if isinstance(x, (int, str)) and _oversized(x):
        raise ParseError("rational-too-large: %.40r" % (x,))
    try:
        if isinstance(x, (int, str)):
            q = rat(x)
        elif isinstance(x, Fraction):
            q = x
        else:
            raise ValueError(repr(x))
    except (ValueError, ZeroDivisionError, PreconditionError) as exc:
        raise ParseError("bad rational: %r" % (x,)) from exc
    if q.denominator <= 0:
        raise ParseError("bad rational: %r" % (x,))
    return q


def parse_int(x, key):
    """A strict integer: an int, an integral float or an integer string.
    Bools, non-integral numbers and anything else are parse errors."""
    try:
        if isinstance(x, bool) or not isinstance(x, (int, float, str)):
            raise TypeError(type(x).__name__)
        if isinstance(x, float) and not x.is_integer():
            raise ValueError(x)
        return int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError("bad integer for %r: %r" % (key, x)) from exc


def fmt_rational(q):
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_surface(doc):
    """SurfaceModel from a JSON document.

    Keys: kind, gram, basis (optional names), chi_O, polarization,
    half_integral (optional), effective (optional list of generator
    coordinate arrays).  kind "enriques" with no gram uses the built-in
    rank-10 lattice.  An "epsilon" is implied by an abelian (0) or K3 (1)
    kind and refused as epsilon-kind when it contradicts it; "h1_O" is
    accepted and ignored.
    """
    if not isinstance(doc, dict):
        raise ParseError("surface document must be an object")
    try:
        kind = doc["kind"]
        if kind == "enriques" and "gram" not in doc:
            return enriques_model(doc.get("polarization"))
        gram = tuple(tuple(parse_int(x, "gram") for x in row) for row in doc["gram"])
        names = tuple(doc.get("basis", ["b%d" % i for i in range(len(gram))]))
        lat = NSLattice(gram, names)
        pol = lat.cls([parse_rational(x) for x in doc["polarization"]])
        gens = doc.get("effective")
        if gens is not None:
            gens = tuple(lat.cls([parse_rational(x) for x in g]) for g in gens)
        chi_O = doc.get("chi_O", _CHI_O.get(kind, 0))
        eps = {"abelian": 0, "k3": 1}.get(kind)
        # refused after a wrong chi_O and before a bad polarization, the
        # order in which the model's own checks run
        if eps is not None and doc.get("epsilon", eps) != eps and chi_O == _CHI_O[kind]:
            raise PreconditionError("epsilon-kind")
        return SurfaceModel(kind, lat, chi_O, pol,
                            half_integral=doc.get("half_integral", kind == "enriques"),
                            effective_generators=gens)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad surface document: %s" % exc) from exc


def parse_class(doc, lat):
    if not isinstance(doc, (list, tuple)):
        raise ParseError("NS class must be an array of rationals")
    return lat.cls([parse_rational(x) for x in doc])


def parse_vector(doc, m):
    try:
        return MukaiVector(parse_rational(doc["r"]),
                           parse_class(doc["c"], m.ns),
                           parse_rational(doc["t"]))
    except (KeyError, TypeError) as exc:
        raise ParseError("bad Mukai vector: %s" % exc) from exc


def vector_to_json(v):
    return {"r": fmt_rational(v.r),
            "c": [fmt_rational(x) for x in v.c.coords],
            "t": fmt_rational(v.t)}


def parse_gamma(doc, m):
    try:
        return GammaTriple(parse_rational(doc["rank"]),
                           parse_class(doc["c"], m.ns),
                           parse_rational(doc["chi"]))
    except (KeyError, TypeError) as exc:
        raise ParseError("bad gamma triple: %s" % exc) from exc


def parse_laurent(doc):
    """LaurentPoly from {"terms": [[i, j, coeff], ...]}."""
    try:
        return LaurentPoly({(parse_int(i, "terms"), parse_int(j, "terms")): parse_rational(c)
                            for i, j, c in doc["terms"]})
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad Laurent polynomial: %s" % exc) from exc


def laurent_to_json(p):
    return {"terms": [[i, j, fmt_rational(c)] for (i, j), c in p.sorted_terms()]}


def parse_cohmap(doc, m):
    """CohMap from {"kind": ..., "params": {...}} (or a list: composite)."""
    if isinstance(doc, list):
        return compose([parse_cohmap(d, m) for d in doc])
    if not isinstance(doc, dict):
        raise ParseError("transform must be an object or a list")
    kind = doc.get("kind")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("transform params must be an object")
    sign = lambda: parse_int(params.get("sign", 1), "sign")
    try:
        if kind == "identity":
            return identity_map(m)
        if kind == "twist":
            return twist_map(m, parse_class(params["D"], m.ns), sign=sign())
        if kind == "enriques_reflection":
            v0 = parse_vector(params["v0"], m) if "v0" in params else None
            return enriques_reflection_map(m, v0, sign=sign())
        if kind == "cor_ext":
            return cor_ext_map(m, parse_int(params["k"], "k"))
        if kind == "isotropic_fm":
            ctx = IsotropicContext(
                m, m,
                parse_vector(params["v1"], m),
                parse_vector(params["w1"], m),
                parse_class(params["H"], m.ns),
                parse_class(params["H_hat"], m.ns))
            return isotropic_fm_map(ctx, sign=sign())
        if kind == "elliptic_jacobian":
            return elliptic_jacobian_map(m)
        if kind == "elliptic_relative":
            p = EllipticRelativeParams(parse_int(params["r"], "r"),
                                       parse_int(params.get("chi_O_sigma", 1), "chi_O_sigma"),
                                       parse_int(params.get("chi_F0_f", 0), "chi_F0_f"))
            return elliptic_relative_map(m, p, parse_int(params["d"], "d"),
                                         parse_int(params["k"], "k"),
                                         parse_int(params["chi_E0"], "chi_E0"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad transform document: %s" % exc) from exc
    raise ParseError("unknown transform kind: %r" % kind)


def parse_box(doc, rank):
    """Box from "lo,hi;lo,hi;..." or [[lo, hi], ...]."""
    if isinstance(doc, str):
        parts = [p for p in doc.split(";") if p]
        doc = [p.split(",") for p in parts]
    try:
        box = tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in doc)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad box: %s" % exc) from exc
    if len(box) != rank:
        raise ParseError("box must bound all %d coordinates" % rank)
    return box


def loads(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ParseError("invalid JSON: %s" % exc) from exc
