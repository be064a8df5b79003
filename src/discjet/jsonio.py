"""Exact JSON encoding for every value the command-line tool reads or writes.

Documents carry ``{"schema": "discjet/1", "kind": ...}`` at the top level;
nested values reuse the same encoders without the envelope.  Encoding is
canonical -- terms in graded-lex order, coefficients as exact decimal-free
rational strings -- so equal values render to identical bytes and every file
the tool writes re-serializes byte-identically after a parse round trip.

Shape problems raise :class:`SchemaError`; mathematically invalid data (a
jet with a non-unit linear part, say) surfaces as :class:`PreconditionError`
from the domain constructors.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .base_ring import BaseRingDescriptor, BaseRingElement, grlex_key
from .errors import SchemaError
from .etale import PolyMap, RoofChart
from .hopf import CoordRingElement, Polynomial, antipode, coproduct, pack
from .jet_group import JetAutomorphism
from .lie import Derivation
from .rep import Representation
from .series import TruncatedSeries

SCHEMA = "discjet/1"

#: the one composition order a serialized roof jet is stated in
ROOF_CONVENTION = "psi_after_phi_inverse"

_RATIONAL = re.compile(r"-?(0|[1-9]\d*)(/[1-9]\d*)?")


# -- plumbing -------------------------------------------------------------------------


def render(obj) -> str:
    """Canonical text for a JSON document (two-space indent, trailing newline)."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def write_json(path: str, obj) -> None:
    """Write a document atomically: temp file in place, then rename over."""
    data = render(obj)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def document(kind: str, payload: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, **payload}


def document_kind(obj, expected=None) -> str:
    """Validate the envelope and return the document kind."""
    if not isinstance(obj, dict):
        raise SchemaError("a document must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise SchemaError(f'documents must carry "schema": "{SCHEMA}"')
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise SchemaError('documents must carry a string "kind"')
    if expected is not None and kind not in expected:
        wanted = ", ".join(sorted(expected))
        raise SchemaError(f"expected a document of kind {wanted}, got {kind!r}")
    return kind


def _as_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return obj


def _as_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be a JSON array")
    return obj


def _as_int(obj, what: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(f"{what} must be an integer")
    return obj


def _int_field(obj: dict, key: str, what: str) -> int:
    if key not in obj:
        raise SchemaError(f'{what} needs an integer "{key}"')
    return _as_int(obj[key], f'"{key}" of {what}')


def _index(obj, length: int, what: str) -> tuple[int, ...]:
    items = _as_list(obj, what)
    if len(items) != length:
        raise SchemaError(f"{what} must have length {length}")
    out = []
    for e in items:
        e = _as_int(e, f"entry of {what}")
        if e < 0:
            raise SchemaError(f"{what} entries must be >= 0")
        out.append(e)
    return tuple(out)


# -- rationals ------------------------------------------------------------------------


def decode_fraction(obj, what: str = "coefficient") -> Fraction:
    if not isinstance(obj, str) or not _RATIONAL.fullmatch(obj):
        raise SchemaError(f'{what} must be an exact rational string "p/q", got {obj!r}')
    return Fraction(obj)


# -- base rings and their elements ----------------------------------------------------


def encode_base(base: BaseRingDescriptor) -> dict:
    if base.is_symbolic:
        return {"symbolic": list(base.symbolic_names)}
    return {"nilpotents": list(base.orders)}


def decode_base(obj) -> BaseRingDescriptor:
    obj = _as_dict(obj, "base descriptor")
    if "symbolic" in obj and "nilpotents" in obj:
        raise SchemaError("a base descriptor is nilpotent or symbolic, not both")
    if "symbolic" in obj:
        names = _as_list(obj["symbolic"], '"symbolic"')
        if not all(isinstance(s, str) for s in names):
            raise SchemaError("symbolic generator names must be strings")
        return BaseRingDescriptor(symbolic_names=tuple(names))
    if "nilpotents" not in obj:
        raise SchemaError('base descriptor needs "nilpotents" or "symbolic"')
    orders = _as_list(obj["nilpotents"], '"nilpotents"')
    return BaseRingDescriptor(
        orders=tuple(_as_int(N, "nilpotency order") for N in orders)
    )


def encode_element(x: BaseRingElement) -> list:
    return [{"eps": list(exp), "coef": str(q)} for exp, q in x.sorted_terms()]


def decode_element(obj, base: BaseRingDescriptor) -> BaseRingElement:
    items = _as_list(obj, "ring element")
    m = base.num_generators
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in items:
        item = _as_dict(item, "ring element term")
        exp = _index(item.get("eps"), m, '"eps"')
        q = decode_fraction(item.get("coef"), '"coef"')
        terms[exp] = terms.get(exp, Fraction(0)) + q
    return base.element(terms)


# -- truncated series -----------------------------------------------------------------


def encode_series(f: TruncatedSeries) -> dict:
    return {
        "dim": f.dim,
        "order": f.order,
        "terms": [
            {"J": list(j), "coef": encode_element(q)} for j, q in f.sorted_terms()
        ],
    }


def decode_series(obj, base: BaseRingDescriptor) -> TruncatedSeries:
    obj = _as_dict(obj, "series")
    dim = _int_field(obj, "dim", "a series")
    order = _int_field(obj, "order", "a series")
    terms = {}
    for item in _as_list(obj.get("terms"), '"terms"'):
        item = _as_dict(item, "series term")
        j = _index(item.get("J"), dim, '"J"')
        coeff = decode_element(item.get("coef"), base)
        terms[j] = terms[j] + coeff if j in terms else coeff
    return TruncatedSeries(dim, order, terms)


# -- jets and derivations -------------------------------------------------------------


def encode_jet(g: JetAutomorphism) -> dict:
    """A jet is always serialized at its group order c (canonical form)."""
    return {
        "n": g.n,
        "c": g.c,
        "base": encode_base(g.base),
        "components": [encode_series(s) for s in g.truncated_components(g.c)],
    }


def _decode_components(obj, base, n: int, what: str) -> list[TruncatedSeries]:
    comps = _as_list(obj.get("components"), f'"components" of {what}')
    if len(comps) != n:
        raise SchemaError(f"{what} needs exactly {n} components")
    return [decode_series(o, base) for o in comps]


def decode_jet(obj) -> JetAutomorphism:
    obj = _as_dict(obj, "jet")
    n = _int_field(obj, "n", "a jet")
    c = _int_field(obj, "c", "a jet")
    base = decode_base(obj.get("base"))
    comps = _decode_components(obj, base, n, "a jet")
    return JetAutomorphism(n, c, base, comps)


def encode_derivation(D: Derivation) -> dict:
    return {
        "n": D.n,
        "c": D.c,
        "role": "derivation",
        "base": encode_base(D.base),
        "components": [encode_series(f) for f in D.coefficients],
    }


def decode_derivation(obj) -> Derivation:
    obj = _as_dict(obj, "derivation")
    if obj.get("role") != "derivation":
        raise SchemaError('derivations carry "role": "derivation"')
    n = _int_field(obj, "n", "a derivation")
    c = _int_field(obj, "c", "a derivation")
    base = decode_base(obj.get("base"))
    comps = _decode_components(obj, base, n, "a derivation")
    return Derivation(n, c, base, comps)


# -- polynomial maps and roofs --------------------------------------------------------


def encode_polymap(f: PolyMap) -> dict:
    return {
        "n": f.n,
        "base": encode_base(f.base),
        "components": [
            [
                {"J": list(j), "coef": encode_element(q)}
                for j, q in sorted(comp.items(), key=lambda kv: grlex_key(kv[0]))
            ]
            for comp in f.components
        ],
    }


def decode_polymap(obj) -> PolyMap:
    obj = _as_dict(obj, "polynomial map")
    n = _int_field(obj, "n", "a polynomial map")
    base = decode_base(obj.get("base"))
    rows = _as_list(obj.get("components"), '"components" of a polynomial map')
    if len(rows) != n:
        raise SchemaError(f"a polynomial map needs exactly {n} components")
    comps = []
    for row in rows:
        terms: dict[tuple[int, ...], BaseRingElement] = {}
        for item in _as_list(row, "polynomial map component"):
            item = _as_dict(item, "polynomial map term")
            j = _index(item.get("J"), n, '"J"')
            coeff = decode_element(item.get("coef"), base)
            terms[j] = terms[j] + coeff if j in terms else coeff
        comps.append(terms)
    return PolyMap(n, base, comps)


def encode_roof(r: RoofChart) -> dict:
    return {
        "phi": encode_polymap(r.phi),
        "psi": encode_polymap(r.psi),
        "w": [encode_element(x) for x in r.w],
        "convention": ROOF_CONVENTION,
    }


def decode_roof(obj) -> RoofChart:
    obj = _as_dict(obj, "roof")
    if obj.get("convention") != ROOF_CONVENTION:
        raise SchemaError(f'roofs carry "convention": "{ROOF_CONVENTION}"')
    phi = decode_polymap(obj.get("phi"))
    psi = decode_polymap(obj.get("psi"))
    w = _as_list(obj.get("w"), '"w"')
    point = tuple(decode_element(x, phi.base) for x in w)
    return RoofChart(phi, psi, point)


# -- coordinate-ring values -----------------------------------------------------------


def encode_polynomial(p: Polynomial) -> list:
    out = []
    for mono, q in p.sorted_terms():
        out.append(
            {
                "vars": [
                    {"alphabet": a, "k": k, "J": list(J), "e": e}
                    for (a, k, J), e in mono
                ],
                "coef": str(q),
            }
        )
    return out


def decode_polynomial(obj, n: int) -> Polynomial:
    items = _as_list(obj, "polynomial")
    terms = {}
    for item in items:
        item = _as_dict(item, "polynomial term")
        exps: dict[tuple, int] = {}
        for varobj in _as_list(item.get("vars"), '"vars"'):
            varobj = _as_dict(varobj, "variable")
            alphabet = varobj.get("alphabet")
            if not isinstance(alphabet, str):
                raise SchemaError("variables carry a string alphabet")
            k = _int_field(varobj, "k", "a variable")
            J = _index(varobj.get("J"), n, '"J"')
            if not 0 <= k < n:
                raise SchemaError(f"variable component {k} out of range for n={n}")
            if sum(J) < 1:
                raise SchemaError("variables need |J| >= 1")
            e = _int_field(varobj, "e", "a variable")
            if e < 1:
                raise SchemaError("variable exponents must be >= 1")
            key = (alphabet, k, J)
            exps[key] = exps.get(key, 0) + e
        mono = pack(exps.items())
        q = decode_fraction(item.get("coef"), '"coef"')
        terms[mono] = terms.get(mono, 0) + q
    return Polynomial(terms)


def encode_coord(e: CoordRingElement) -> dict:
    return {"num": encode_polynomial(e.num), "det_power": e.det_power}


def decode_coord(obj, n: int) -> CoordRingElement:
    obj = _as_dict(obj, "coordinate-ring element")
    num = decode_polynomial(obj.get("num"), n)
    power = _int_field(obj, "det_power", "a coordinate-ring element")
    return CoordRingElement(n, num, power)


# -- representations ------------------------------------------------------------------


def encode_rep(r: Representation) -> dict:
    return {
        "m": r.m,
        "n": r.n,
        "c": r.c,
        "weights": list(r.weights),
        "entries": [[encode_coord(e) for e in row] for row in r.entries],
    }


def decode_rep(obj) -> Representation:
    obj = _as_dict(obj, "representation")
    m = _int_field(obj, "m", "a representation")
    n = _int_field(obj, "n", "a representation")
    c = _int_field(obj, "c", "a representation")
    weights = tuple(
        _as_int(w, "weight") for w in _as_list(obj.get("weights"), '"weights"')
    )
    rows = _as_list(obj.get("entries"), '"entries"')
    entries = tuple(
        tuple(decode_coord(e, n) for e in _as_list(row, "entry row")) for row in rows
    )
    return Representation(m, n, c, entries, weights)


# -- tables (structure maps, keyed by generator) --------------------------------------


def encode_table(table, encode_value) -> list:
    """A {(k, J): value} mapping as a sorted list of {"k", "J", "value"} rows."""
    return [
        {"k": k, "J": list(J), "value": encode_value(table[(k, J)])}
        for k, J in sorted(table, key=lambda kJ: (kJ[0], grlex_key(kJ[1])))
    ]


# -- matrices over a base ring --------------------------------------------------------


def encode_matrix(rows) -> list:
    return [[encode_element(x) for x in row] for row in rows]


# -- whole documents for the structure-map tables --------------------------------------


def coproduct_document(n: int, c: int) -> dict:
    return document(
        "coproduct_table",
        {"n": n, "c": c, "entries": encode_table(coproduct(n, c), encode_polynomial)},
    )


def antipode_document(n: int, c: int) -> dict:
    return document(
        "antipode_table",
        {"n": n, "c": c, "entries": encode_table(antipode(n, c), encode_coord)},
    )
