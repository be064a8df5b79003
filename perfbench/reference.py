"""Independent exact arithmetic that the benchmark checks discjet's outputs against.

Nothing here imports discjet.  Values cross over through the ``discjet/1``
JSON encoding, whose schema is fixed, so a change to discjet's in-memory
representation does not change what these checks compare.

* A ring element of ``Q[e_1..e_m]/(e_i^{N_i})`` is a dict
  ``{exponent tuple: Fraction}`` with no zero coefficients; ``orders`` is
  the tuple of ``N_i`` (empty for plain Q).
* A series is a dict ``{multi-index: ring element}`` with no zero entries.
* A jet or polynomial map is a list of series, one per component.
"""

from __future__ import annotations

from fractions import Fraction


def ring_one(orders):
    return {(0,) * len(orders): Fraction(1)}


def ring_add(x, y):
    out = dict(x)
    for e, q in y.items():
        s = out.get(e, 0) + q
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def ring_mul(x, y, orders):
    out = {}
    for e1, q1 in x.items():
        for e2, q2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if any(a >= N for a, N in zip(e, orders)):
                continue
            out[e] = out.get(e, 0) + q1 * q2
    return {e: q for e, q in out.items() if q}


def series_add(f, g):
    out = dict(f)
    for j, c in g.items():
        s = ring_add(out[j], c) if j in out else c
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return out


def series_mul(f, g, orders, order):
    """Product truncated at total degree ``order``."""
    out = {}
    for j1, a in f.items():
        d1 = sum(j1)
        for j2, b in g.items():
            if d1 + sum(j2) > order:
                continue
            j = tuple(x + y for x, y in zip(j1, j2))
            p = ring_mul(a, b, orders)
            if p:
                out[j] = ring_add(out[j], p) if j in out else p
    return {j: c for j, c in out.items() if c}


def truncate(f, order):
    return {j: c for j, c in f.items() if sum(j) <= order}


def compose(outer, inner, orders, order):
    """Components of ``outer o inner``: each ``outer_k(inner_1, .., inner_n)``.

    Computed exactly and truncated at total degree ``order``.  Every term of
    ``outer`` is expanded, so nilpotent constant terms of ``inner`` carry
    high-degree terms of ``outer`` down correctly.
    """
    n = len(inner)
    one = {(0,) * n: ring_one(orders)}
    powers = [[one] for _ in range(n)]

    def power(k, e):
        while len(powers[k]) <= e:
            powers[k].append(series_mul(powers[k][-1], inner[k], orders, order))
        return powers[k][e]

    out = []
    for f in outer:
        acc = {}
        for J, coeff in f.items():
            term = {(0,) * n: coeff}
            for k, e in enumerate(J):
                if e:
                    term = series_mul(term, power(k, e), orders, order)
            acc = series_add(acc, term)
        out.append(truncate(acc, order))
    return out


def identity(n, orders):
    return [{tuple(int(i == k) for i in range(n)): ring_one(orders)} for k in range(n)]


# -- the discjet/1 encoding ----------------------------------------------------------


def element_from_json(items):
    out = {}
    for item in items:
        exp = tuple(item["eps"])
        out = ring_add(out, {exp: Fraction(item["coef"])})
    return out


def element_to_json(x):
    return [{"eps": list(e), "coef": str(q)} for e, q in x.items()]


def series_from_json(obj):
    """A series from its ``{"dim", "order", "terms"}`` encoding."""
    out = {}
    for item in obj["terms"]:
        out = series_add(out, {tuple(item["J"]): element_from_json(item["coef"])})
    return out


def terms_to_json(f):
    return [{"J": list(j), "coef": element_to_json(c)} for j, c in f.items()]


def poly_eval(items, assign):
    """Value of an encoded polynomial; ``assign(alphabet, k, J)`` gives a Fraction."""
    acc = Fraction(0)
    for item in items:
        term = Fraction(item["coef"])
        for v in item["vars"]:
            term *= assign(v["alphabet"], v["k"], tuple(v["J"])) ** v["e"]
        acc += term
    return acc
