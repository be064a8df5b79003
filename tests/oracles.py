"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own series/jet machinery:
dense dictionary polynomials over Fraction, sympy for one-variable rational
composition and reversion.  Slow and simple on purpose.
"""

from fractions import Fraction
from itertools import product

import sympy


def brute_nilpotency_index(orders):
    """Least k with Nil^k = 0, found by enumerating surviving monomials.

    A product of k nilpotent monomials has total degree >= k, and every
    surviving exponent vector of total degree D is a product of D generator
    powers, so the index is 1 + (max total degree of a surviving monomial).
    """
    if not orders:
        return 1
    best = 0
    for exp in product(*[range(N) for N in orders]):
        best = max(best, sum(exp))
    return 1 + best


# -- one-variable series over Q, via sympy ------------------------------------

_t = sympy.Symbol("t")


def _poly_from_coeffs(coeffs):
    """coeffs: {degree: Fraction} -> sympy expression."""
    return sympy.Add(*[sympy.Rational(q.numerator, q.denominator) * _t**d for d, q in coeffs.items()])


def _coeffs_from_expr(expr, order):
    p = sympy.Poly(sympy.expand(expr), _t)
    out = {}
    for d in range(order + 1):
        q = p.coeff_monomial(_t**d)
        if q:
            out[d] = Fraction(int(sympy.numer(q)), int(sympy.denom(q)))
    return out


def sympy_compose_1var(outer, inner, order):
    """Truncated composition outer(inner(t)) of {degree: Fraction} dicts."""
    expr = _poly_from_coeffs(outer).subs(_t, _poly_from_coeffs(inner))
    return _coeffs_from_expr(expr, order)


def sympy_reversion_1var(coeffs, order):
    """Compositional inverse of t + O(t^2) with rational coefficients.

    Solved degree by degree: v = t - sum_{d>=2} u_d v^d, iterated.
    """
    u = _poly_from_coeffs(coeffs)
    assert _coeffs_from_expr(u, 1).get(1) == Fraction(1), "reversion oracle wants unit leading coefficient 1"
    v = _t
    for _ in range(order):
        w = sympy.expand(u.subs(_t, v))
        # drop terms above the working order to keep the expressions small
        w = sum(c * _t**d[0] for d, c in sympy.Poly(w, _t).terms() if d[0] <= order)
        v = sympy.expand(v - (w - _t))
        v = sum(c * _t**d[0] for d, c in sympy.Poly(v, _t).terms() if d[0] <= order)
    check = _coeffs_from_expr(sympy.expand(u.subs(_t, v)), order)
    assert check == {1: Fraction(1)}, f"oracle reversion failed to verify: {check}"
    return _coeffs_from_expr(v, order)


# -- sparse polynomials with tuple monomials ------------------------------------
#
# The representation hopf.Polynomial used before monomials were packed into
# ints: {((var, exponent), ...): Fraction}, each monomial sorted by var_key,
# where var = (alphabet, k, J).  A product merges two monomials in a dict and
# sorts the result.


def _grlex_key(J):
    return (sum(J), tuple(-e for e in J))


def tuple_var_key(v):
    return (v[0], v[1], _grlex_key(v[2]))


def tuple_mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda ve: tuple_var_key(ve[0])))


def tuple_poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def tuple_poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out = tuple_poly_add(out, {tuple_mono_mul(m1, m2): c1 * c2})
    return out


def tuple_poly_substitute(p, mapping):
    """Replace each var by mapping(var) (a tuple polynomial), or keep it on None."""
    acc = {}
    for mono, c in p.items():
        term = {(): c}
        for v, e in mono:
            img = mapping(v)
            if img is None:
                img = {((v, 1),): Fraction(1)}
            for _ in range(e):
                term = tuple_poly_mul(term, img)
        acc = tuple_poly_add(acc, term)
    return acc


def tuple_poly_evaluate(p, assign):
    """The rational value at assign(var) -> Fraction."""
    total = Fraction(0)
    for mono, c in p.items():
        term = c
        for v, e in mono:
            term *= assign(v) ** e
        total += term
    return total


def tuple_poly_encode(p):
    """The discjet/1 term list: lowest total degree first, then by var_key."""

    def mono_key(mono):
        return (sum(e for _, e in mono), tuple((tuple_var_key(v), e) for v, e in mono))

    return [
        {
            "vars": [{"alphabet": a, "k": k, "J": list(J), "e": e} for (a, k, J), e in mono],
            "coef": str(c),
        }
        for mono, c in sorted(p.items(), key=lambda mc: mono_key(mc[0]))
    ]
