"""Sparse truncated multivariate series with exact coefficients.

A :class:`TruncatedSeries` is a polynomial representative of a series modulo
``(t_1, ..., t_n)^{order+1}``: a sparse map from multi-indices (exponent
tuples over the disc variables ``t_1..t_n``) to coefficients, with all terms
of total degree ``> order`` dropped.

Coefficients are duck-typed: any commutative-ring type with ``+``, ``-``,
``*``, ``==``, ``is_zero()`` and ``is_nilpotent()`` works.  The jet modules
use :class:`~discjet.base_ring.BaseRingElement`; the Hopf module reuses the
same series arithmetic with polynomial and det-localized coefficients.

Substitution is the one subtle operation.  Substituting ``g`` into a
*truncated* ``f`` only makes sense when each constant term of ``g`` is
nilpotent -- otherwise the dropped tail of ``f`` would contribute at low
orders.  The substitution is carried out exactly on the stored polynomial
representatives at a caller-chosen ``work_order`` and truncated at the end,
so that callers holding extra working precision lose nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Callable, Mapping, Sequence

from .base_ring import grlex_key
from .errors import PreconditionError

MultiIndex = tuple[int, ...]


def multi_index_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def multi_index_degree(j: MultiIndex) -> int:
    return sum(j)


def unit_index(dim: int, k: int) -> MultiIndex:
    """The multi-index of the bare variable t_{k+1}."""
    return tuple(1 if i == k else 0 for i in range(dim))


def indices_up_to(dim: int, order: int, min_degree: int = 0):
    """All multi-indices with min_degree <= |J| <= order, in graded-lex order."""
    out = []
    for d in range(min_degree, order + 1):
        batch = []

        def rec_exact(prefix, remaining, slots):
            if slots == 1:
                batch.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining, -1, -1):
                rec_exact(prefix + [e], remaining - e, slots - 1)

        if dim == 0:
            if d == 0:
                batch.append(())
        else:
            rec_exact([], d, dim)
        out.extend(sorted(batch, key=grlex_key))
    return out


class TruncatedSeries:
    """A series representative modulo total degree ``order + 1``.

    ``terms`` maps multi-indices of length ``dim`` to nonzero coefficients.
    Instances are immutable by convention.
    """

    __slots__ = ("dim", "order", "terms")

    def __init__(self, dim: int, order: int, terms: Mapping[MultiIndex, object]):
        if dim < 0 or order < 0:
            raise PreconditionError("series need dim >= 0 and order >= 0")
        self.dim = dim
        self.order = order
        reduced: dict[MultiIndex, object] = {}
        for j, coeff in terms.items():
            j = tuple(j)
            if len(j) != dim:
                raise PreconditionError(f"multi-index {j} does not have length {dim}")
            if any(e < 0 for e in j):
                raise PreconditionError(f"negative exponent in multi-index {j}")
            if sum(j) > order:
                continue
            if not coeff.is_zero():
                reduced[j] = coeff
        self.terms = reduced

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, order: int) -> "TruncatedSeries":
        return TruncatedSeries(dim, order, {})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, j: MultiIndex):
        """The stored coefficient at j, or None when absent."""
        return self.terms.get(tuple(j))

    def constant_term(self):
        return self.terms.get((0,) * self.dim)

    def m_order(self) -> int | None:
        """Least total degree of a nonzero term; None for the zero series."""
        if not self.terms:
            return None
        return min(sum(j) for j in self.terms)

    def homogeneous_part(self, degree: int) -> dict[MultiIndex, object]:
        return {j: c for j, c in self.terms.items() if sum(j) == degree}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- arithmetic ----------------------------------------------------------

    def _check_shape(self, other: "TruncatedSeries"):
        if self.dim != other.dim or self.order != other.order:
            raise PreconditionError(
                f"series shapes differ: dim {self.dim} order {self.order} "
                f"vs dim {other.dim} order {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        terms = dict(self.terms)
        for j, c in other.terms.items():
            if j in terms:
                s = terms[j] + c
                if s.is_zero():
                    del terms[j]
                else:
                    terms[j] = s
            else:
                terms[j] = c
        return TruncatedSeries(self.dim, self.order, terms)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.dim, self.order, {j: -c for j, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        out: dict[MultiIndex, object] = {}
        for j1, c1 in self.terms.items():
            d1 = sum(j1)
            for j2, c2 in other.terms.items():
                if d1 + sum(j2) > self.order:
                    continue
                j = multi_index_add(j1, j2)
                p = c1 * c2
                if j in out:
                    s = out[j] + p
                    if s.is_zero():
                        del out[j]
                    else:
                        out[j] = s
                elif not p.is_zero():
                    out[j] = p
        return TruncatedSeries(self.dim, self.order, out)

    def scale(self, coeff) -> "TruncatedSeries":
        """Multiply every coefficient by a scalar (ring element, int or Fraction)."""
        out = {}
        for j, c in self.terms.items():
            p = c * coeff
            if not p.is_zero():
                out[j] = p
        return TruncatedSeries(self.dim, self.order, out)

    def power(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise PreconditionError("series powers take a nonnegative exponent")
        if e == 0:
            raise PreconditionError("series power 0 needs a ring identity; expand by hand")
        result = self
        for _ in range(e - 1):
            result = result * self
        return result

    def partial(self, k: int) -> "TruncatedSeries":
        """Partial derivative with respect to t_{k+1}.

        The result is reported at the same order; its terms of degree
        ``order`` would need degree ``order + 1`` of the input and are
        therefore only as good as the stored representative.
        """
        if not 0 <= k < self.dim:
            raise PreconditionError(f"variable index {k} out of range for dim {self.dim}")
        out: dict[MultiIndex, object] = {}
        for j, c in self.terms.items():
            if j[k] == 0:
                continue
            jj = tuple(e - 1 if i == k else e for i, e in enumerate(j))
            p = c * j[k]
            if not p.is_zero():
                out[jj] = p
        return TruncatedSeries(self.dim, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.dim == other.dim and self.order == other.order and self.terms == other.terms

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def __repr__(self):
        if not self.terms:
            return f"<series 0 (dim {self.dim}, order {self.order})>"
        bits = []
        for j, c in self.sorted_terms()[:8]:
            mono = "*".join(
                (f"t{i+1}" if e == 1 else f"t{i+1}^{e}") for i, e in enumerate(j) if e
            )
            bits.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        tail = " + ..." if len(self.terms) > 8 else ""
        return f"<series {' + '.join(bits)}{tail} (order {self.order})>"


# -- module-level operations ---------------------------------------------------


def series_arith(f: TruncatedSeries, g: TruncatedSeries, op: str) -> TruncatedSeries:
    """Exact ``+``, ``-`` or ``*`` of two series of matching shape."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    raise PreconditionError(f"unknown series operation {op!r}")


def series_truncate(f: TruncatedSeries, new_order: int) -> TruncatedSeries:
    """Re-truncate at ``new_order``.

    Lowering the order drops terms; raising it zero-lifts the stored
    representative (the terms are unchanged, later arithmetic just keeps
    more of them).
    """
    if new_order < 0:
        raise PreconditionError("truncation order must be >= 0")
    return TruncatedSeries(f.dim, new_order, f.terms)


def series_substitute(
    f: TruncatedSeries,
    gs: Sequence[TruncatedSeries],
    work_order: int,
) -> TruncatedSeries:
    """Composite ``f(g_1, ..., g_dim)``.

    Each ``g_k`` must have a nilpotent (or absent) constant term, otherwise
    the truncated tail of ``f`` would matter and the substitution is not
    well-defined on representatives.  The result is computed exactly at
    ``work_order`` and truncated to ``min(f.order, min_k g_k.order)``.
    """
    for k, g in enumerate(gs):
        const = g.constant_term()
        if const is not None and not const.is_nilpotent():
            raise PreconditionError(
                f"substitution input {k} has a non-nilpotent constant term"
            )
    return _substitute_exact(f, gs, work_order)


def _substitute_exact(
    f: TruncatedSeries,
    gs: Sequence[TruncatedSeries],
    work_order: int,
) -> TruncatedSeries:
    """Substitution on stored representatives, no constant-term guard.

    Used directly for exact polynomial data (Taylor expansion of honest
    polynomials), where non-nilpotent constants are fine.
    """
    if len(gs) != f.dim:
        raise PreconditionError(f"need {f.dim} substitution inputs, got {len(gs)}")
    target = f.order
    out_dim = None
    for g in gs:
        target = min(target, g.order)
        if out_dim is None:
            out_dim = g.dim
        elif g.dim != out_dim:
            raise PreconditionError("substitution inputs have mixed dims")
    if out_dim is None:  # dim-0 series: f is a constant
        out_dim = 0
    if work_order < target:
        raise PreconditionError(
            f"work_order {work_order} below result order {target}"
        )

    lifted = [TruncatedSeries(g.dim, work_order, g.terms) for g in gs]
    # cache of powers g_k^e, filled lazily
    pow_cache: dict[tuple[int, int], TruncatedSeries] = {}

    def gpow(k: int, e: int) -> TruncatedSeries:
        got = pow_cache.get((k, e))
        if got is not None:
            return got
        if e == 1:
            r = lifted[k]
        else:
            half = gpow(k, e // 2)
            r = half * half
            if e % 2:
                r = r * lifted[k]
        pow_cache[(k, e)] = r
        return r

    acc = TruncatedSeries.zero(out_dim, work_order)
    const_acc = None
    for j, coeff in f.terms.items():
        factors = [(k, e) for k, e in enumerate(j) if e]
        if not factors:
            # the constant term of f passes through untouched
            const_acc = coeff if const_acc is None else const_acc + coeff
            continue
        prod = gpow(*factors[0])
        for k, e in factors[1:]:
            prod = prod * gpow(k, e)
        acc = acc + prod.scale(coeff)
    if const_acc is not None and not const_acc.is_zero():
        zero_j = (0,) * out_dim
        existing = acc.terms.get(zero_j)
        bumped = const_acc if existing is None else existing + const_acc
        terms = dict(acc.terms)
        if bumped.is_zero():
            terms.pop(zero_j, None)
        else:
            terms[zero_j] = bumped
        acc = TruncatedSeries(out_dim, work_order, terms)
    return series_truncate(acc, target)


# -- generic linear algebra over a commutative coefficient ring -----------------


def matrix_determinant(M: Sequence[Sequence[object]]):
    """Permutation-expansion determinant of a small square matrix.

    Entries need only ``+``, ``-`` and ``*``; returns None for the empty
    matrix (the caller supplies its ring's 1).
    """
    n = len(M)
    if n == 0:
        return None
    if n == 1:
        return M[0][0]
    acc = None
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = M[0][perm[0]]
        for i in range(1, n):
            prod = prod * M[i][perm[i]]
        if sign < 0:
            prod = -prod
        acc = prod if acc is None else acc + prod
    return acc


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def matrix_adjugate(M: Sequence[Sequence[object]], one):
    """Adjugate (transposed cofactor matrix): ``M @ adj(M) = det(M) * I``.

    ``one`` is the coefficient ring's identity, needed for the 1x1 case.
    """
    n = len(M)
    if n == 1:
        return [[one]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [M[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = matrix_determinant(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof
    return adj


def matrix_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = A[i][0] * B[0][j]
            for k in range(1, m):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


# -- composition reversion -------------------------------------------------------


def reverse_composition(
    components: Sequence[TruncatedSeries],
    linear_inverse: Sequence[Sequence[object]],
    work_order: int,
) -> list[TruncatedSeries]:
    """Compositional inverse of a constant-free tuple of series.

    ``components`` are ``u_1..u_n`` (each of dim ``n``, no constant term,
    linear part ``L`` with ``L[k][l]`` the coefficient of ``t_{l+1}`` in
    ``u_k``); ``linear_inverse`` is ``L^{-1}`` over the coefficient ring.
    Solves ``u(v(t)) = t`` degree by degree up to ``work_order`` and returns
    ``v`` as a list of series at that order.

    This one routine backs both jet inversion (coefficients in a base ring)
    and the antipode of the coordinate ring (symbolic coefficients).
    """
    n = len(components)
    u = [TruncatedSeries(c.dim, work_order, c.terms) for c in components]
    for k, c in enumerate(u):
        if c.constant_term() is not None:
            raise PreconditionError(f"component {k} has a constant term; reversion needs none")

    v = []
    for k in range(n):
        terms = {}
        for l in range(n):
            coeff = linear_inverse[k][l]
            if not coeff.is_zero():
                terms[unit_index(n, l)] = coeff
        v.append(TruncatedSeries(n, work_order, terms))

    for d in range(2, work_order + 1):
        # The discrepancy u(v(t)) - t has no terms below degree d by
        # induction, and the identity map is pure degree 1, so for d >= 2
        # the degree-d slice of the discrepancy is just that of u(v(t)).
        residual = [_substitute_exact(u[k], v, work_order) for k in range(n)]
        correction = [residual[k].homogeneous_part(d) for k in range(n)]
        for k in range(n):
            delta: dict[MultiIndex, object] = {}
            for l in range(n):
                coeff_kl = linear_inverse[k][l]
                if coeff_kl.is_zero():
                    continue
                for j, c in correction[l].items():
                    p = coeff_kl * c
                    if j in delta:
                        s = delta[j] + p
                        if s.is_zero():
                            del delta[j]
                        else:
                            delta[j] = s
                    elif not p.is_zero():
                        delta[j] = p
            if delta:
                v[k] = v[k] - TruncatedSeries(n, work_order, delta)
    return v
