"""The Hopf algebra of coordinate functions on the constant-free jet group.

A jet in ``K^(c)`` over any coefficient ring is determined by the finitely
many coefficients of its components,

    u_k(t) = sum_{1 <= |J| <= c}  a^k_J  t^J,

so the coordinate ring is generated by the functions ``a^k_J`` together with
the inverse of ``det = det(a^k_{e_l})``, the determinant of the linear part.
Group composition, unit and inversion induce the coproduct, counit and
antipode:

* ``coproduct(n, c)`` composes two *generic* jets with independent variable
  alphabets ``b`` (outer/left tensor slot) and ``c`` (inner/right) and reads
  off coefficients -- pure polynomials, no localization needed;
* ``counit`` evaluates at the identity jet;
* ``antipode`` reverts the generic jet; its entries live in the localization
  and are computed with the same degree-by-degree solver as jet inversion,
  run over symbolic scalars.

Everything is exact; elements of the localization are stored as
``numerator / det^power`` pairs and compared by cross-multiplication.

Numerators are :class:`Polynomial` values.  A monomial is one ``int`` with
a byte-wide exponent field per registered variable, so multiplying
monomials is adding ints; ``unpack`` gives back the sorted
``((var, exponent), ...)`` form.  Coefficients are ``int`` when integral
(as in every coproduct and antipode entry) and ``Fraction`` otherwise.

The grading: ``a^k_J`` has degree ``|J| - 1`` (the weight under conjugation
by the scaling jet ``t -> z t``); ``det`` and ``det^{-1}`` have degree 0,
and all structure maps are degree-preserving.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .base_ring import grlex_key
from .errors import PreconditionError
from .jet_group import JetAutomorphism, jet_classify
from .series import (
    TruncatedSeries,
    indices_up_to,
    matrix_adjugate,
    matrix_determinant,
    reverse_composition,
    series_substitute,
    series_truncate,
    unit_index,
)

#: a coordinate variable: (alphabet, component index k, multi-index J)
Var = tuple[str, int, tuple[int, ...]]

#: a monomial: one nonnegative int packing its exponent vector, one byte per
#: variable slot (slot s holds bits 8s .. 8s+7).  The top bit of each byte is
#: a guard, so exponents run up to MAX_EXPONENT and the product of two
#: monomials is their integer sum, with no carry between fields.
Monomial = int

#: the largest exponent a variable may carry in a monomial
MAX_EXPONENT = 127
_OVERFLOW = f"polynomial exponent exceeds the limit {MAX_EXPONENT}"

# The variable registry: slots are handed out in order of first use, so the
# variables of small shapes get small slots and short ints.  It only grows.
_SLOT: dict[Var, int] = {}
_VARS: list[Var] = []
_KEYS: list[tuple] = []  # var_key of each slot
_guard = 0  # the guard bit of every registered slot


def var_key(v: Var):
    return (v[0], v[1], grlex_key(v[2]))


def pack(pairs) -> Monomial:
    """The monomial prod v^e of distinct (var, exponent) pairs."""
    global _guard
    m = 0
    for v, e in pairs:
        if not 0 <= e <= MAX_EXPONENT:
            raise PreconditionError(_OVERFLOW)
        slot = _SLOT.get(v)
        if slot is None:
            slot = _SLOT[v] = len(_VARS)
            _VARS.append(v)
            _KEYS.append(var_key(v))
            _guard |= 0x80 << (8 * slot)
        m |= e << (8 * slot)
    return m


def _fields(m: Monomial):
    """(slot, exponent) for every variable of m, in slot order."""
    return [(s, e) for s, e in enumerate(m.to_bytes((m.bit_length() + 7) // 8, "little")) if e]


@lru_cache(maxsize=4096)
def unpack(m: Monomial) -> tuple[tuple[Var, int], ...]:
    """The monomial as ((var, exponent), ...) sorted by var_key."""
    fields = sorted(_fields(m), key=lambda se: _KEYS[se[0]])
    return tuple((_VARS[s], e) for s, e in fields)


def _rational(q):
    """An integral Fraction as its int; any other coefficient unchanged."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


class Polynomial:
    """Sparse multivariate polynomial over Q in alphabet-tagged variables.

    ``terms`` maps packed monomials to nonzero coefficients: an ``int`` when
    the coefficient is integral, a ``Fraction`` otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: _rational(q) for m, q in terms.items() if q}

    @staticmethod
    def _reduced(terms) -> "Polynomial":
        """Wrap terms that already hold only nonzero, normalized coefficients."""
        p = object.__new__(Polynomial)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def constant(q) -> "Polynomial":
        return Polynomial({0: q if isinstance(q, int) else Fraction(q)})

    @staticmethod
    def variable(alphabet: str, k: int, J, exponent: int = 1) -> "Polynomial":
        return Polynomial({pack((((alphabet, k, tuple(J)), exponent),)): 1})

    # -- ring structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_nilpotent(self) -> bool:
        # the polynomial ring over Q is reduced
        return self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, q in other.terms.items():
            s = terms.get(mono, 0) + q
            if s:
                terms[mono] = _rational(s)
            else:
                del terms[mono]
        return Polynomial._reduced(terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._reduced({m: -q for m, q in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return Polynomial({m: c * other for m, c in self.terms.items()})
            return NotImplemented
        out: dict[Monomial, int | Fraction] = {}
        get = out.get
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                m = m1 + m2
                s = get(m, 0) + q1 * q2
                if s:
                    out[m] = s
                else:
                    del out[m]
        guard = _guard
        for m, q in out.items():
            if m & guard:
                raise PreconditionError(_OVERFLOW)
            out[m] = _rational(q)
        return Polynomial._reduced(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise PreconditionError("polynomial powers take nonnegative exponents")
        acc = Polynomial.constant(1)
        for _ in range(e):
            acc = acc * self
        return acc

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    # -- queries ----------------------------------------------------------------

    def variables(self) -> set[Var]:
        support = 0
        for mono in self.terms:
            support |= mono
        return {_VARS[s] for s, _ in _fields(support)}

    def sorted_terms(self):
        """(((var, exponent), ...), coefficient) pairs, lowest degree first."""

        def mono_key(kv):
            mono = kv[0]
            return (sum(e for _, e in mono), tuple((var_key(v), e) for v, e in mono))

        return sorted(((unpack(m), q) for m, q in self.terms.items()), key=mono_key)

    def substitute(self, mapping) -> "Polynomial":
        """Replace variables via mapping(var) -> Polynomial; unmapped stay put."""
        acc = Polynomial.zero()
        for mono, q in self.terms.items():
            term = Polynomial.constant(q)
            for v, e in unpack(mono):
                img = mapping(v)
                if img is None:
                    img = Polynomial.variable(*v)
                term = term * img**e
            acc = acc + term
        return acc

    def evaluate(self, assign, one, zero):
        """Evaluate in any commutative ring: assign(var) -> ring value."""
        acc = zero
        for mono, q in self.terms.items():
            term = one
            for v, e in unpack(mono):
                val = assign(v)
                for _ in range(e):
                    term = term * val
            acc = acc + term * q
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, q in self.sorted_terms()[:10]:
            names = "*".join(
                f"{a}{k+1}_{''.join(map(str, J))}" + (f"^{e}" if e > 1 else "")
                for (a, k, J), e in mono
            )
            bits.append(f"{q}*{names}" if names else str(q))
        tail = " + ..." if len(self.terms) > 10 else ""
        return " + ".join(bits) + tail


@lru_cache(maxsize=None)
def det_polynomial(n: int, alphabet: str = "a") -> Polynomial:
    """det(a^k_{e_l}) as a polynomial: determinant of the generic linear part."""
    M = [
        [Polynomial.variable(alphabet, k, unit_index(n, l)) for l in range(n)]
        for k in range(n)
    ]
    return matrix_determinant(M)


class CoordRingElement:
    """An element of the coordinate ring localized at det: numerator / det^power.

    No GCD reduction is attempted; equality cross-multiplies.  The zero
    element is normalized to det_power 0.
    """

    __slots__ = ("n", "num", "det_power")

    def __init__(self, n: int, num: Polynomial, det_power: int = 0):
        if det_power < 0:
            raise PreconditionError("det_power must be >= 0")
        self.n = n
        if num.is_zero():
            det_power = 0
        self.num = num
        self.det_power = det_power

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def variable(n: int, k: int, J) -> "CoordRingElement":
        return CoordRingElement(n, Polynomial.variable("a", k, J))

    @staticmethod
    def constant(n: int, q) -> "CoordRingElement":
        return CoordRingElement(n, Polynomial.constant(q))

    def det_shift(self, m: int) -> "CoordRingElement":
        """Divide by det^m (exactly, by bumping the stored power)."""
        return CoordRingElement(self.n, self.num, self.det_power + m)

    def _align(self, other: "CoordRingElement"):
        if self.n != other.n:
            raise PreconditionError("coordinate-ring elements with different n")
        d = max(self.det_power, other.det_power)
        det = det_polynomial(self.n)
        p = self.num * det ** (d - self.det_power)
        q = other.num * det ** (d - other.det_power)
        return p, q, d

    # -- ring structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_nilpotent(self) -> bool:
        return self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q, d = self._align(other)
        return CoordRingElement(self.n, p + q, d)

    __radd__ = __add__

    def __neg__(self):
        return CoordRingElement(self.n, -self.num, self.det_power)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CoordRingElement(self.n, self.num * other, self.det_power)
        if not isinstance(other, CoordRingElement):
            return NotImplemented
        if self.n != other.n:
            raise PreconditionError("coordinate-ring elements with different n")
        return CoordRingElement(self.n, self.num * other.num, self.det_power + other.det_power)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, CoordRingElement):
            return other
        if isinstance(other, (int, Fraction)):
            return CoordRingElement.constant(self.n, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q, _ = self._align(other)
        return p == q

    def __hash__(self):
        raise TypeError("CoordRingElement is not hashable")

    def __repr__(self):
        if self.det_power:
            return f"({self.num!r})/det^{self.det_power}"
        return repr(self.num)


# -- generic jets -------------------------------------------------------------------


def generator_indices(n: int, c: int) -> list[tuple[int, tuple[int, ...]]]:
    """All coordinate indices (k, J), 1 <= |J| <= c, sorted by (k, graded-lex J)."""
    return [(k, J) for k in range(n) for J in indices_up_to(n, c, min_degree=1)]


def generic_components(n: int, c: int, alphabet: str) -> list[TruncatedSeries]:
    """The generic constant-free jet: u_k = sum_J (alphabet)^k_J t^J."""
    comps = []
    for k in range(n):
        terms = {
            J: Polynomial.variable(alphabet, k, J)
            for J in indices_up_to(n, c, min_degree=1)
        }
        comps.append(TruncatedSeries(n, c, terms))
    return comps


# -- the structure maps --------------------------------------------------------------


def coproduct(n: int, c: int) -> dict[tuple[int, tuple[int, ...]], Polynomial]:
    """Delta(a^k_J) as a polynomial in b-variables (left slot) and c-variables.

    Reads the coefficients of the composite of two generic jets; b is the
    outer factor, so evaluating b at rho and c at sigma gives the
    coefficients of rho o sigma.
    """
    _check_shape(n, c)
    outer = generic_components(n, c, "b")
    inner = generic_components(n, c, "c")
    table = {}
    for k in range(n):
        composed = series_substitute(outer[k], inner, work_order=c)
        for J in indices_up_to(n, c, min_degree=1):
            coeff = composed.coefficient(J)
            table[(k, J)] = Polynomial.zero() if coeff is None else coeff
    return table


def counit(n: int, c: int) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """Evaluation at the identity jet: 1 on a^k_{e_k}, 0 elsewhere."""
    _check_shape(n, c)
    table = {}
    for k, J in generator_indices(n, c):
        table[(k, J)] = Fraction(1) if J == unit_index(n, k) else Fraction(0)
    return table


def antipode(n: int, c: int) -> dict[tuple[int, tuple[int, ...]], CoordRingElement]:
    """S(a^k_J): coefficients of the compositional inverse of the generic jet.

    Computed with the shared degree-by-degree reversion solver, run with
    coordinate-ring scalars; the linear part is inverted as adjugate/det.
    """
    _check_shape(n, c)
    comps = []
    for u in generic_components(n, c, "a"):
        comps.append(
            TruncatedSeries(
                n, c, {J: CoordRingElement(n, p) for J, p in u.terms.items()}
            )
        )
    L = [
        [CoordRingElement(n, Polynomial.variable("a", k, unit_index(n, l))) for l in range(n)]
        for k in range(n)
    ]
    adj = matrix_adjugate(L, CoordRingElement.constant(n, 1))
    Linv = [[adj[i][j].det_shift(1) for j in range(n)] for i in range(n)]
    v = reverse_composition(comps, Linv, c)
    table = {}
    for k in range(n):
        for J in indices_up_to(n, c, min_degree=1):
            coeff = v[k].coefficient(J)
            table[(k, J)] = (
                CoordRingElement(n, Polynomial.zero()) if coeff is None else coeff
            )
    return table


def _check_shape(n: int, c: int):
    if n < 1 or c < 1:
        raise PreconditionError("coordinate rings need n >= 1 and c >= 1")


# -- grading ---------------------------------------------------------------------------


def grading_degree(index) -> int:
    """Degree of the generator a^k_J under scaling conjugation: |J| - 1."""
    _, J = index
    return sum(J) - 1


def monomial_degree(mono: Monomial) -> int:
    return sum(e * (sum(v[2]) - 1) for v, e in unpack(mono))


def check_homogeneous(obj, degree: int) -> bool:
    """Whether all monomials of a Polynomial / CoordRingElement sit in one degree.

    det and its inverse are degree 0 (each det monomial is a product of
    |J| = 1 variables), so only the numerator matters for localized elements.
    """
    if isinstance(obj, CoordRingElement):
        obj = obj.num
    return all(monomial_degree(m) == degree for m in obj.terms)


# -- evaluation ---------------------------------------------------------------------------


def _jet_assignment(g: JetAutomorphism, alphabet: str):
    comps = g.truncated_components(g.c)
    zero = g.base.zero()

    def assign(v: Var):
        a, k, J = v
        if a != alphabet:
            raise PreconditionError(f"unexpected alphabet {a!r} during evaluation")
        coeff = comps[k].coefficient(J)
        return zero if coeff is None else coeff

    return assign


def _det_value(g: JetAutomorphism):
    return matrix_determinant(g.linear_matrix())


def evaluate_polynomial(poly: Polynomial, assign, base):
    return poly.evaluate(assign, base.one(), base.zero())


def evaluate_coord(elem: CoordRingElement, g: JetAutomorphism):
    """The value of a coordinate function at a constant-free jet."""
    if not jet_classify(g).in_K:
        raise PreconditionError("coordinate functions evaluate on constant-free jets")
    if elem.n != g.n:
        raise PreconditionError("element and jet have different n")
    val = evaluate_polynomial(elem.num, _jet_assignment(g, "a"), g.base)
    if elem.det_power:
        det = _det_value(g)
        val = val * det.invert() ** elem.det_power
    return val


def evaluate_pair(poly: Polynomial, g: JetAutomorphism, h: JetAutomorphism):
    """Evaluate a b/c-alphabet polynomial at the pair (b -> g, c -> h)."""
    ag = _jet_assignment(g, "b")
    ah = _jet_assignment(h, "c")

    def assign(v: Var):
        return ag(v) if v[0] == "b" else ah(v)

    return poly.evaluate(assign, g.base.one(), g.base.zero())


# -- tensor-square elements (needed to state the homomorphism law) ----------------------


class TensorCoordElement:
    """An element of O(K) tensor O(K): numerator over alphabets b and c with
    separate det powers for each slot."""

    __slots__ = ("n", "num", "det_power_b", "det_power_c")

    def __init__(self, n: int, num: Polynomial, det_power_b: int = 0, det_power_c: int = 0):
        if det_power_b < 0 or det_power_c < 0:
            raise PreconditionError("det powers must be >= 0")
        self.n = n
        if num.is_zero():
            det_power_b = det_power_c = 0
        self.num = num
        self.det_power_b = det_power_b
        self.det_power_c = det_power_c

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _align(self, other: "TensorCoordElement"):
        if self.n != other.n:
            raise PreconditionError("tensor elements with different n")
        db = max(self.det_power_b, other.det_power_b)
        dc = max(self.det_power_c, other.det_power_c)
        det_b = det_polynomial(self.n, "b")
        det_c = det_polynomial(self.n, "c")
        p = self.num * det_b ** (db - self.det_power_b) * det_c ** (dc - self.det_power_c)
        q = other.num * det_b ** (db - other.det_power_b) * det_c ** (dc - other.det_power_c)
        return p, q, db, dc

    def __add__(self, other):
        p, q, db, dc = self._align(other)
        return TensorCoordElement(self.n, p + q, db, dc)

    def __neg__(self):
        return TensorCoordElement(self.n, -self.num, self.det_power_b, self.det_power_c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TensorCoordElement(
                self.n, self.num * other, self.det_power_b, self.det_power_c
            )
        if not isinstance(other, TensorCoordElement):
            return NotImplemented
        if self.n != other.n:
            raise PreconditionError("tensor elements with different n")
        return TensorCoordElement(
            self.n,
            self.num * other.num,
            self.det_power_b + other.det_power_b,
            self.det_power_c + other.det_power_c,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorCoordElement):
            return NotImplemented
        p, q, _, _ = self._align(other)
        return p == q

    def __hash__(self):
        raise TypeError("TensorCoordElement is not hashable")

    def evaluate(self, g: JetAutomorphism, h: JetAutomorphism):
        val = evaluate_pair(self.num, g, h)
        if self.det_power_b:
            val = val * _det_value(g).invert() ** self.det_power_b
        if self.det_power_c:
            val = val * _det_value(h).invert() ** self.det_power_c
        return val

    def __repr__(self):
        return f"({self.num!r})/(det_b^{self.det_power_b} det_c^{self.det_power_c})"


def coproduct_extend(elem: CoordRingElement, table) -> TensorCoordElement:
    """Apply the coproduct to a localized element, given the generator table.

    Delta is an algebra map sending a^k_J to table[(k, J)] and det^{-1} to
    det_b^{-1} det_c^{-1} (the determinant is group-like).
    """

    def mapping(v: Var):
        a, k, J = v
        if a != "a":
            raise PreconditionError("coproduct_extend expects a single-alphabet element")
        return table[(k, J)]

    num = elem.num.substitute(mapping)
    return TensorCoordElement(elem.n, num, elem.det_power, elem.det_power)


def antipode_multiply_convolution(n: int, c: int, delta_table, s_table, side: str = "left"):
    """m o (S (x) id) o Delta on each generator (or (id (x) S) for side="right").

    Returns {(k, J): CoordRingElement}; the Hopf antipode law says each
    entry equals counit(a^k_J) * 1.
    """
    out = {}
    for (k, J), poly in delta_table.items():
        acc = CoordRingElement(n, Polynomial.zero())
        for mono, q in poly.terms.items():
            term = CoordRingElement.constant(n, q)
            for (alph, kk, JJ), e in unpack(mono):
                if (alph == "b") == (side == "left"):
                    factor = s_table[(kk, JJ)]
                else:
                    factor = CoordRingElement.variable(n, kk, JJ)
                for _ in range(e):
                    term = term * factor
            acc = acc + term
        out[(k, J)] = acc
    return out
