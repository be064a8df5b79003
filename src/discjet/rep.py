"""Matrix representations of the constant-free jet group.

A representation is a square matrix of coordinate-ring functions --
polynomials in the jet coordinates a^k_J together with powers of 1/det.
Evaluating every entry at a concrete constant-free jet gives an invertible
matrix over the jet's base ring.  The homomorphism law is never assumed: it
is a symbolic identity between the coproduct of each entry and the matrix
product of the two tensor slots, checked by ``rep_check_homomorphism``.

The rational scaling family z*id acts diagonally on a good basis; the
diagonal exponents are the weights, and their spread ``d_max - d_min + 1``
is the degree bound returned by ``extension_order``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .hopf import (
    CoordRingElement,
    Polynomial,
    TensorCoordElement,
    antipode,
    check_homogeneous,
    coproduct,
    coproduct_extend,
    det_polynomial,
    evaluate_coord,
    unpack,
)
from .jet_group import JetAutomorphism, jet_classify
from .series import TruncatedSeries, indices_up_to, unit_index


@dataclass(frozen=True)
class Representation:
    """An m-dimensional representation with coordinate-ring entries.

    ``entries[i][j]`` is the coefficient of basis vector i in the image of
    basis vector j (matrices act on column vectors), and ``weights[i]`` is
    the integer exponent with which the rational scaling family acts on
    basis vector i.  Weights are stored in basis order.
    """

    m: int
    n: int
    c: int
    entries: tuple[tuple[CoordRingElement, ...], ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.c < 1:
            raise PreconditionError("representations need m, n, c >= 1")
        if len(self.entries) != self.m or any(
            len(row) != self.m for row in self.entries
        ):
            raise PreconditionError(f"entry matrix is not {self.m}x{self.m}")
        if len(self.weights) != self.m:
            raise PreconditionError("representations need one weight per basis vector")
        for row in self.entries:
            for elem in row:
                if elem.n != self.n:
                    raise PreconditionError("entry built for a different dimension n")
                for alphabet, _, J in elem.num.variables():
                    if alphabet != "a":
                        raise PreconditionError(
                            "entries are written in the single jet alphabet"
                        )
                    if len(J) != self.n or not 1 <= sum(J) <= self.c:
                        raise PreconditionError(
                            f"entry mentions a coordinate outside level {self.c}"
                        )


# -- constructors ---------------------------------------------------------------------


def rep_trivial(n: int, c: int) -> Representation:
    """The one-dimensional representation on which every jet acts as 1."""
    one = CoordRingElement.constant(n, 1)
    return Representation(1, n, c, ((one,),), (0,))


def rep_determinant(n: int, c: int) -> Representation:
    """The one-dimensional action through the determinant of the linear part."""
    det = CoordRingElement(n, det_polynomial(n))
    return Representation(1, n, c, ((det,),), (n,))


def rep_jet_standard(n: int, c: int) -> Representation:
    """The action on constant-free polynomial jets modulo degree c + 1.

    Basis: monomials t^J with 0 < |J| <= c in graded-lex order.  A jet rho
    acts by f -> f o rho^{-1}, so column J holds the coefficients of the
    product of antipode component series (S_1)^{j_1} ... (S_n)^{j_n}.
    """
    if n < 1 or c < 1:
        raise PreconditionError("the standard jet representation needs n, c >= 1")
    basis = indices_up_to(n, c, min_degree=1)
    s_table = antipode(n, c)
    inverse = [
        TruncatedSeries(n, c, {J: s_table[(k, J)] for J in basis}) for k in range(n)
    ]
    zero = CoordRingElement(n, Polynomial.zero())
    m = len(basis)
    entries = [[zero] * m for _ in range(m)]
    for j, J in enumerate(basis):
        image = None
        for k, e in enumerate(J):
            if e:
                factor = inverse[k].power(e)
                image = factor if image is None else image * factor
        for i, I in enumerate(basis):
            coeff = image.coefficient(I)
            if coeff is not None:
                entries[i][j] = coeff
    rows = tuple(tuple(row) for row in entries)
    return Representation(m, n, c, rows, _scaling_weights(rows, n))


def rep_reinterpret(rep: Representation, c_new: int) -> Representation:
    """The same matrix viewed as a representation of a deeper truncation.

    Entries only mention coordinates up to the original level, so evaluation
    at level c_new factors through truncation to the original level.
    """
    if c_new < rep.c:
        raise PreconditionError("reinterpretation only deepens the truncation level")
    return Representation(rep.m, rep.n, c_new, rep.entries, rep.weights)


# -- evaluation -----------------------------------------------------------------------


def rep_eval(rep: Representation, g: JetAutomorphism):
    """Evaluate every entry at a constant-free jet: an m x m matrix over g's base."""
    if g.n != rep.n or g.c != rep.c:
        raise PreconditionError(
            f"representation at (n={rep.n}, c={rep.c}) cannot act on a jet "
            f"at (n={g.n}, c={g.c})"
        )
    if not jet_classify(g).in_K:
        raise PreconditionError("representations evaluate on constant-free jets")
    return [[evaluate_coord(elem, g) for elem in row] for row in rep.entries]


# -- the symbolic homomorphism law ----------------------------------------------------


@dataclass(frozen=True)
class RepCheckReport:
    """Outcome of the symbolic comodule check; failures are reported, not raised."""

    ok: bool
    failing_entry: tuple[int, int] | None = None


def _retag(poly: Polynomial, alphabet: str) -> Polynomial:
    return poly.substitute(lambda v: Polynomial.variable(alphabet, v[1], v[2]))


def rep_check_homomorphism(rep: Representation) -> RepCheckReport:
    """Check Delta(entry_ij) = sum_k entry_ik (x) entry_kj as exact identities."""
    table = coproduct(rep.n, rep.c)
    for i in range(rep.m):
        for j in range(rep.m):
            lhs = coproduct_extend(rep.entries[i][j], table)
            rhs = TensorCoordElement(rep.n, Polynomial.zero())
            for k in range(rep.m):
                left = rep.entries[i][k]
                right = rep.entries[k][j]
                rhs = rhs + TensorCoordElement(
                    rep.n,
                    _retag(left.num, "b") * _retag(right.num, "c"),
                    left.det_power,
                    right.det_power,
                )
            if lhs != rhs:
                return RepCheckReport(False, (i, j))
    return RepCheckReport(True)


# -- weights and the degree bound -----------------------------------------------------


def _scaling_profile(elem: CoordRingElement) -> dict[int, Fraction]:
    """The entry after substituting the scaling jet z*id, as {z-exponent: coeff}.

    Diagonal linear coordinates a^k_{e_k} become z, every other coordinate 0,
    and det becomes z^n, so det_power shifts every exponent down by n*power.
    """
    n = elem.n
    profile: dict[int, Fraction] = {}
    for mono, q in elem.num.terms.items():
        exponent = 0
        survives = True
        for (_, k, J), e in unpack(mono):
            if J == unit_index(n, k):
                exponent += e
            else:
                survives = False
                break
        if not survives:
            continue
        exponent -= n * elem.det_power
        total = profile.get(exponent, 0) + q
        if total:
            profile[exponent] = total
        else:
            profile.pop(exponent, None)
    return profile


def _scaling_weights(entries, n: int) -> tuple[int, ...]:
    weights = []
    for i, row in enumerate(entries):
        for j, elem in enumerate(row):
            profile = _scaling_profile(elem)
            if i != j:
                if profile:
                    raise PreconditionError(
                        f"basis does not diagonalize the scaling family: "
                        f"entry ({i}, {j}) survives"
                    )
                continue
            if len(profile) != 1:
                raise PreconditionError(
                    f"diagonal entry {i} does not restrict to a pure power of z"
                )
            exponent, coeff = next(iter(profile.items()))
            if coeff != 1:
                raise PreconditionError(
                    f"diagonal entry {i} restricts to {coeff}*z^{exponent}, "
                    "not a pure power"
                )
            weights.append(exponent)
    return tuple(weights)


def rep_weights(rep: Representation) -> tuple[int, ...]:
    """Weights read off the scaling substitution a^k_{e_k'} = z * delta_{kk'}.

    Verifies that the matrix becomes diagonal with pure powers z^{d_i} and
    returns the exponents in basis order.
    """
    return _scaling_weights(rep.entries, rep.n)


def factoring_order(rep: Representation) -> int:
    """The largest |J| over coordinates a^k_J actually occurring in the entries.

    A det denominator counts as using the |J| = 1 coordinates.
    """
    best = 0
    for row in rep.entries:
        for elem in row:
            if elem.det_power > 0:
                best = max(best, 1)
            for _, _, J in elem.num.variables():
                best = max(best, sum(J))
    return best


def extension_order(rep: Representation) -> int:
    """The weight-spread degree bound alpha_0 = d_max - d_min + 1.

    Also verifies the structure underpinning the bound: entry (i, j) must be
    homogeneous of degree d_j - d_i for the |J| - 1 grading, and the largest
    coordinate degree occurring in the entries must not exceed alpha_0.
    """
    weights = rep_weights(rep)
    alpha0 = max(weights) - min(weights) + 1
    for i in range(rep.m):
        for j in range(rep.m):
            if not check_homogeneous(rep.entries[i][j], weights[j] - weights[i]):
                raise PreconditionError(
                    f"entry ({i}, {j}) is not homogeneous for the scaling grading"
                )
    occurring = factoring_order(rep)
    if occurring > alpha0:
        raise PreconditionError(
            f"factoring order {occurring} exceeds the weight bound {alpha0}"
        )
    return alpha0
