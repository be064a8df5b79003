"""The three benchmark workloads: seeded inputs, one op, and its exact check.

Each workload is a closed loop with a single caller: the next op starts when
the previous one returns.  Inputs come in *rounds*, one op of every kind the
workload mixes, so a run that stops at a round boundary always measures the
same mix.  ``min_rounds`` keeps enough ops for ``tail_pct`` to have at least
ten samples beyond it.

A workload object is built by its set-up (generation only, no op runs;
files go under ``scratch``, which the caller empties first) and
exposes ``rounds``, ``run(op)`` (the timed call) and ``verify(op, output)``
(after the timed phase; raises ``AssertionError`` on a wrong output).  A
traced run takes a fixed ``trace_rounds`` rounds, so its counts repeat, and
expects calls in each of the ``carriers`` layers.  The
checks go through the fixed ``discjet/1`` encoding and through
``reference``, not through the code being timed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import reference as ref


def _unit_index(n, k):
    return tuple(int(i == k) for i in range(n))


def _indices(n, lo, hi):
    """Multi-indices J with lo <= |J| <= hi (any order)."""
    out = [()]
    for _ in range(n):
        out = [j + (e,) for j in out for e in range(hi + 1) if sum(j) + e <= hi]
    return [j for j in out if lo <= sum(j)]


# -- group-law ---------------------------------------------------------------------------


class GroupLaw:
    """Sparse G-jet triples over the ``group-axioms`` grid.

    One op is both associativity composites, ``jet_invert(sigma)`` and both
    inverse composites: the work of one ``group-axioms`` case.
    """

    name = "group-law"
    tail_pct = 95
    min_rounds = 30  # 7 ops a round: 210 ops leave 10 beyond p95
    rounds_per_second = 10  # distinct triples for well above today's rate
    trace_rounds = 4
    carriers = ("base_ring.mul", "series.substitute", "jet_group.compose", "jet_group.invert")

    def __init__(self, dj, seed: int, seconds: int, root: Path, scratch: Path):
        self.dj = dj
        rng = random.Random(f"group-law:{seed}")
        grid = dj.acceptance.GROUP_AXIOM_GRID
        self.rounds = []
        for _ in range(max(self.min_rounds, self.rounds_per_second * seconds)):
            rnd = []
            for n, c, orders in grid:
                base = dj.base_ring.BaseRingDescriptor(orders=orders)
                rnd.append(
                    tuple(dj.sampling.random_jet(rng, n, c, base, kind="G") for _ in range(3))
                )
            self.rounds.append(rnd)

    def run(self, op):
        compose, invert = self.dj.jet_group.jet_compose, self.dj.jet_group.jet_invert
        rho, sigma, gamma = op
        rs = compose(rho, sigma)
        left = compose(rs, gamma)
        right = compose(rho, compose(sigma, gamma))
        inv = invert(sigma)
        return rs, left, right, inv, compose(sigma, inv), compose(inv, sigma)

    def verify(self, op, output):
        rho, sigma, gamma = op
        rs, left, right, inv, si, is_ = output
        n, c, base = rho.n, rho.c, rho.base
        e = self.dj.jet_group.jet_identity(n, c, base)
        assert left == right, "associativity"
        assert si == e and is_ == e, "two-sided inverse"
        # the composites themselves, at the working order, from the reference
        orders, w = base.orders, rho.work_order
        R, S, G, I = (self._ref(g) for g in (rho, sigma, gamma, inv))
        RS = ref.compose(R, S, orders, w)
        assert self._ref(rs) == RS, "rho o sigma"
        assert self._ref(left) == ref.compose(RS, G, orders, w), "(rho o sigma) o gamma"
        si_ref = ref.compose(S, I, orders, w)
        assert self._ref(si) == si_ref, "sigma o sigma^-1"
        assert [ref.truncate(f, c) for f in si_ref] == ref.identity(n, orders), "inverse"

    def _ref(self, g):
        encode = self.dj.jsonio.encode_series
        return [ref.series_from_json(encode(comp)) for comp in g.components]


# -- hopf-symbolic ------------------------------------------------------------------------

COPRODUCT_GRID = [(1, c) for c in range(1, 9)] + [(2, c) for c in range(1, 6)] + [
    (3, c) for c in range(1, 4)
]
ANTIPODE_GRID = [(1, c) for c in range(1, 11)] + [(2, c) for c in range(1, 5)] + [(3, 2)]
REP_GRID = (
    [("standard", 1, c) for c in range(1, 6)]
    + [("standard", 2, 2), ("standard", 3, 1)]
    + [(kind, n, c) for kind in ("trivial", "determinant") for n, c in [(1, 4), (2, 2), (3, 2)]]
    + [("determinant", 3, 1)]
)


class HopfSymbolic:
    """The structure maps over a fixed shape grid, one call per op.

    A round is the whole grid (45 ops) in a fixed order; the seed picks the
    jets the tables are checked at.  Rounds repeat the same shapes, so work
    shared between ``rep_check`` at (n, c) and ``coproduct``/``antipode`` at
    (n, c) recurs within and across rounds.  45 ops put the p50 and p90 ranks
    in the middle of one grid entry's samples (22.5 and 4.5 entries from the
    top), not on the edge between two.
    """

    name = "hopf-symbolic"
    tail_pct = 90
    min_rounds = 3  # 135 ops leave 13 beyond p90
    trace_rounds = 1
    carriers = ("hopf.poly_mul", "hopf.coproduct", "hopf.antipode", "rep.check")

    def __init__(self, dj, seed: int, seconds: int, root: Path, scratch: Path):
        self.dj = dj
        rng = random.Random(f"hopf-symbolic:{seed}")
        ops = (
            [("coproduct", n, c) for n, c in COPRODUCT_GRID]
            + [("antipode", n, c) for n, c in ANTIPODE_GRID]
            + [("rep", kind, n, c) for kind, n, c in REP_GRID]
        )
        self.rounds = [ops]
        # two seeded constant-free jets over Q per shape, to evaluate the tables at
        self.points = {
            (n, c): (_rational_k_jet(rng, n, c), _rational_k_jet(rng, n, c))
            for n, c in sorted(set(COPRODUCT_GRID + ANTIPODE_GRID))
        }
        self.golden = (root / "src/discjet/golden/coproduct_n1_c4.json").read_text("utf-8")
        self._checked: dict[tuple, str] = {}

    def run(self, op):
        hopf, rep = self.dj.hopf, self.dj.rep
        if op[0] == "coproduct":
            return hopf.coproduct(op[1], op[2])
        if op[0] == "antipode":
            return hopf.antipode(op[1], op[2])
        _, kind, n, c = op
        build = {
            "standard": rep.rep_jet_standard,
            "trivial": rep.rep_trivial,
            "determinant": rep.rep_determinant,
        }[kind]
        return rep.rep_check_homomorphism(build(n, c))

    def verify(self, op, output):
        if op[0] == "rep":
            assert output.ok, f"rep_check reported entry {output.failing_entry}"
            return
        jsonio = self.dj.jsonio
        kind, n, c = op
        encode_value = jsonio.encode_polynomial if kind == "coproduct" else jsonio.encode_coord
        doc = jsonio.document(
            f"{kind}_table",
            {"n": n, "c": c, "entries": jsonio.encode_table(output, encode_value)},
        )
        text = jsonio.render(doc)
        seen = self._checked.get(op)
        if seen is not None:
            assert text == seen, "differs from an earlier call with the same shape"
            return
        keys = [(row["k"], tuple(row["J"])) for row in doc["entries"]]
        want = [(k, J) for k in range(n) for J in _indices(n, 1, c)]
        assert sorted(keys) == sorted(want), "table keys"
        g, h = self.points[(n, c)]
        rows = {(row["k"], tuple(row["J"])): row["value"] for row in doc["entries"]}
        if kind == "coproduct":
            if (n, c) == (1, 4):
                assert text == self.golden, "coproduct(1, 4) differs from the golden file"
            composite = ref.compose(g, h, (), c)

            def assign(alphabet, k, J):
                return _coefficient((g if alphabet == "b" else h)[k], J)

            for (k, J), value in rows.items():
                assert ref.poly_eval(value, assign) == _coefficient(composite[k], J), (
                    f"coproduct entry {(k, J)} at a seeded pair"
                )
        else:
            det = _linear_det(g, n)
            inverse = [{} for _ in range(n)]
            for (k, J), value in rows.items():
                num = ref.poly_eval(value["num"], lambda a, kk, JJ: _coefficient(g[kk], JJ))
                q = num / det ** value["det_power"]
                if q:
                    inverse[k][J] = {(): q}
            ident = ref.identity(n, ())
            assert ref.compose(g, inverse, (), c) == ident, "g o S(g)"
            assert ref.compose(inverse, g, (), c) == ident, "S(g) o g"
        self._checked[op] = text


def _coefficient(series, J):
    return series.get(J, {}).get((), Fraction(0))


def _rational(rng, nonzero=False):
    num = rng.randint(-3, 3)
    while nonzero and num == 0:
        num = rng.randint(-3, 3)
    return Fraction(num, rng.choice([1, 2, 3]))


def _rational_k_jet(rng, n, c):
    """A constant-free jet over Q with a lower-triangular unit linear part;
    every other coefficient up to c is a seeded rational (possibly 0)."""
    comps = []
    for k in range(n):
        terms = {}
        for J in _indices(n, 1, c):
            if sum(J) == 1:
                l = J.index(1)
                q = _rational(rng, nonzero=True) if l == k else (_rational(rng) if l < k else 0)
            else:
                q = _rational(rng)
            if q:
                terms[J] = {(): q}
        comps.append(terms)
    return comps


def _linear_det(g, n):
    M = [[_coefficient(g[k], _unit_index(n, l)) for l in range(n)] for k in range(n)]
    det = Fraction(1)
    for k in range(n):
        det *= M[k][k]  # lower triangular by construction
    return det


# -- cli-batch ----------------------------------------------------------------------------

#: (n, c, nilpotency orders) of the dense documents, cycled across verbs
CLI_SHAPES = [(1, 5, (3,)), (2, 3, (2,)), (3, 2, (2,))]
REP_EVAL_SHAPES = [(1, c) for c in range(1, 7)] + [(2, c) for c in range(1, 4)]
REP_BOUND_SHAPES = [(1, 3), (2, 2)]
JET_VERBS = ["compose", "invert", "classify", "split", "exp", "log", "bracket", "adjoint",
             "roof-jet", "roof-check"]


class CliBatch:
    """In-process ``discjet.cli.main`` over a corpus of dense documents.

    Every coefficient up to c is nonzero, over nilpotent bases, and every
    op reads its own freshly generated ``--in`` files and writes its own
    ``--out`` file.  A round is each jet/derivation/roof verb at each of
    ``CLI_SHAPES``, each ``rep-eval`` shape and each ``rep-bound`` shape.
    """

    name = "cli-batch"
    tail_pct = 95
    min_rounds = 6  # 41 ops a round: 246 ops leave 12 beyond p95
    rounds_per_second = 1.0
    trace_rounds = 1
    carriers = ("jsonio.read", "jsonio.write", "cli.main", "lie.exp", "etale.roof_jet")

    def __init__(self, dj, seed: int, seconds: int, root: Path, scratch: Path):
        self.dj = dj
        self.dir = scratch
        rng = random.Random(f"cli-batch:{seed}")
        self.rounds = []
        count = 0
        for _ in range(max(self.min_rounds, round(self.rounds_per_second * seconds))):
            rnd = []
            for verb in JET_VERBS:
                for n, c, orders in CLI_SHAPES:
                    rnd.append(self._make(rng, count, verb, n, c, orders))
                    count += 1
            for n, c in REP_EVAL_SHAPES:
                orders = (rng.choice([2, 3]),)
                rnd.append(self._make(rng, count, "rep-eval", n, c, orders))
                count += 1
            for n, c in REP_BOUND_SHAPES:
                rnd.append(self._make(rng, count, "rep-bound", n, c, ()))
                count += 1
            self.rounds.append(rnd)
        self._reps: dict[tuple[int, int], object] = {}

    # -- generation ------------------------------------------------------------------

    def _write(self, stem, doc):
        path = self.dir / f"{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _make(self, rng, i, verb, n, c, orders):
        stem = f"op{i:05d}"
        base = {"nilpotents": list(orders)}
        docs = []
        if verb == "compose":
            docs = [_jet_doc(n, c, base, _dense_jet(rng, n, c, orders, "G")) for _ in range(2)]
        elif verb in ("invert", "classify", "split"):
            docs = [_jet_doc(n, c, base, _dense_jet(rng, n, c, orders, "G"))]
        elif verb == "log":
            docs = [_jet_doc(n, c, base, _dense_jet(rng, n, c, orders, "Ku"))]
        elif verb == "exp":
            docs = [_derivation_doc(n, c, base, _dense_field(rng, n, c, orders, 2))]
        elif verb == "bracket":
            docs = [_derivation_doc(n, c, base, _dense_field(rng, n, c, orders, 1))
                    for _ in range(2)]
        elif verb == "adjoint":
            docs = [
                _jet_doc(n, c, base, _dense_jet(rng, n, c, orders, "K")),
                _derivation_doc(n, c, base, _dense_field(rng, n, c, orders, 1)),
            ]
        elif verb in ("roof-jet", "roof-check"):
            docs = [_roof_doc(rng, n, c, orders)]
        elif verb == "rep-eval":
            docs = [_jet_doc(n, c, base, _dense_jet(rng, n, c, orders, "K"))]
        ins = [self._write(f"{stem}-in{k}", doc) for k, doc in enumerate(docs)]
        out = str(self.dir / f"{stem}-out.json")
        argv = [verb]
        if verb in ("roof-jet", "roof-check", "rep-eval", "rep-bound"):
            argv += ["--c", str(c)]
        if verb in ("rep-eval", "rep-bound"):
            argv += ["--n", str(n)]
        for path in ins:
            argv += ["--in", path]
        argv += ["--out", out]
        return (verb, n, c, tuple(ins), out, tuple(argv))

    # -- the op and its check ------------------------------------------------------

    def run(self, op):
        return self.dj.cli.main(list(op[5]))

    def verify(self, op, status):
        verb, n, c, ins, out, _ = op
        assert status == 0, f"exit status {status}"
        text = Path(out).read_text("utf-8")
        jsonio = self.dj.jsonio
        docs = [json.loads(Path(p).read_text("utf-8")) for p in ins]
        expected = self._expected(verb, n, c, docs)
        assert text == jsonio.render(expected), f"{verb} output differs from the library call"
        self._decode(json.loads(text))

    def _expected(self, verb, n, c, docs):
        dj = self.dj
        jsonio, jg, lie, etale, rep = dj.jsonio, dj.jet_group, dj.lie, dj.etale, dj.rep
        jet = lambda g: jsonio.document("jet", jsonio.encode_jet(g))  # noqa: E731
        der = lambda D: jsonio.document("derivation", jsonio.encode_derivation(D))  # noqa: E731
        if verb == "compose":
            return jet(jg.jet_compose(jsonio.decode_jet(docs[0]), jsonio.decode_jet(docs[1])))
        if verb == "invert":
            return jet(jg.jet_invert(jsonio.decode_jet(docs[0])))
        if verb == "classify":
            cls = jg.jet_classify(jsonio.decode_jet(docs[0]))
            return jsonio.document("classification", {
                "in_G": cls.in_G, "in_K": cls.in_K, "in_K_u": cls.in_K_u,
                "n_levels": list(cls.n_levels),
            })
        if verb == "split":
            a, k = jg.split_translation(jsonio.decode_jet(docs[0]))
            A, u = jg.split_linear_unipotent(k)
            return jsonio.document("split", {
                "translation": [jsonio.encode_element(x) for x in a],
                "constant_free": jsonio.encode_jet(k),
                "linear": jsonio.encode_jet(A),
                "unipotent": jsonio.encode_jet(u),
            })
        if verb == "exp":
            return jet(lie.exp_derivation(jsonio.decode_derivation(docs[0])))
        if verb == "log":
            return der(lie.log_unipotent(jsonio.decode_jet(docs[0])))
        if verb == "bracket":
            return der(lie.derivation_bracket(
                jsonio.decode_derivation(docs[0]), jsonio.decode_derivation(docs[1])))
        if verb == "adjoint":
            return der(lie.adjoint(jsonio.decode_jet(docs[0]), jsonio.decode_derivation(docs[1])))
        if verb == "roof-jet":
            return jet(etale.roof_jet(jsonio.decode_roof(docs[0]), c))
        if verb == "roof-check":
            roof = jsonio.decode_roof(docs[0])
            cls = jg.jet_classify(etale.roof_jet(roof, c))
            return jsonio.document("roof_report", {
                "strict": etale.roof_is_strict(roof), "c": c,
                "in_K": cls.in_K, "in_K_u": cls.in_K_u,
            })
        standard = self._reps.get((n, c))
        if standard is None:
            standard = self._reps[(n, c)] = rep.rep_jet_standard(n, c)
        if verb == "rep-eval":
            g = jsonio.decode_jet(docs[0])
            return jsonio.document("matrix", {
                "m": standard.m, "base": jsonio.encode_base(g.base),
                "rows": jsonio.encode_matrix(rep.rep_eval(standard, g)),
            })
        return jsonio.document("rep_bound", {
            "m": standard.m, "n": n, "c": c,
            "weights": list(rep.rep_weights(standard)),
            "extension_order": rep.extension_order(standard),
            "factoring_order": rep.factoring_order(standard),
        })

    def _decode(self, doc):
        """The output document must decode with the reader for its kind."""
        jsonio = self.dj.jsonio
        kind = jsonio.document_kind(doc)
        if kind == "jet":
            jsonio.decode_jet(doc)
        elif kind == "derivation":
            jsonio.decode_derivation(doc)
        elif kind == "split":
            for key in ("constant_free", "linear", "unipotent"):
                jsonio.decode_jet(doc[key])
        elif kind == "matrix":
            base = jsonio.decode_base(doc["base"])
            for row in doc["rows"]:
                for x in row:
                    jsonio.decode_element(x, base)


# -- dense document generation (unit linear parts by construction) --------------------


def _nilpotent(rng, orders, max_terms=2):
    """A nonzero nilpotent element of Q[e]/(e^N)."""
    m = len(orders)
    out = {}
    while not out:
        for _ in range(rng.randint(1, max_terms)):
            exp = tuple(rng.randrange(N) for N in orders)
            if not any(exp):
                pick = rng.randrange(m)
                exp = tuple(int(i == pick) for i in range(m))
            out = ref.ring_add(out, {exp: _rational(rng, nonzero=True)})
    return out


def _unit_plus_nilpotent(rng, orders):
    return ref.ring_add({(0,) * len(orders): _rational(rng, nonzero=True)},
                        _nilpotent(rng, orders))


def _dense_jet(rng, n, c, orders, kind):
    """Every coefficient of degree <= c nonzero (constants only for kind G).

    The linear part is a rational triangular matrix with nonzero diagonal
    plus nilpotent entries everywhere, so its determinant is a unit; kind
    "Ku" has the identity linear part and no constants.
    """
    lower = rng.random() < 0.5
    comps = []
    for k in range(n):
        terms = {}
        if kind == "G":
            terms[(0,) * n] = _nilpotent(rng, orders)
        for l in range(n):
            J = _unit_index(n, l)
            if kind == "Ku":
                if l == k:
                    terms[J] = ref.ring_one(orders)
            elif l == k or (l < k) == lower:
                terms[J] = _unit_plus_nilpotent(rng, orders)
            else:
                terms[J] = _nilpotent(rng, orders)
        for J in _indices(n, 2, c):
            terms[J] = _unit_plus_nilpotent(rng, orders)
        comps.append(terms)
    return comps


def _dense_field(rng, n, c, orders, min_degree):
    return [{J: _unit_plus_nilpotent(rng, orders) for J in _indices(n, min_degree, c)}
            for _ in range(n)]


def _series_json(n, c, terms):
    return {"dim": n, "order": c, "terms": ref.terms_to_json(terms)}


def _jet_doc(n, c, base, comps):
    return {"schema": "discjet/1", "kind": "jet", "n": n, "c": c, "base": base,
            "components": [_series_json(n, c, f) for f in comps]}


def _derivation_doc(n, c, base, comps):
    return {"schema": "discjet/1", "kind": "derivation", "n": n, "c": c,
            "role": "derivation", "base": base,
            "components": [_series_json(n, c, f) for f in comps]}


def _roof_doc(rng, n, c, orders):
    """Legs P(t - w), Q(t - w) for dense G-jet-shaped polynomials P, Q.

    The value of a leg at w is P's constant (nilpotent) and its Jacobian
    there is P's linear part (a unit), so the roof is valid by construction.
    """
    w = [_nilpotent(rng, orders) for _ in range(n)]
    shift = [
        {_unit_index(n, k): ref.ring_one(orders),
         (0,) * n: {e: -q for e, q in w[k].items()}}
        for k in range(n)
    ]
    base = {"nilpotents": list(orders)}

    def leg():
        P = _dense_jet(rng, n, c, orders, "G")
        legs = ref.compose(P, shift, orders, c)
        return {"n": n, "base": base, "components": [ref.terms_to_json(f) for f in legs]}

    return {"schema": "discjet/1", "kind": "roof", "phi": leg(), "psi": leg(),
            "w": [ref.element_to_json(x) for x in w], "convention": "psi_after_phi_inverse"}


WORKLOADS = {cls.name: cls for cls in (GroupLaw, HopfSymbolic, CliBatch)}
