"""The packed-monomial Polynomial engine against the tuple-monomial oracle.

Also pins what packing must not change: output bytes that do not depend on
the order variables were first registered in, the exponent limit, and the
text of scripts/composition_table.py.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from discjet.errors import PreconditionError
from discjet.hopf import MAX_EXPONENT, Polynomial
from discjet.jsonio import decode_polynomial, encode_polynomial, render
from oracles import (
    tuple_poly_add,
    tuple_poly_encode,
    tuple_poly_evaluate,
    tuple_poly_mul,
    tuple_poly_substitute,
    tuple_var_key,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))

variables = st.tuples(
    st.sampled_from("abc"),
    st.integers(0, 1),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda J: sum(J) >= 1),
)
coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def polynomials(draw):
    """A Polynomial built from variables and constants, with its oracle twin."""
    terms = draw(
        st.lists(
            st.tuples(st.dictionaries(variables, st.integers(1, 3), max_size=3), coefficients),
            max_size=5,
        )
    )
    poly, oracle = Polynomial.zero(), {}
    for exps, q in terms:
        mono = tuple(sorted(exps.items(), key=lambda ve: tuple_var_key(ve[0])))
        oracle = tuple_poly_add(oracle, {mono: F(q)})
        term = Polynomial.constant(q)
        for (a, k, J), e in exps.items():
            term = term * Polynomial.variable(a, k, J, e)
        poly = poly + term
    return poly, oracle


def as_tuples(p):
    """The Polynomial in oracle form; also checks the coefficient invariant."""
    for q in p.terms.values():
        assert q and (type(q) is int or (type(q) is F and q.denominator != 1)), q
    return {mono: F(q) for mono, q in p.sorted_terms()}


@given(polynomials(), polynomials())
def test_ring_operations_match_oracle(x, y):
    (p, po), (q, qo) = x, y
    assert as_tuples(p) == po
    assert as_tuples(p * q) == tuple_poly_mul(po, qo)
    assert as_tuples(p + q) == tuple_poly_add(po, qo)
    assert as_tuples(p - q) == tuple_poly_add(po, {m: -c for m, c in qo.items()})
    assert as_tuples(p * F(3, 2)) == tuple_poly_mul(po, {(): F(3, 2)})


@given(polynomials(), polynomials())
def test_substitute_matches_oracle(x, image):
    (p, po), (img, imgo) = x, image
    half = F(1, 2)

    def mapping(v):
        return {"a": img, "b": None, "c": Polynomial.constant(half)}[v[0]]

    def oracle_mapping(v):
        return {"a": imgo, "b": None, "c": {(): half}}[v[0]]

    assert as_tuples(p.substitute(mapping)) == tuple_poly_substitute(po, oracle_mapping)


@given(polynomials())
def test_evaluate_matches_oracle(x):
    p, po = x

    def assign(v):
        a, k, J = v
        return F("abc".index(a) + 2 * k + J[0] - J[1], 1 + sum(J))

    assert p.evaluate(assign, F(1), F(0)) == tuple_poly_evaluate(po, assign)


@given(polynomials())
def test_encoding_matches_oracle(x):
    p, po = x
    assert render(encode_polynomial(p)) == render(tuple_poly_encode(po))
    assert decode_polynomial(encode_polynomial(p), 2) == p
    assert p.variables() == {v for mono in po for v, _ in mono}


# -- the variable registry -----------------------------------------------------------


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_does_not_depend_on_registry_order():
    """Fill the registry with other shapes first, and the n=1 variables of
    coproduct(1, 4) against their output order, in a fresh process."""
    out = run_python(
        "import sys\n"
        "from discjet.hopf import Polynomial, antipode, coproduct\n"
        "from discjet.jsonio import coproduct_document, decode_polynomial, encode_polynomial, render\n"
        "coproduct(3, 3)\n"
        "antipode(2, 3)\n"
        "for a in 'cb':\n"
        "    for d in range(4, 0, -1):\n"
        "        Polynomial.variable(a, 0, (d,))\n"
        "sys.stdout.write(render(coproduct_document(1, 4)))\n"
        "for p in list(coproduct(2, 2).values()) + list(coproduct(1, 4).values()):\n"
        "    n = len(next(iter(p.variables()))[2])\n"
        "    assert decode_polynomial(encode_polynomial(p), n) == p\n"
    )
    golden = (SRC / "discjet" / "golden" / "coproduct_n1_c4.json").read_text("utf-8")
    assert out == golden


def test_decoded_file_equals_recomputation_when_decoded_first():
    """Variables first registered by decoding a file, in the file's order."""
    golden = SRC / "discjet" / "golden" / "coproduct_n1_c4.json"
    out = run_python(
        "import json, sys\n"
        "from discjet.jsonio import coproduct_document, decode_polynomial, render\n"
        "from discjet.hopf import coproduct\n"
        f"doc = json.load(open({str(golden)!r}, encoding='utf-8'))\n"
        "decoded = {(e['k'], tuple(e['J'])): decode_polynomial(e['value'], 1) for e in doc['entries']}\n"
        "assert decoded == coproduct(1, 4)\n"
        "sys.stdout.write(render(coproduct_document(1, 4)))\n"
    )
    assert out == golden.read_text("utf-8")


# -- the exponent limit --------------------------------------------------------------


def test_exponent_limit():
    x = Polynomial.variable("a", 0, (1,))
    y = Polynomial.variable("a", 0, (2,), MAX_EXPONENT)
    top = x**MAX_EXPONENT * y
    assert top.sorted_terms() == [
        (((("a", 0, (1,)), MAX_EXPONENT), (("a", 0, (2,)), MAX_EXPONENT)), 1)
    ]
    with pytest.raises(PreconditionError, match="exponent"):
        x ** (MAX_EXPONENT + 1)
    with pytest.raises(PreconditionError, match="exponent"):
        top * (x + 1)
    with pytest.raises(PreconditionError, match="exponent"):
        Polynomial.variable("a", 0, (1,), MAX_EXPONENT + 1)


def test_exponent_limit_when_decoding():
    def term(*exponents):
        return [{"vars": [{"alphabet": "a", "k": 0, "J": [1], "e": e} for e in exponents], "coef": "1"}]

    assert decode_polynomial(term(100, 27), 1) == Polynomial.variable("a", 0, (1,), 127)
    for exponents in [(MAX_EXPONENT + 1,), (64, 64), (100, 100, 100)]:
        with pytest.raises(PreconditionError, match="exponent"):
            decode_polynomial(term(*exponents), 1)


def _rep_document(exponent):
    """A 1x1 representation (n=1, c=2) whose entry is (a_2)^exponent."""
    entry = {"num": [{"vars": [{"alphabet": "a", "k": 0, "J": [2], "e": exponent}], "coef": "1"}], "det_power": 0}
    return {"schema": "discjet/1", "kind": "representation", "m": 1, "n": 1, "c": 2,
            "weights": [exponent], "entries": [[entry]]}


@pytest.mark.parametrize("exponent", [64, MAX_EXPONENT + 1])
def test_cli_exits_3_on_exponent_overflow(tmp_path, exponent):
    """Delta(a_2)^64 holds (c_1)^128: the product overflows, not the input."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_rep_document(exponent)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "discjet.cli", "rep-check", "--in", str(path)],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 3
    assert "exponent exceeds the limit 127" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- tooling -------------------------------------------------------------------------


def test_composition_table_script_output_is_frozen():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "composition_table.py")],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "composition_table.txt").read_text("utf-8")
