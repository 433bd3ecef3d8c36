import os
import pathlib
import re
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkline import named_datum, repring
from qkline.repring import (
    NotDivisible,
    NotInSubring,
    RingElt,
    exact_divide,
    from_pairs,
    parse_expression,
    rewrite_in_shifted_basis,
    to_pairs,
    weyl_act,
)
from qkline.rootsys import alpha_to_omega, positive_roots, reflect
from qkline.weyl import WeylGroup

A1 = named_datum("A1")
A2 = named_datum("A2")


def e(datum, *alpha):
    """Monomial e^{sum alpha_i} from simple-root coordinates."""
    return RingElt.monomial(datum.rank, alpha_to_omega(datum, alpha))


@st.composite
def ring_elts(draw, rank=2, max_terms=4, span=2):
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(-span, span) for _ in range(rank))),
                st.integers(-5, 5),
            ),
            max_size=max_terms,
        )
    )
    return RingElt.from_terms(rank, items)


def test_monomial_product_adds_exponents():
    x = e(A2, -1, 0)
    y = e(A2, 0, -1)
    assert x * y == e(A2, -1, -1)
    one = RingElt.one(2)
    assert (one - x) * x == x - e(A2, -2, 0)
    assert (one - x) * (one + x) == one - e(A2, -2, 0)


def test_add_negate():
    a = e(A2, -1, 0) - 2
    assert a + (-a) == RingElt.zero(2)
    assert not (a - a)
    assert (a + 3) - 3 == a


def test_equality_with_int_agrees_with_hash():
    # equal objects must hash equal, or sets and dicts keep both
    a, b = RingElt.one(2), 1
    assert a != b or hash(a) == hash(b)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        RingElt.one(1) + RingElt.one(2)
    with pytest.raises(ValueError):
        RingElt.one(1) * RingElt.one(2)


@settings(max_examples=150)
@given(ring_elts(), ring_elts(), ring_elts())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * RingElt.one(2) == a
    assert a + RingElt.zero(2) == a


@settings(max_examples=150)
@given(ring_elts(), ring_elts())
def test_exact_divide_recovers_factor(a, b):
    if not b:
        return
    assert exact_divide(a * b, b) == a


def test_exact_divide_examples():
    # (1 - e^{-2a}) / (1 - e^{-a}) = 1 + e^{-a}
    one = RingElt.one(1)
    x = e(A1, -1)
    assert exact_divide(one - e(A1, -2), one - x) == one + x
    assert exact_divide(RingElt.zero(1), one - x) == RingElt.zero(1)
    with pytest.raises(NotDivisible):
        exact_divide(RingElt.one(2) - e(A2, -1, 0), RingElt.one(2) - e(A2, 0, -1))
    with pytest.raises(ZeroDivisionError):
        exact_divide(one, RingElt.zero(1))


def test_exact_divide_checks_long_walks():
    m = lambda c: RingElt.monomial(3, c)  # noqa: E731
    one, step = m((0, 0, 0)), m((0, -1, 1))
    # 300 quotient terms pass the checks at 64, 128 and 256 terms
    assert len(exact_divide(one - m((0, -300, 300)), one - step)) == 300
    # near the edge of a field every term is checked, and exact quotients pass
    top = m((2**23 - 4, 0, 0))
    geometric = exact_divide(one - m((0, -9, 9)), one - step)
    assert exact_divide(top * (one - m((0, -9, 9))), one - step) == top * geometric


_HANGING_DIVISIONS = {
    "degree-0 drift": (
        "from qkline.repring import RingElt, exact_divide, NotDivisible\n"
        "m = lambda c: RingElt.monomial(3, c)\n"
        "try:\n"
        "    exact_divide(m((1, 0, -1)) - m((0, 5, -5)), m((0, 0, 0)) - m((0, -1, 1)))\n"
        "except NotDivisible:\n"
        "    print('raised')\n"
    ),
    "drift at the field edge": (
        "from qkline.repring import RingElt, exact_divide, NotDivisible\n"
        "m = lambda c: RingElt.monomial(3, c)\n"
        "x = 2**23 - 3\n"
        "try:\n"
        "    exact_divide(m((x, 0, -1)) - m((x - 1, 6, -5)), m((0, 0, 0)) - m((0, -1, 1)))\n"
        "except NotDivisible:\n"
        "    print('raised')\n"
    ),
    "class off the moment graph": (
        "from qkline import KTEngine, named_datum\n"
        "from qkline.ktheory import ExpansionError, KClass\n"
        "from qkline.repring import RingElt\n"
        "from qkline.rootsys import alpha_to_omega\n"
        "d = named_datum('A3')\n"
        "engine = KTEngine(d)\n"
        "value = RingElt.monomial(3, alpha_to_omega(d, (1, 0, 0))) - 1\n"
        "try:\n"
        "    engine.expand(KClass(d, {engine.W.identity: value}))\n"
        "except ExpansionError:\n"
        "    print('raised')\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_HANGING_DIVISIONS))
def test_division_that_is_not_exact_raises_without_hanging(name):
    # in a subprocess with a timeout: a walk that does not stop fails here instead of stalling the run;
    # each case raises in milliseconds, and took from 30 s to minutes when only the trailing bound was checked
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _HANGING_DIVISIONS[name]], capture_output=True, text=True, timeout=15, env=env
    )
    assert proc.stdout.strip() == "raised", proc.stderr[-500:]


def test_specialize_to_one():
    one = RingElt.one(2)
    assert (one - e(A2, -1, 0)).specialize_to_one() == 0
    assert e(A2, -1, -1).specialize_to_one() == 1
    assert (-e(A2, -1, 0)).specialize_to_one() == -1


@settings(max_examples=100)
@given(ring_elts(), ring_elts())
def test_specialize_is_ring_hom(a, b):
    assert (a + b).specialize_to_one() == a.specialize_to_one() + b.specialize_to_one()
    assert (a * b).specialize_to_one() == a.specialize_to_one() * b.specialize_to_one()


def test_weyl_act_examples():
    W = WeylGroup.for_datum(A1)
    s1 = W.simple(1)
    one = RingElt.one(1)
    assert weyl_act(s1, one - e(A1, -1)) == one - e(A1, 1)
    assert weyl_act(s1, one) == one
    W2 = WeylGroup.for_datum(A2)
    w0 = W2.longest()
    a = RingElt.one(2) - 3 * e(A2, -1, -2)
    assert weyl_act(w0, weyl_act(w0, a)) == a


@settings(max_examples=100)
@given(ring_elts(), ring_elts())
def test_weyl_act_is_ring_automorphism(a, b):
    W = WeylGroup.for_datum(A2)
    w = W.parse_word("12")
    assert weyl_act(w, a * b) == weyl_act(w, a) * weyl_act(w, b)
    assert weyl_act(w, a + b) == weyl_act(w, a) + weyl_act(w, b)
    assert weyl_act(w, a).specialize_to_one() == a.specialize_to_one()


def test_rewrite_in_shifted_basis():
    # e^{-a1} = 1 + y1
    assert rewrite_in_shifted_basis(e(A2, -1, 0), A2) == {(0, 0): 1, (1, 0): 1}
    assert rewrite_in_shifted_basis(RingElt.one(2) - e(A2, -1, 0), A2) == {(1, 0): -1}
    assert rewrite_in_shifted_basis(e(A2, -1, -1), A2) == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (1, 1): 1,
    }
    with pytest.raises(NotInSubring):
        rewrite_in_shifted_basis(e(A2, 1, 0), A2)
    with pytest.raises(NotInSubring):
        rewrite_in_shifted_basis(RingElt.monomial(2, (1, 0)), A2)  # omega_1 not in root lattice


@settings(max_examples=60)
@given(ring_elts(span=1))
def test_rewrite_roundtrip(a):
    # restrict to the nonpositive cone by shifting with a deep monomial
    shift = e(A2, -2, -2)
    val = a.map_exponents(lambda c: tuple(min(x, 0) for x in c))  # not a hom; just builds data
    val = val * shift
    try:
        poly = rewrite_in_shifted_basis(val, A2)
    except NotInSubring:
        return
    y1 = e(A2, -1, 0) - 1
    y2 = e(A2, 0, -1) - 1
    total = RingElt.zero(2)
    for (k1, k2), coeff in poly.items():
        term = RingElt.one(2) * coeff
        for _ in range(k1):
            term = term * y1
        for _ in range(k2):
            term = term * y2
        total = total + term
    assert total == val


def test_serialization_roundtrip_and_order():
    a = RingElt.one(2) - e(A2, -1, 0) + 2 * e(A2, -1, -1)
    pairs = to_pairs(a, A2)
    assert pairs == [[[-1, -1], 2], [[-1, 0], -1], [[0, 0], 1]]
    assert from_pairs(A2, pairs) == a
    # weight outside the root lattice falls back to omega coordinates
    b = RingElt.monomial(2, (1, 0))
    assert to_pairs(b, A2) == [[[1, 0], 1]]
    assert from_pairs(A2, to_pairs(b, A2), basis="omega") == b


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: RingElt.monomial(2, (0, 0), 2.5), "2.5"),
        (lambda: RingElt.monomial(2, (0, 0), 0.0), "0.0"),
        (lambda: RingElt.from_terms(2, [((0, 0), 2.9)]), "2.9"),
        (lambda: from_pairs(A2, [[[1.9, 0], 1]]), "1.9"),
        (lambda: from_pairs(A2, [[[1, 0], 1.5]]), "1.5"),
    ],
)
def test_exponents_and_coefficients_are_integers_only(build, named):
    with pytest.raises(TypeError, match=re.escape(f"{named} is not an integer")):
        build()


@pytest.mark.parametrize(
    "build, coords",
    [
        (lambda: RingElt.from_terms(2, [((1, 0, 5), 1)]), (1, 0, 5)),
        (lambda: RingElt.from_terms(2, [((1,), 1)]), (1,)),
        (lambda: RingElt.monomial(2, (1, 0)).map_exponents(lambda lam: lam + (0,)), (1, 0, 0)),
        (lambda: from_pairs(A2, [[[1, 0, 5], 1]]), (1, 0, 5)),
        (lambda: from_pairs(A2, [[[1, 0, 5], 1]], basis="omega"), (1, 0, 5)),
    ],
    ids=["from_terms-long", "from_terms-short", "map_exponents", "from_pairs-alpha", "from_pairs-omega"],
)
def test_exponents_of_the_wrong_length_are_refused(build, coords):
    with pytest.raises(ValueError, match=re.escape(str(coords)) + " do(es)? not have length 2"):
        build()


def test_from_pairs_refuses_unknown_bases():
    with pytest.raises(ValueError, match="'alhpa'"):
        from_pairs(A2, [[[1, 0], 1]], basis="alhpa")


def test_parse_expression():
    assert parse_expression(A2, "1-e(-a1)") == RingElt.one(2) - e(A2, -1, 0)
    assert parse_expression(A2, "(1-e(-a1))*(1+e(-a1))") == RingElt.one(2) - e(A2, -2, 0)
    assert parse_expression(A2, "-e(-2a1-a2)") == -e(A2, -2, -1)
    assert parse_expression(A2, "- (1 - e(-a1-a2) - e(-2a1-a2))") == -(
        RingElt.one(2) - e(A2, -1, -1) - e(A2, -2, -1)
    )
    assert parse_expression(A2, "3*e(a1)") == 3 * e(A2, 1, 0)
    assert parse_expression(A2, "e(-2 a1)") == e(A2, -2, 0)
    for text, message in [
        ("e(-a3)", "out of range"), ("q1", "unknown symbol"), ("e2", "unknown symbol"),
        ("1e3", "unknown symbol"), ("a1", "parse error"), ("$", "unexpected character"),
        # digits are ASCII: a superscript, an Arabic-Indic and a fullwidth digit
        ("\u00b2", "unexpected character"), ("\u0663", "unexpected character"),
        ("3*e(a\uff11)", "unexpected character"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_expression(A2, text)


def test_format_elt():
    assert repring.format_elt(RingElt.zero(2), A2) == "0"
    assert repring.format_elt(RingElt.one(2) - e(A2, -1, 0), A2) == "1 - e^{-a1}"
    assert repring.format_elt(-e(A2, -1, -1), A2) == "-e^{-a1-a2}"
    assert repring.format_elt(2 * e(A2, -2, -1), A2) == "2e^{-2a1-a2}"
    assert repring.format_elt(RingElt.monomial(2, (1, 0)), A2) == "e^{w1}"
    # root terms by descending height, then the terms off the root lattice
    mixed = 3 * RingElt.monomial(2, (1, 0)) + e(A2, -1, -1) - RingElt.monomial(2, (0, -1))
    mixed = mixed + RingElt.one(2) - e(A2, -1, 0) + e(A2, 1, 0)
    assert repring.format_elt(mixed, A2) == "e^{a1} + 1 - e^{-a1} + e^{-a1-a2} - e^{-w2} + 3e^{w1}"


def test_packed_order_is_graded_lex():
    # the packed integer order must sort by total degree first
    lo = repring._pack(2, (1, 1))
    hi = repring._pack(2, (3, 0))
    assert hi > lo
    assert repring._unpack(2, hi) == (3, 0)
    assert repring._pack(2, (0, 0)) == repring._codec(2)[2]


_EDGE = 1 << 23  # each packed exponent coordinate is a 24-bit field
_edge_coord = st.one_of(
    st.integers(-_EDGE - 2, -_EDGE + 2), st.integers(_EDGE - 3, _EDGE + 2), st.integers(-2, 2)
)


def test_packed_exponent_overflow_raises():
    with pytest.raises(ValueError, match="outside"):
        RingElt.monomial(2, (2**23, 0))
    assert RingElt.monomial(2, (2**23 - 1, -(2**23))).terms() == [((2**23 - 1, -(2**23)), 1)]


@settings(max_examples=200)
@given(st.tuples(_edge_coord, _edge_coord))
def test_packed_exponents_round_trip_or_raise_at_field_edges(coords):
    builders = (
        lambda: RingElt.monomial(2, coords),
        lambda: RingElt.from_terms(2, [(coords, 3)]),
        lambda: RingElt.one(2).map_exponents(lambda lam: coords),
    )
    for build in builders:
        if all(-_EDGE <= c < _EDGE for c in coords):
            assert [lam for lam, _ in build().terms()] == [coords]
        else:
            with pytest.raises(ValueError, match="outside"):
                build()


def test_product_and_quotient_overflow_raise():
    m = RingElt.monomial(2, (2**22, 0))
    with pytest.raises(ValueError, match="outside"):
        m * m
    with pytest.raises(ValueError, match="outside"):
        exact_divide(m, RingElt.monomial(2, (-(2**23) + 1, 0)))
    # near the edge but representable: different axes, or a cancelling axis
    assert (m * RingElt.monomial(2, (0, 2**22))).terms() == [((2**22, 2**22), 1)]
    big = RingElt.monomial(2, (3 * 2**21, 0))
    back = RingElt.monomial(2, (-3 * 2**21, 5))
    assert (big * back).terms() == [((0, 5), 1)]
    assert exact_divide(big * back, back) == big


@settings(max_examples=200)
@given(st.tuples(_edge_coord, _edge_coord), st.tuples(_edge_coord, _edge_coord))
def test_products_and_quotients_round_trip_or_raise_at_field_edges(x, y):
    def fits(coords):
        return all(-_EDGE <= c < _EDGE for c in coords)

    if not (fits(x) and fits(y)):
        return
    a = RingElt.monomial(2, x) * RingElt.one(2)
    b = RingElt.monomial(2, y)
    for build, want in (
        (lambda: a * b, tuple(p + q for p, q in zip(x, y))),
        (lambda: exact_divide(a, b), tuple(p - q for p, q in zip(x, y))),
    ):
        if fits(want):
            assert [lam for lam, _ in build().terms()] == [want]
        else:
            with pytest.raises(ValueError, match="outside"):
                build()


@settings(max_examples=200)
@given(
    st.sampled_from(["A2", "B2", "G2"]), st.sampled_from([1, 2]), ring_elts(), st.tuples(_edge_coord, _edge_coord)
)
def test_simple_reflection_matches_weyl_act_or_raises_at_field_edges(label, k, a, x):
    datum = named_datum(label)
    s_k = WeylGroup.for_datum(datum).simple(k)
    reference = partial(reflect, datum, k)  # the checked route, one exponent tuple at a time
    assert repring.simple_reflection(a, datum, k) == weyl_act(s_k, a) == a.map_exponents(reference)

    def fits(coords):
        return all(-_EDGE <= c < _EDGE for c in coords)

    if not fits(x):
        return
    want = reference(x)
    m = RingElt.monomial(2, x, 3)
    builds = [lambda: repring.simple_reflection(m, datum, k), lambda: weyl_act(s_k, m)]
    if fits(want):
        # a caller-proved bound takes the packed path right up to the edge
        builds.append(lambda: repring.simple_reflection(m, datum, k, max(map(abs, want))))
        for build in builds:
            assert build().terms() == [(want, 3)]
    else:
        for build in builds:
            with pytest.raises(ValueError, match="outside"):
                build()


_ROOTS_IN_WEIGHT_COORDS = [
    alpha_to_omega(named_datum(label), beta)
    for label in ("A2", "B2", "G2")
    for beta in positive_roots(named_datum(label))
]


@settings(max_examples=300)
@given(st.sampled_from(_ROOTS_IN_WEIGHT_COORDS), ring_elts(), st.tuples(_edge_coord, _edge_coord), st.booleans())
def test_divides_one_minus_e_matches_exact_division(beta, a, x, times_divisor):
    # a shift x at the field edge sends the test to exact_divide, a small one to the packed path;
    # a stays within a few steps of e^x, so exact_divide's walk is short
    divisor = RingElt.one(2) - RingElt.monomial(2, beta)
    try:
        a = a * RingElt.monomial(2, x)
        if times_divisor:
            a = a * divisor
    except ValueError:  # x or the product leaves the packed fields; test what was built
        pass
    try:
        exact_divide(a, divisor)
        slow = True
    except NotDivisible:
        slow = False
    assert repring.divides_one_minus_e(a, beta) == slow


@pytest.mark.parametrize(
    "a, beta, expected",
    [
        pytest.param(
            RingElt.monomial(4, (2, 1, -_EDGE, _EDGE - 2)) - RingElt.monomial(4, (0, 0, _EDGE - 1, -_EDGE)),
            (1, 0, 1, -1),
            False,
            id="A4-moved-keys-collide",
        ),
        pytest.param(
            RingElt.monomial(4, (2, 1, 5 - _EDGE, _EDGE - 7)) - RingElt.monomial(4, (3, 1, 6 - _EDGE, _EDGE - 8)),
            (1, 0, 1, -1),
            True,
            id="A4-divisible",
        ),
    ],
)
def test_divides_one_minus_e_at_the_field_edge_on_rank_4(a, beta, expected):
    # beta = a1+a2+a3 of A4 in weight coordinates.  In the first row the two exponents lie in
    # different cosets modulo Z*beta, yet their moved packed keys coincide, so a packed sum would
    # cancel them; only the exact_divide route above the bound answers it
    assert repring.divides_one_minus_e(a, beta) is expected


def test_divides_one_minus_e_at_the_field_edge_needs_no_division(monkeypatch):
    # beta = alpha_1 of A2; 1 - e^{2**21 beta} is divisible, with a quotient of 2**21 terms
    def refuse(*_):
        raise AssertionError("exact_divide called")

    monkeypatch.setattr(repring, "exact_divide", refuse)
    a = RingElt.one(2) - RingElt.monomial(2, (2**22, -(2**21)))
    assert repring.divides_one_minus_e(a, (2, -1)) is True
    assert repring.divides_one_minus_e(a - RingElt.monomial(2, (1, 0)), (2, -1)) is False


@pytest.mark.parametrize(
    "a, beta, error, match",
    [
        pytest.param(RingElt.one(2) - RingElt.monomial(2, (1, 1)), (1, 1, 5), ValueError, "length 2", id="long"),
        pytest.param(RingElt.one(2) - RingElt.monomial(2, (1, 0)), (1,), ValueError, "length 2", id="short"),
        pytest.param(RingElt.zero(2), (1,), ValueError, "length 2", id="short-zero-element"),
        pytest.param(RingElt.one(2), (0, 0), ZeroDivisionError, "zero", id="zero-root"),
        pytest.param(RingElt.zero(2), (0, 0), ZeroDivisionError, "zero", id="zero-root-zero-element"),
    ],
)
def test_divides_one_minus_e_refuses_a_root_of_the_wrong_length_or_zero(a, beta, error, match):
    # zip used to truncate the longer tuple, and beta = 0 raised a bare StopIteration
    with pytest.raises(error, match=match):
        repring.divides_one_minus_e(a, beta)
