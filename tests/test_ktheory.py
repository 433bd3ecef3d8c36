import itertools
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from qkline import ExpansionError, KTEngine, named_datum, qklines, repring, weyl
from qkline.ktheory import KClass, SchubertExpansion
from qkline.repring import RingElt, parse_expression
from qkline.rootsys import alpha_to_omega, positive_roots, reflect


def elt(engine, text):
    return parse_expression(engine.datum, text)


def expansion_strs(exp, engine):
    return {
        w.word_str: repring.format_elt(c, engine.datum) for w, c in exp.coeffs.items()
    }


# -- Schubert classes ---------------------------------------------------------


def test_identity_class_is_constant_one(engine):
    for label in ("A1", "A2", "C2"):
        e = engine(label)
        cls = e.schubert_class(e.W.identity)
        one = e.ring_one()
        assert all(cls.value(w) == one for w in e.W.elements())


def test_a1_point_class_frozen_values(engine):
    e = engine("A1")
    s1 = e.W.simple(1)
    cls = e.schubert_class(s1)
    assert cls.value(e.W.identity) == e.ring_zero()
    assert cls.value(s1) == elt(e, "1-e(-a1)")


def test_a2_divisor_class_frozen_values(engine):
    # values derived by running the descending recursion by hand
    e = engine("A2")
    W = e.W
    cls = e.schubert_class(W.simple(1))
    expected = {
        "e": "0",
        "1": "1 - e^{-a1}",
        "2": "0",
        "12": "1 - e^{-a1}",
        "21": "1 - e^{-a1-a2}",
        "121": "1 - e^{-a1-a2}",
    }
    got = {w.word_str: repring.format_elt(cls.value(w), e.datum) for w in W.elements()}
    assert got == expected


def test_divisor_class_closed_form(engine):
    # independent oracle: O^{s_i}|_w = 1 - e^{w(omega_i) - omega_i}
    for label in ("A2", "C2", "G2"):
        e = engine(label)
        n = e.datum.rank
        for i in range(1, n + 1):
            cls = e.schubert_class(e.W.simple(i))
            omega = tuple(1 if j == i - 1 else 0 for j in range(n))
            for w in e.W.elements():
                w_omega = omega
                for k in reversed(w.word):  # the simple reflections of the word, right to left
                    w_omega = reflect(e.datum, k, w_omega)
                shift = tuple(a - b for a, b in zip(w_omega, omega))
                expected = e.ring_one() - RingElt.monomial(n, shift)
                assert cls.value(w) == expected


def test_triangularity_and_diagonal(engine):
    for label in ("A2", "C2"):
        e = engine(label)
        for v in e.W.elements():
            cls = e.schubert_class(v)
            for w in e.W.elements():
                if not weyl.bruhat_leq(v, w):
                    assert not cls.value(w), (label, v.word_str, w.word_str)
            assert cls.value(v) == e.diagonal_value(v)


def test_full_flag_classes_at_b4_size():
    # no other test builds the full-flag classes of a group past B3 or D4; 384 points here
    e = KTEngine(named_datum("B4"))
    els = e.W.elements()
    assert len(els) == 384
    for v in els:
        cls = e.schubert_class(v)
        assert cls.value(v) == e.diagonal_value(v), v.word_str
        assert all(weyl.bruhat_leq(v, x) for x in cls.restrictions), v.word_str
    for v in (e.W.simple(1), e.W.simple(4), e.W.longest()):
        assert not e.gkm_violations(e.schubert_class(v)), v.word_str


def test_diagonal_formula_via_inversions(engine):
    e = engine("C2")
    w0 = e.W.longest()
    expected = e.ring_one()
    for beta in positive_roots(e.datum):
        neg = tuple(-x for x in alpha_to_omega(e.datum, beta))
        expected = expected * (e.ring_one() - RingElt.monomial(2, neg))
    assert e.diagonal_value(w0) == expected


def test_gkm_condition_for_all_classes(engine):
    for label in ("A2", "C2", "G2"):
        e = engine(label)
        for v in e.W.elements():
            assert not e.gkm_violations(e.schubert_class(v))


def test_gkm_violations_are_point_and_root_tuple_pairs(engine):
    e = engine("A2")
    bump = KClass(e.datum, {e.W.identity: e.ring_one()})  # 1 at e, 0 elsewhere
    assert e.gkm_violations(bump) == [(e.W.identity, beta) for beta in [(1, 0), (0, 1), (1, 1)]]


def test_gkm_violations_test_each_edge_once_from_its_shorter_end(engine):
    # 1 everywhere, but at e a value that fails only the edge (e, s_1); the class is stored longest point first
    e = engine("A2")
    cls = {w: e.ring_one() for w in reversed(e.W.elements())}
    cls[e.W.identity] = elt(e, "1 + (1-e(a2))*(1-e(a1+a2))")
    assert list(cls)[-1] is e.W.identity
    assert e.gkm_violations(KClass(e.datum, cls)) == [(e.W.identity, (1, 0))]


@pytest.mark.parametrize(
    "op",
    [
        lambda e, cls: e.gkm_violations(cls),
        lambda e, cls: e.multiply(e.schubert_class(e.W.identity), cls),
        lambda e, cls: e.multiply(cls, e.schubert_class(e.W.identity)),
        lambda e, cls: e.expand(cls),
    ],
    ids=["gkm_violations", "multiply", "multiply-swapped", "expand"],
)
def test_class_operations_refuse_a_point_of_another_group_of_the_same_datum(engine, op):
    # multiply answered {} and expand reported leftover support at e; the
    # moment-graph lookup of gkm_violations once missed it with a bare KeyError
    e = engine("A2")
    foreign = weyl.WeylGroup(named_datum("A2"))
    with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A2"):
        op(e, KClass(e.datum, {foreign.identity: e.ring_one()}))


@pytest.mark.parametrize(
    "op",
    [
        lambda e, cls: e.multiply(cls, cls),
        lambda e, cls: e.multiply(e.schubert_class(e.W.identity, cls.parabolic), cls),
        lambda e, cls: e.expand(cls),
    ],
    ids=["multiply", "multiply-swapped", "expand"],
)
def test_class_operations_refuse_a_point_outside_wp_of_its_quotient(engine, op):
    # s1 is no point of G/P for P = {1}: the square stored 1 at s1, where value(s1)
    # reads 0, and expand reported leftover support at 1
    e = engine("A3")
    with pytest.raises(ValueError, match=re.escape("1 is not a minimal representative for [1]")):
        op(e, KClass(e.datum, {e.W.simple(1): e.ring_one()}, frozenset({1})))


def test_demazure_refuses_a_point_of_another_group_of_the_same_datum(engine):
    # it answered {s1: 1} for the foreign s1, where the engine's own s1 gives {s1: 1, e: 1}
    e = engine("A2")
    for group in (e.W, weyl.WeylGroup(named_datum("A2"))):
        s1 = group.simple(1)
        t = RingElt.monomial(2, alpha_to_omega(e.datum, s1.table[0]))  # e^{s1(alpha_1)}
        if group is e.W:
            cls = KClass(e.datum, {s1: e.ring_one() - t})
            assert e.demazure(cls, 1).restrictions == {s1: e.ring_one(), e.W.identity: e.ring_one()}
        else:
            with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A2"):
                e.demazure(KClass(e.datum, {s1: e.ring_one() - t}), 1)


def test_demazure_consistency(engine):
    # the moment-graph operator reproduces the Hecke move on basis indices;
    # the classes come from the left recursion, so two constructions meet
    for label in ("A2", "C2", "G2", "B3"):
        e = engine(label)
        for v in e.W.elements():
            for k in range(1, e.rank + 1):
                moved = e.demazure(e.schubert_class(v), k)
                expected = e.schubert_class(weyl.hecke_down(v, k))
                assert moved.restrictions == expected.restrictions


def test_demazure_idempotent(engine):
    e = engine("A2")
    cls = e.multiply(e.schubert_class(e.W.simple(1)), e.schubert_class(e.W.simple(2)))
    once = e.demazure(cls, 1)
    assert e.demazure(once, 1).restrictions == once.restrictions


# -- opposite classes --------------------------------------------------------


def test_opposite_class_examples(engine):
    e = engine("A1")
    w0 = e.W.longest()
    assert e.opposite_schubert_class(w0).restrictions == {
        e.W.identity: e.ring_one(),
        w0: e.ring_one(),
    }
    o_id = e.opposite_schubert_class(e.W.identity)
    assert o_id.value(e.W.identity) == elt(e, "1-e(a1)")
    assert not o_id.value(w0)


def test_opposite_class_demazure_raises_index(engine):
    for label in ("A2", "C2"):
        e = engine(label)
        for w in e.W.elements():
            for k in range(1, e.rank + 1):
                moved = e.demazure(e.opposite_schubert_class(w), k)
                expected = e.opposite_schubert_class(weyl.hecke_up(w, k))
                assert moved.restrictions == expected.restrictions


def test_opposite_class_triangularity(engine):
    e = engine("A2")
    for w in e.W.elements():
        cls = e.opposite_schubert_class(w)
        for u in e.W.elements():
            if not weyl.bruhat_leq(u, w):
                assert not cls.value(u)


# -- products and expansion -----------------------------------------------------


def test_multiply_pointwise(engine):
    e = engine("A1")
    s1 = e.W.simple(1)
    c = e.schubert_class(s1)
    sq = e.multiply(c, c)
    assert sq.value(e.W.identity) == e.ring_zero()
    assert sq.value(s1) == elt(e, "(1-e(-a1))*(1-e(-a1))")
    one_cls = e.schubert_class(e.W.identity)
    assert e.multiply(one_cls, c).restrictions == c.restrictions


def test_expand_of_basis_class_is_delta(engine):
    for label in ("A2", "C2"):
        e = engine(label)
        for v in e.W.elements():
            exp = e.expand(e.schubert_class(v))
            assert exp.coeffs == {v: e.ring_one()}


def test_expand_reference_rows(engine):
    e = engine("A2")
    W = e.W
    s1, s2 = W.simple(1), W.simple(2)
    sq = e.expand(e.multiply(e.schubert_class(s1), e.schubert_class(s1)))
    assert expansion_strs(sq, e) == {"1": "1 - e^{-a1}", "21": "e^{-a1}"}
    mixed = e.expand(e.multiply(e.schubert_class(s1), e.schubert_class(s2)))
    assert expansion_strs(mixed, e) == {"12": "1", "21": "1", "121": "-1"}


def test_expand_not_in_span_raises(engine):
    e = engine("A2")
    # a class on G/{2} whose value at s1 is not a multiple of O^{s1}|_{s1}
    on_quotient = KClass(e.datum, {e.W.simple(1): e.ring_one()}, frozenset({2}))
    with pytest.raises(ExpansionError, match="not divisible"):
        e.expand(on_quotient)
    # a value at s2, which is not a point of G/{2}, is refused when the class is built
    with pytest.raises(ValueError, match=re.escape("2 is not a minimal representative for [2]")):
        e.expand(KClass(e.datum, {e.W.simple(2): e.ring_one()}, frozenset({2})))
    # a function violating divisibility fails during the solve
    broken = KClass(e.datum, {e.W.simple(1): e.ring_one()})
    with pytest.raises(ExpansionError):
        e.expand(broken)


def test_structure_constants_examples(engine):
    e = engine("A2")
    W = e.W
    s1 = W.simple(1)
    v = W.parse_word("21")
    assert e.structure_constants(W.identity, v).coeffs == {v: e.ring_one()}
    onp = e.structure_constants(s1, s1, {2})
    assert expansion_strs(onp, e) == {"1": "1 - e^{-a1}", "21": "e^{-a1}"}

    c2 = engine("C2")
    s2 = c2.W.simple(2)
    row = c2.structure_constants(s2, s2)
    assert expansion_strs(row, c2) == {
        "2": "1 - e^{-a2}",
        "12": "e^{-a2} + e^{-a1-a2}",
        "212": "-e^{-a1-a2}",
    }


def test_structure_constants_membership_gate(engine):
    e = engine("A2")
    with pytest.raises(ValueError):
        e.structure_constants(e.W.simple(2), e.W.simple(1), {2})


def test_support_theorem(engine):
    # products of minimal representatives expand inside the representatives
    for label in ("A2", "C2", "A3"):
        e = engine(label)
        n = e.rank
        for r in range(1, n + 1):
            for p in itertools.combinations(range(1, n + 1), r):
                reps = weyl.enumerate_wp(e.W, p)
                rep_set = set(reps)
                for u, v in itertools.combinations_with_replacement(reps, 2):
                    exp = e.structure_constants(u, v)
                    assert set(exp.coeffs) <= rep_set


def test_structure_constants_commutative_and_associative(engine):
    for label in ("A2", "C2"):
        e = engine(label)
        els = e.W.elements()
        for u, v in itertools.combinations(els, 2):
            assert e.structure_constants(u, v).coeffs == e.structure_constants(v, u).coeffs
        for u, v, w in itertools.combinations(els, 3):
            ab = e.schubert_class_of_expansion(e.structure_constants(u, v))
            left = e.expand(e.multiply(ab, e.schubert_class(w)))
            bc = e.schubert_class_of_expansion(e.structure_constants(v, w))
            right = e.expand(e.multiply(e.schubert_class(u), bc))
            assert left.coeffs == right.coeffs


def test_products_satisfy_gkm(engine):
    for label in ("A2", "C2"):
        e = engine(label)
        els = e.W.elements()
        for u, v in itertools.combinations_with_replacement(els, 2):
            prod = e.multiply(e.schubert_class(u), e.schubert_class(v))
            assert not e.gkm_violations(prod)


# -- divided difference, pushforward, pullback ------------------------------------


def test_divided_difference_examples(engine):
    e = engine("A2")
    W = e.W
    from qkline.ktheory import SchubertExpansion

    s1, s2 = W.simple(1), W.simple(2)
    one = e.ring_one()
    d = e.divided_difference(SchubertExpansion(e.datum, {s1: one}), 1)
    assert d.coeffs == {W.identity: one}
    d = e.divided_difference(SchubertExpansion(e.datum, {s2: one}), 1)
    assert d.coeffs == {s2: one}
    a, b = elt(e, "e(-a1)"), elt(e, "1-e(-a2)")
    lin = e.divided_difference(SchubertExpansion(e.datum, {s1: a, W.parse_word("21"): b}), 1)
    assert lin.coeffs == {W.identity: a, s2: b}
    twice = e.divided_difference(lin, 1)
    assert twice.coeffs == lin.coeffs
    with pytest.raises(ValueError):
        e.divided_difference(SchubertExpansion(e.datum, {s1: one}, frozenset({2})), 1)


def test_pushforward_pullback(engine):
    e = engine("A2")
    W = e.W
    from qkline.ktheory import SchubertExpansion

    one = e.ring_one()
    exp = SchubertExpansion(e.datum, {W.parse_word("12"): one})
    pushed = e.pushforward(exp, {2})
    assert pushed.coeffs == {W.simple(1): one}
    over_q = SchubertExpansion(e.datum, {W.parse_word("21"): one, W.identity: one}, frozenset({2}))
    assert e.pushforward(e.pullback(over_q, ()), {2}).coeffs == over_q.coeffs
    assert e.pushforward(SchubertExpansion(e.datum, {W.identity: one}), {2}).coeffs == {W.identity: one}
    with pytest.raises(ValueError):
        e.pullback(exp, {2})
    with pytest.raises(ValueError, match="pushforward needs a containing parabolic"):
        e.pushforward(over_q, {1})


def test_euler_characteristic(engine):
    e = engine("A2")
    from qkline.ktheory import SchubertExpansion

    w = e.W.parse_word("12")
    assert e.euler_characteristic(SchubertExpansion(e.datum, {w: e.ring_one()})) == e.ring_one()
    s1 = e.W.simple(1)
    sq = e.structure_constants(s1, s1)
    assert e.euler_characteristic(sq) == e.ring_one()
    assert e.euler_characteristic(SchubertExpansion(e.datum, {})) == e.ring_zero()


def _localization_integral(e, cls):
    """Independent fixed-point oracle over the rational function field."""
    import sympy

    n = e.rank
    xs = sympy.symbols(f"x1:{n + 1}", positive=True)

    def mono(coords):
        out = sympy.Integer(1)
        for x, c in zip(xs, coords):
            out *= x ** c
        return out

    def to_expr(val):
        return sum((c * mono(lam) for lam, c in val.terms()), sympy.Integer(0))

    total = sympy.Integer(0)
    for u in e.W.elements():
        denom = sympy.Integer(1)
        for beta in positive_roots(e.datum):
            denom *= 1 - mono(alpha_to_omega(e.datum, u.apply_to_root(beta)))
        total += to_expr(cls.value(u)) / denom
    return sympy.simplify(sympy.cancel(sympy.together(total)))


@pytest.mark.parametrize("label", ["A1", "A2", "C2"])
def test_euler_characteristic_against_localization(engine, label):
    import sympy

    e = engine(label)
    words = ["e", "1"] if label == "A1" else ["e", "1", "12", "21"]
    for uw in words:
        u = e.W.parse_word(uw)
        cls = e.schubert_class(u)
        assert _localization_integral(e, cls) == 1
    s1 = e.W.simple(1)
    prod = e.multiply(e.schubert_class(s1), e.schubert_class(s1))
    engine_val = e.euler_characteristic(e.expand(prod))
    n = e.rank
    xs = sympy.symbols(f"x1:{n + 1}", positive=True)
    expected = sympy.Integer(0)
    for lam, c in engine_val.terms():
        term = sympy.Integer(c)
        for x, cc in zip(xs, lam):
            term *= x ** cc
        expected += term
    assert sympy.simplify(_localization_integral(e, prod) - expected) == 0


def test_brion_sign_alternation_small(engine):
    for label in ("A2", "C2"):
        e = engine(label)
        els = e.W.elements()
        for u, v in itertools.combinations_with_replacement(els, 2):
            for w, c in e.structure_constants(u, v).coeffs.items():
                sign = (-1) ** (u.length + v.length - w.length)
                assert sign * c.specialize_to_one() >= 0


def test_expand_divides_by_the_stored_diagonal(monkeypatch):
    # neither building the classes nor expand calls diagonal_value: expand
    # reads O^v|_v from the memoised class instead of rebuilding it
    e = KTEngine(named_datum("A3"))
    calls = []
    real = KTEngine.diagonal_value
    monkeypatch.setattr(KTEngine, "diagonal_value", lambda self, v: calls.append(v) or real(self, v))
    s1, s2 = e.W.simple(1), e.W.simple(2)
    assert e.structure_constants(s1, s2).coeffs
    assert calls == []


_DEMAZURE: dict = {}


def _demazure_classes(e):
    """Every O^v on G/B by the right Demazure recursion, seeded at w0 by the
    diagonal value: an independent construction of the classes."""
    got = _DEMAZURE.get(e.datum)
    if got is None:
        W = e.W
        w0 = W.longest()
        got = {w0: KClass(e.datum, {w0: e.diagonal_value(w0)})}
        for v in sorted(W.elements(), key=lambda w: -w.length)[1:]:
            k = next(i for i in range(1, e.rank + 1) if not v.has_right_descent(i))
            got[v] = e.demazure(got[v.right_mult_gen(k)], k)
        _DEMAZURE[e.datum] = got
    return got


@pytest.mark.parametrize(
    "label, p",
    [("A2", ()), ("B2", ()), ("G2", ()), ("A3", ()), ("B3", ()), ("A4", ()), ("A3", (1,)), ("C3", (1, 2)),
     ("D4", (2, 3, 4)), ("D4", (1, 3, 4)), ("A4", (1, 3, 4))],
    ids=lambda x: x if isinstance(x, str) else "P" + "".join(map(str, x)),
)
def test_left_recursion_matches_the_demazure_recursion(engine, label, p):
    e = engine(label)
    reference = _demazure_classes(e)
    reps = weyl.enumerate_wp(e.W, p)
    for v in reps:
        cls = e.schubert_class(v, p)
        assert cls.parabolic == frozenset(p) and set(cls.restrictions) <= set(reps)
        # at every point of W, so the Borel reference must be constant on cosets too
        got = [cls.value(w) for w in e.W.elements()]
        assert got == [reference[v].value(w) for w in e.W.elements()], v.word_str


@pytest.mark.parametrize("p", [(), tuple(range(1, 8))], ids=["B", "P1234567"])
def test_classes_of_a_group_too_large_to_enumerate_are_refused(p):
    e = KTEngine(named_datum("E8"))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="more than"):
        e.schubert_class(e.W.identity, p)
    assert time.perf_counter() - t0 < 1.0


# -- classes on G/P ------------------------------------------------------------


@pytest.mark.parametrize(
    "label, p",
    [("A3", {1}), ("A3", {2}), ("B3", {2, 3}), ("C3", {1, 2}), ("G2", {1}), ("D4", {2, 3, 4})],
    ids=lambda x: x if isinstance(x, str) else "P" + "".join(map(str, sorted(x))),
)
def test_quotient_constants_match_the_borel_solve(engine, label, p):
    # the Borel solve visits every point of W, so it checks the W^P solve
    e = engine(label)
    reps = weyl.enumerate_wp(e.W, p)
    for i, u in enumerate(reps):
        for v in reps[i:]:
            prod = e.multiply(e.schubert_class(u, p), e.schubert_class(v, p))
            assert prod.parabolic == p and set(prod.restrictions) <= set(reps)
            assert e.structure_constants(u, v, p).coeffs == e.structure_constants(u, v).coeffs


def test_quotient_class_is_read_at_the_coset_representative(engine):
    e = engine("A3")
    p = frozenset({1, 3})
    reps = weyl.enumerate_wp(e.W, p)
    for v in reps:
        borel = e.schubert_class(v)
        cls = e.schubert_class(v, p)
        assert cls.parabolic == p and set(cls.restrictions) <= set(reps)
        assert all(cls.value(w) == borel.value(w) for w in e.W.elements())
        # the pullback to G/{1} is the class built there
        assert all(e.schubert_class(v, {1}).value(w) == cls.value(w) for w in e.W.elements())
    with pytest.raises(ValueError, match="minimal representative"):
        e.schubert_class(e.W.simple(1), p)


def test_moment_graph_operations_refuse_classes_on_a_quotient(engine):
    e = engine("A2")
    cls = e.schubert_class(e.W.simple(1), {2})
    with pytest.raises(ValueError, match="G/B"):
        e.demazure(cls, 1)
    with pytest.raises(ValueError, match="G/B"):
        e.gkm_violations(cls)


def test_product_of_classes_on_different_quotients_is_refused(engine):
    # a class changes quotient only through its expansion (pullback, pushforward)
    e = engine("A3")
    on_quotient, on_borel = e.schubert_class(e.W.simple(1), {2}), e.schubert_class(e.W.simple(2))
    with pytest.raises(ValueError, match=r"G/P for P = \[2\], not on G/B"):
        e.multiply(on_quotient, on_borel)
    with pytest.raises(ValueError, match=r"G/B, not on G/P for P = \[2\]"):
        e.multiply(on_borel, on_quotient)


def test_a_weyl_element_of_another_group_is_refused(engine):
    e = engine("A2")
    s1 = engine("A3").W.simple(1)
    with pytest.raises(weyl.GroupMismatchError, match="A3 is not in the Weyl group of A2"):
        e.schubert_class(s1)
    with pytest.raises(weyl.GroupMismatchError):
        e.structure_constants(s1, s1)


def test_readers_refuse_an_element_of_another_group(engine):
    """An index or point of a second Weyl group of A2, or of B2, is refused
    by SchubertExpansion.coeff and KClass.value, not read as zero; the
    engine's own element reads the stored value."""
    e = engine("A2")
    s1 = e.W.simple(1)
    consts, cls = e.structure_constants(s1, s1), e.schubert_class(s1)
    for group in (weyl.WeylGroup(named_datum("A2")), engine("B2").W):
        mine, foreign = e.W.parse_word("21"), group.parse_word("21")
        assert consts.coeff(mine) == consts.coeffs[mine] != e.ring_zero()
        assert cls.value(mine) == cls.restrictions[mine] != e.ring_zero()
        with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A2"):
            consts.coeff(foreign)
        with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A2"):
            cls.value(foreign)
        with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A2"):
            e.schubert_class(s1, {2}).value(foreign)


def test_an_expansion_refuses_an_index_outside_its_quotient(engine):
    # no basis class O^{s2} exists on G/{2}; KClass.value reads such a point at its coset, coeff has no such reading
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    consts = e.structure_constants(s1, s1, {2})
    assert consts.coeff(e.W.identity) == e.ring_zero()
    with pytest.raises(ValueError, match=r"2 is not a minimal representative for \[2\]"):
        consts.coeff(s2)


def test_an_empty_expansion_reads_zero_only_in_its_own_group(engine):
    # an empty expansion had no datum, so it read zero at an element of any group
    e = engine("A2")
    empty = SchubertExpansion(e.datum, {})
    assert empty.coeff(e.W.parse_word("21")) == e.ring_zero()
    with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A2"):
        empty.coeff(weyl.WeylGroup(named_datum("A2")).parse_word("21"))


@pytest.mark.parametrize("k", [0, -1, 3])
def test_demazure_of_a_class_with_no_points_checks_the_node(engine, k):
    e = engine("A2")
    with pytest.raises(IndexError, match=f"node index {k} out of range 1..2"):
        e.demazure(KClass(e.datum, {}), k)


def test_a_class_of_another_root_datum_is_refused(engine):
    e, other = engine("A2"), engine("B2")
    mine, theirs = e.schubert_class(e.W.simple(1)), other.schubert_class(other.W.simple(1))
    calls = [
        lambda: e.multiply(mine, theirs),
        lambda: e.multiply(theirs, mine),
        lambda: e.multiply(theirs, theirs),
        lambda: e.demazure(theirs, 1),
        lambda: e.gkm_violations(theirs),
    ]
    for call in calls:
        with pytest.raises(weyl.GroupMismatchError, match="on A2 takes classes of A2, not of B2"):
            call()


def test_diagonal_value_refuses_an_element_of_another_group(engine):
    # it read the B3 element's inversions against the A3 datum and answered a value of no A3 element
    e = engine("A3")
    with pytest.raises(weyl.GroupMismatchError, match="B3 is not in the Weyl group of A3"):
        e.diagonal_value(engine("B3").W.parse_word("32"))


def test_divided_difference_refuses_an_index_of_another_group(engine):
    # it decided k-freeness on its own A4 diagram and moved the D4 index as if it were its own
    e, s2 = engine("A4"), KTEngine(named_datum("D4")).W.simple(2)
    with pytest.raises(weyl.GroupMismatchError, match="D4 is not in the Weyl group of A4"):
        e.divided_difference(SchubertExpansion(e.datum, {s2: e.ring_one()}, frozenset({4})), 2)


@pytest.mark.parametrize(
    "op",
    [
        lambda e, exp: e.pushforward(exp, {1}),
        lambda e, exp: e.pullback(exp, ()),
        lambda e, exp: e.euler_characteristic(exp),
    ],
    ids=["pushforward", "pullback", "euler_characteristic"],
)
def test_functoriality_refuses_an_index_of_another_group(engine, op):
    # pushforward reindexed the D4 index by its A4 coset, pullback kept it and euler_characteristic summed it
    e, x = engine("A4"), KTEngine(named_datum("D4")).W.parse_word("21")
    with pytest.raises(weyl.GroupMismatchError, match="D4 is not in the Weyl group of A4"):
        op(e, SchubertExpansion(e.datum, {x: e.ring_one()}))


@pytest.mark.parametrize(
    "op",
    [
        lambda e, exp: e.pushforward(exp, {1, 2}),
        lambda e, exp: e.pullback(exp, ()),
        lambda e, exp: e.euler_characteristic(exp),
        lambda e, exp: e.divided_difference(exp, 3),
    ],
    ids=["pushforward", "pullback", "euler_characteristic", "divided_difference"],
)
def test_functoriality_refuses_an_index_outside_wp_of_its_quotient(engine, op):
    # s1 is no point of G/P for P = {1}: pushforward answered {e: 1}, euler_characteristic 1,
    # and divided_difference and pullback {s1: 1}
    e = engine("A3")
    with pytest.raises(ValueError, match=re.escape("1 is not a minimal representative for [1]")):
        op(e, SchubertExpansion(e.datum, {e.W.simple(1): e.ring_one()}, frozenset({1})))


# every engine operation that takes an expansion, called on an engine e
_EXPANSION_OPERATIONS = {
    "pushforward": lambda e, exp: e.pushforward(exp, {1}),
    "pullback": lambda e, exp: e.pullback(exp, ()),
    "euler_characteristic": lambda e, exp: e.euler_characteristic(exp),
    "divided_difference": lambda e, exp: e.divided_difference(exp, 1),
    "schubert_class_of_expansion": lambda e, exp: e.schubert_class_of_expansion(exp),
    "kgw3": lambda e, exp: qklines.kgw3(e, e.W.identity, e.W.identity, exp, 1),
}


@pytest.mark.parametrize("mine, theirs, word", [("A2", "B2", None), ("A4", "D4", "21")], ids=["empty-B2", "D4"])
@pytest.mark.parametrize("name", sorted(_EXPANSION_OPERATIONS))
def test_an_operation_refuses_an_expansion_of_another_datum(engine, name, mine, theirs, word):
    """An expansion is taken by its datum, as a class is.  An empty B2 expansion
    on A2 was answered (zero, or an empty expansion or class), and a D4 index on
    A4 was refused only where an operation read it."""
    e, other = engine(mine), engine(theirs)
    exp = SchubertExpansion(other.datum, {other.W.parse_word(word): other.ring_one()} if word else {})
    with pytest.raises(weyl.GroupMismatchError, match=f"on {mine} takes classes of {mine}, not of {theirs}"):
        _EXPANSION_OPERATIONS[name](e, exp)


def test_expand_reads_a_stored_zero_value_as_zero(engine):
    # KClass.value reads a missing point as zero, so a stored zero is the same class
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    assert e.expand(KClass(e.datum, {s1: e.ring_zero()})).coeffs == {}
    assert e.expand(KClass(e.datum, {s1: e.ring_zero()}, frozenset({2}))).coeffs == {}
    with_zero = KClass(e.datum, {**e.schubert_class(s2).restrictions, s1: e.ring_zero()})
    assert e.expand(with_zero).coeffs == {s2: e.ring_one()}


_VALUES_OF_A3 = {
    "KClass": lambda e, points, p: KClass(e.datum, dict.fromkeys(points, e.ring_one()), p),
    "SchubertExpansion": lambda e, points, p: SchubertExpansion(e.datum, dict.fromkeys(points, e.ring_one()), p),
}


@pytest.mark.parametrize("name", sorted(_VALUES_OF_A3))
def test_a_value_is_checked_once_when_it_is_built(engine, name):
    """A class or an expansion refuses, when it is built, a point of a second
    Weyl group of its datum and a point outside W^P of its own quotient; both
    were stored, and refused only by the operations that read them.  With no
    points it refuses a quotient node out of range: an expansion checked its
    nodes only through its indices, so an empty one kept (5,)."""
    e, build = engine("A3"), _VALUES_OF_A3[name]
    foreign = weyl.WeylGroup(named_datum("A3"))
    with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A3"):
        build(e, [e.W.identity, foreign.simple(2)], frozenset())
    with pytest.raises(ValueError, match=re.escape("1 is not a minimal representative for [1]")):
        build(e, [e.W.identity, e.W.simple(1)], frozenset({1}))
    assert build(e, [e.W.identity, e.W.simple(2)], frozenset({1})).parabolic == {1}
    with pytest.raises(IndexError, match="parabolic node 5 out of range 1..3"):
        build(e, [], (5,))


def test_multiply_takes_a_class_whose_quotient_is_a_tuple(engine):
    # the quotient (2,) is P = {2}: it used to be refused as "not on G/P for P = [2]"
    e = engine("A2")
    c = e.schubert_class(e.W.simple(1), {2})
    square = e.multiply(KClass(e.datum, c.restrictions, (2,)), c)
    assert square.parabolic == {2} and square.restrictions == e.multiply(c, c).restrictions


def test_pushforward_and_pullback_take_an_expansion_whose_quotient_is_a_tuple(engine):
    # the quotient (2,) is P = {2}: comparing it with a frozenset raised TypeError
    e = engine("A2")
    s1, one = e.W.simple(1), e.ring_one()
    f = SchubertExpansion(e.datum, {s1: one}, (2,))
    assert e.pushforward(f, (1, 2)) == SchubertExpansion(e.datum, {e.W.identity: one}, frozenset({1, 2}))
    assert e.pullback(f, ()) == SchubertExpansion(e.datum, {s1: one})


def test_a_value_quotient_is_a_frozenset_of_nodes_in_range(engine):
    e = engine("A2")
    with pytest.raises(IndexError, match="parabolic node 5 out of range 1..2"):
        KClass(e.datum, {}, (5,))
    with pytest.raises(IndexError, match="parabolic node 5 out of range 1..2"):
        SchubertExpansion(e.datum, {e.W.identity: e.ring_one()}, [5])
    for value in (KClass(e.datum, {}, [2]), SchubertExpansion(e.datum, {e.W.identity: e.ring_one()}, [2])):
        assert type(value.parabolic) is frozenset and value.parabolic == {2}
        assert value._replace(parabolic=[1]).parabolic == {1}  # a copy with one field changed is checked too
        with pytest.raises(IndexError, match="parabolic node 5 out of range 1..2"):
            value._replace(parabolic=(5,))


def test_classes_and_expansions_are_read_only(engine):
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    cls, exp = e.schubert_class(s1), e.structure_constants(s1, s1)
    with pytest.raises(TypeError):
        cls.restrictions[s2] = e.ring_one()
    with pytest.raises(TypeError):
        exp.coeffs[s2] = e.ring_one()
    assert s2 not in cls.restrictions and s2 not in exp.coeffs


def test_a_value_keeps_no_link_to_the_mapping_it_was_built_from(engine):
    # a caller that changes its dict after the check changes neither the value nor its expansion
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    vals = dict(e.schubert_class(s2).restrictions)
    cls = KClass(e.datum, vals)
    coeffs = {s2: e.ring_one()}
    exp = SchubertExpansion(e.datum, coeffs)
    vals[s1] = vals[e.W.identity] = e.ring_one()
    coeffs[s1] = e.ring_one()
    assert cls.restrictions == e.schubert_class(s2).restrictions
    assert e.expand(cls).coeffs == {s2: e.ring_one()}
    assert exp.coeffs == {s2: e.ring_one()}


def test_multiply_checks_each_point_of_memoised_classes_at_most_once(engine, monkeypatch):
    # the product re-scanned both memoised factors: 2|c| W^P tests for c . c on G/P
    e = engine("A3")
    c = e.schubert_class(e.W.identity, {1})
    calls = []
    in_wp = weyl.in_wp
    monkeypatch.setattr(weyl, "in_wp", lambda w, p: calls.append(w) or in_wp(w, p))
    square = e.multiply(c, c)
    assert square.restrictions == c.restrictions
    assert 0 < len(calls) <= len(c.restrictions) == 12


def _snapshot(cls):
    return {w: (dict(val._terms), val._bound) for w, val in cls.restrictions.items()}


@pytest.mark.parametrize("label, p", [("A3", ()), ("D4", (2, 3, 4))])
def test_a_table_mutates_neither_the_input_classes_nor_the_memoised_ones(monkeypatch, label, p):
    """expand subtracts in place from its residuals; the class it expands and
    every memoised Schubert class keep their terms and bounds."""
    e = KTEngine(named_datum(label))
    p = weyl.normalize_parabolic(e.datum, p)
    e.schubert_class(e.W.identity, p)
    before = {key: _snapshot(cls) for key, cls in e._schubert.items()}
    expand, inputs = KTEngine.expand, []

    def checked_expand(self, c):
        snap = _snapshot(c)
        out = expand(self, c)
        inputs.append(snap == _snapshot(c))
        return out

    monkeypatch.setattr(KTEngine, "expand", checked_expand)
    reps = [w for w in weyl.enumerate_wp(e.W, p) if w is not e.W.identity]
    for i, u in enumerate(reps):
        for v in reps[i:]:
            qklines.qk_product_degree1(e, u, v, p)
    assert inputs and all(inputs)
    assert all(_snapshot(e._schubert[key]) == snap for key, snap in before.items())
    # the classes built during the table (the P_k quotients) match a fresh engine's
    fresh = KTEngine(named_datum(label))
    for (v, q), cls in e._schubert.items():
        assert _snapshot(cls) == _snapshot(fresh.schubert_class(v, q))


_DEMAZURE_ORDER = (
    "from qkline import KTEngine, named_datum\n"
    "e = KTEngine(named_datum('A3'))\n"
    "for v in e.W.elements():\n"
    "    for k in (1, 2, 3):\n"
    "        print(' '.join(w.word_str for w in e.demazure(e.schubert_class(v), k).restrictions))\n"
)


def test_demazure_points_come_in_the_same_order_in_every_interpreter():
    # elements hash by identity, so a set of them iterates in address order; the output must not
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = [
        subprocess.run([sys.executable, "-c", _DEMAZURE_ORDER], capture_output=True, text=True, timeout=60, env=env)
        for _ in range(2)
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr[-500:]
    assert len(runs[0].stdout.splitlines()) == 24 * 3
    assert runs[0].stdout == runs[1].stdout
