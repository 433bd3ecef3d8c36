import itertools
import time

import pytest

from qkline import ExpansionError, KTEngine, named_datum, repring, weyl
from qkline.ktheory import KClass
from qkline.repring import RingElt, parse_expression
from qkline.rootsys import alpha_to_omega, positive_roots


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
                shift = tuple(a - b for a, b in zip(w.act_weight(omega), omega))
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


def test_diagonal_formula_via_inversions(engine):
    e = engine("C2")
    w0 = e.W.longest()
    expected = e.ring_one()
    for beta in positive_roots(e.datum):
        neg = tuple(-x for x in alpha_to_omega(e.datum, beta.coords))
        expected = expected * (e.ring_one() - RingElt.monomial(2, neg))
    assert e.diagonal_value(w0) == expected


def test_gkm_condition_for_all_classes(engine):
    for label in ("A2", "C2", "G2"):
        e = engine(label)
        for v in e.W.elements():
            assert not e.gkm_violations(e.schubert_class(v))


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
    # a GKM class supported outside the minimal representatives of {2}
    cls = e.schubert_class(e.W.simple(2))
    with pytest.raises(ExpansionError):
        e.expand(cls, {2})
    from qkline.ktheory import KClass

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
    d = e.divided_difference(SchubertExpansion({s1: one}), 1)
    assert d.coeffs == {W.identity: one}
    d = e.divided_difference(SchubertExpansion({s2: one}), 1)
    assert d.coeffs == {s2: one}
    a, b = elt(e, "e(-a1)"), elt(e, "1-e(-a2)")
    lin = e.divided_difference(SchubertExpansion({s1: a, W.parse_word("21"): b}), 1)
    assert lin.coeffs == {W.identity: a, s2: b}
    twice = e.divided_difference(lin, 1)
    assert twice.coeffs == lin.coeffs
    with pytest.raises(ValueError):
        e.divided_difference(SchubertExpansion({s1: one}, frozenset({2})), 1)


def test_divided_difference_opposite_basis(engine):
    e = engine("A2")
    from qkline.ktheory import SchubertExpansion

    w = e.W.simple(2)
    moved = e.divided_difference(SchubertExpansion({w: e.ring_one()}), 1, opposite=True)
    assert moved.coeffs == {e.W.parse_word("21"): e.ring_one()}


def test_pushforward_pullback(engine):
    e = engine("A2")
    W = e.W
    from qkline.ktheory import SchubertExpansion

    one = e.ring_one()
    exp = SchubertExpansion({W.parse_word("12"): one})
    pushed = e.pushforward(exp, {2})
    assert pushed.coeffs == {W.simple(1): one}
    over_q = SchubertExpansion({W.parse_word("21"): one, W.identity: one}, frozenset({2}))
    assert e.pushforward(e.pullback(over_q, ()), {2}).coeffs == over_q.coeffs
    assert e.pushforward(SchubertExpansion({W.identity: one}), {2}).coeffs == {W.identity: one}
    with pytest.raises(ValueError):
        e.pullback(exp, {2})


def test_euler_characteristic(engine):
    e = engine("A2")
    from qkline.ktheory import SchubertExpansion

    w = e.W.parse_word("12")
    assert e.euler_characteristic(SchubertExpansion({w: e.ring_one()})) == e.ring_one()
    s1 = e.W.simple(1)
    sq = e.structure_constants(s1, s1)
    assert e.euler_characteristic(sq) == e.ring_one()
    assert e.euler_characteristic(SchubertExpansion({})) == e.ring_zero()


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
            denom *= 1 - mono(alpha_to_omega(e.datum, u.apply_to_root(beta.coords)))
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
            got[v] = e.demazure(got[W.right_mult_gen(v, k)], k)
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
        expected = e.descend(reference[v], p)
        assert {w: cls.value(w) for w in reps} == {w: expected.value(w) for w in reps}, v.word_str


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
        # the pullback to G/B is the class built there
        assert e.descend(cls, ()).restrictions == borel.restrictions
        assert e.descend(e.schubert_class(v, {1}), p).restrictions == cls.restrictions
    with pytest.raises(ValueError, match="minimal representative"):
        e.schubert_class(e.W.simple(1), p)


def test_descend_refuses_a_class_not_constant_on_cosets(engine):
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    with pytest.raises(ExpansionError, match="cosets"):
        e.descend(e.schubert_class(s2), {2})
    # right values at W^{2} = {id, 1, 21}, but a nonzero value at the point 2
    # of the coset {id, 2}, where the identity has none
    vals = dict(e.schubert_class(s1).restrictions)
    vals[s2] = e.ring_one()
    broken = KClass(e.datum, vals)
    with pytest.raises(ExpansionError, match="cosets"):
        e.descend(broken, {2})
    with pytest.raises(ExpansionError, match="cosets"):
        e.expand(broken, {2})
    # a class on G/{1} that is not pulled back from G/{1,3}
    a3 = engine("A3")
    with pytest.raises(ExpansionError, match="cosets"):
        a3.descend(a3.schubert_class(a3.W.simple(3), {1}), {1, 3})


def test_moment_graph_operations_refuse_classes_on_a_quotient(engine):
    e = engine("A2")
    cls = e.schubert_class(e.W.simple(1), {2})
    with pytest.raises(ValueError, match="G/B"):
        e.demazure(cls, 1)
    with pytest.raises(ValueError, match="G/B"):
        e.gkm_violations(cls)


def test_product_of_a_quotient_class_and_a_borel_class(engine):
    # the product lives on the smaller parabolic, so a G/B factor that is not
    # pulled back from G/P is not refused
    e = engine("A3")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    mixed = e.multiply(e.schubert_class(s1, {2}), e.schubert_class(s2))
    assert mixed.parabolic == frozenset()
    assert mixed.restrictions == e.multiply(e.schubert_class(s1), e.schubert_class(s2)).restrictions
    assert e.expand(mixed).coeffs == e.structure_constants(s1, s2).coeffs
