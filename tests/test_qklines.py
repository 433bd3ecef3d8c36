import itertools
import random
import re

import pytest

from qkline import (
    GateError,
    boundary_projected_gw,
    cor_xi_sum,
    curve_neighborhood,
    equivariant_positivity_diagnostic,
    kgw2,
    kgw3,
    peterson_check,
    projected_gw,
    qk_constant_divided_difference,
    qk_constant_general,
    qk_constant_kfree,
    qk_product_degree1,
    quantum_coefficients,
    sign_check,
    vanishing_check,
    weyl,
)
from qkline.ktheory import KTEngine, SchubertExpansion
from qkline.qklines import CheckReport, peterson_sweep
from qkline.repring import accumulate, parse_expression
from qkline.rootsys import named_datum
from qkline.weyl import WeylGroup


def elt(engine, text):
    return parse_expression(engine.datum, text)


def exp_one(engine, word, p=()):
    w = engine.W.parse_word(word)
    return SchubertExpansion(engine.datum, {w: engine.ring_one()}, weyl.normalize_parabolic(engine.datum, p))


# -- neighborhoods and Richardson descriptors ------------------------------------


def test_curve_neighborhood(engine):
    e = engine("A2")
    W = e.W
    assert curve_neighborhood(e, "X", W.simple(2), 1) is W.parse_word("21")
    assert curve_neighborhood(e, "Y", W.simple(1), 1) is W.identity
    assert curve_neighborhood(e, "X", W.longest(), 1) is W.longest()
    with pytest.raises(GateError):
        curve_neighborhood(e, "X", W.simple(1), 1, {2})
    with pytest.raises(ValueError):
        curve_neighborhood(e, "Z", W.simple(1), 1)


def test_projected_gw(engine):
    e = engine("A2")
    W = e.W
    d = projected_gw(e, W.simple(1), W.simple(1), 1)
    assert d.top is W.simple(1) and d.bottom is W.identity
    assert d.nonempty and d.dimension == 1

    d = projected_gw(e, W.longest(), W.identity, 1)
    assert d.top is W.longest() and d.nonempty and d.dimension == 3

    d = projected_gw(e, W.identity, W.longest(), 1)
    assert d.top is W.simple(1)
    assert d.bottom is W.parse_word("12")
    assert not d.nonempty and d.dimension == -1


def test_boundary_projected_gw(engine):
    e = engine("A2")
    W = e.W
    b = boundary_projected_gw(e, W.longest(), W.identity, 1)
    assert b.boundary_dimension == 3  # u^k == u: boundary fills the outer bound

    b = boundary_projected_gw(e, W.simple(1), W.simple(1), 1)
    assert b.boundary_dimension == 1

    b = boundary_projected_gw(e, W.simple(2), W.simple(2), 1)
    assert b.outer.top is W.parse_word("21") and b.outer.bottom is W.simple(2)
    assert b.boundary_dimension == b.outer.dimension == 1


def test_boundary_dimension_law(engine):
    # strict case: inner, boundary, outer dimensions step by one
    for label in ("A2", "C2", "A3"):
        e = engine(label)
        for u in e.W.elements():
            for v in e.W.elements():
                for k in range(1, e.rank + 1):
                    b = boundary_projected_gw(e, u, v, k)
                    strict = b.outer.top is not u and b.outer.bottom is not v
                    if strict and b.inner.nonempty:
                        assert b.outer.dimension - b.inner.dimension == 2
                        assert b.inner.dimension < b.boundary_dimension < b.outer.dimension


# -- invariants ----------------------------------------------------------------


def test_kgw3_examples(engine):
    e = engine("A2")
    one = e.ring_one()
    s1, s2 = e.W.simple(1), e.W.simple(2)
    assert kgw3(e, s1, s1, exp_one(e, "e"), 1) == one
    assert kgw3(e, s1, s1, exp_one(e, "21"), 1) == one
    assert kgw3(e, s1, s2, exp_one(e, "e"), 1) == one


def _triple_product(e, u, v, f, k, p):
    """The invariant as the integral of O^{u_k} . O^{v_k} . F on the k-free
    reduction, from public engine operations: the oracle for kgw3."""
    q = weyl.build_Pk(e.datum, p, k)  # p itself when p is k-free
    cls = e.multiply(*(e.schubert_class(weyl.hecke_down(x, k), q) for x in (u, v)))
    cls = e.multiply(cls, e.schubert_class_of_expansion(e.pullback(f, q)))
    return e.euler_characteristic(e.expand(cls))


@pytest.mark.parametrize(
    "label, p",
    [("A3", ()), ("A3", (1, 3)), ("C3", (1,)), ("B3", (1,)), ("G2", (1,))],
    ids=["A3", "A3-P13", "C3-P1", "B3-P1", "G2-P1"],
)
def test_kgw3_matches_the_triple_product(engine, label, p):
    # every admissible node; A3/{1,3} at k = 2 and C3/{1}, B3/{1} at k = 2 take the P_k route.
    # F has three terms with non-unit coefficients, so a dropped f_w shows
    e = engine(label)
    p = frozenset(p)
    reps = weyl.enumerate_wp(e.W, p)
    coeffs = [elt(e, c) for c in ("2", "-3", "1-e(-a1)", "2*e(-a2)+e(a1)")]
    rng = random.Random(f"{label}/{sorted(p)}")
    for k in range(1, e.rank + 1):
        if k in p or not weyl.in_class_P(e.datum, p, k):
            continue
        for _ in range(6):
            u, v = rng.choice(reps), rng.choice(reps)
            f = SchubertExpansion(e.datum, {w: rng.choice(coeffs) for w in rng.sample(reps, 3)}, p)
            assert kgw3(e, u, v, f, k, p) == _triple_product(e, u, v, f, k, p), (u, v, f.coeffs, k)


def _asymmetric_kgw3_triples(e, p, k):
    """(u, v, w) of W^P, as words, where kgw3(u, v, O^w) changes under a permutation
    of the three insertions; the invariant is symmetric in them."""
    reps = weyl.enumerate_wp(e.W, p)
    value = {t: kgw3(e, t[0], t[1], exp_one(e, t[2].word_str, p), k, p) for t in itertools.product(reps, repeat=3)}
    return [
        tuple(x.word_str for x in t)
        for t, got in value.items()
        if any(value[s] != got for s in itertools.permutations(t))
    ]


@pytest.mark.parametrize(
    "label, p, k",
    [("A2", (2,), 1), ("A3", (1, 3), 2), ("A3", (2,), 1), ("A3", (3,), 1)],
    ids=["A2-P2-k1", "A3-P13-k2", "A3-P2-k1", "A3-P3-k1"],
)
def test_kgw3_is_symmetric_in_its_three_insertions(engine, label, p, k):
    # u and v enter through a Hecke move, w through the pairing: symmetry ties the two together,
    # also where P_k is empty and the Peterson comparison computes nothing
    assert _asymmetric_kgw3_triples(engine(label), frozenset(p), k) == []


def test_kgw3_symmetry_sees_a_changed_full_flag_constant(monkeypatch):
    # a fault in c_{s1,s3} on G/B, A3/{1,3} at k = 2 (P_k empty): the Peterson sweep
    # compares two equal sums there, so only the symmetry test sees it
    e = KTEngine(named_datum("A3"))  # its structure constants are perturbed: not the shared engine
    p = frozenset({1, 3})
    s1, s3 = e.W.simple(1), e.W.simple(3)
    real = e.structure_constants
    bad = SchubertExpansion(e.datum, {**real(s1, s3).coeffs, e.W.identity: e.ring_one()})

    def perturbed(u, v, parabolic=()):  # O^{s1} . O^{s3} on G/B gains an O^e term, in either order
        hit = {u, v} == {s1, s3} and not weyl.normalize_parabolic(e.datum, parabolic)
        return bad if hit else real(u, v, parabolic)

    monkeypatch.setattr(e, "structure_constants", perturbed)
    assert len(_asymmetric_kgw3_triples(e, p, 2)) > 0
    assert [r.status for r in peterson_sweep(e, p, 2)] == ["pass"]


def test_kgw3_refuses_a_class_on_another_quotient(engine):
    # P = {2} at k = 1 pulls back to P_k = {}, which used to accept a class on G/B and return 1
    e = engine("A2")
    s1 = e.W.simple(1)
    for p, f_p, words in (({2}, (), "G/P for P = [2], not on G/B"), ((), {2}, "G/B, not on G/P for P = [2]")):
        with pytest.raises(ValueError, match=re.escape(words)):
            kgw3(e, s1, s1, exp_one(e, "1", f_p), 1, p)


def test_kgw3_takes_a_class_whose_quotient_is_a_tuple(engine):
    # F's quotient (2,) is P = {2}: it used to be refused as "not on P = [2]"
    e = engine("A2")
    s1, one = e.W.simple(1), e.ring_one()
    want = kgw3(e, s1, s1, SchubertExpansion(e.datum, {s1: one}, frozenset({2})), 1, {2})
    assert kgw3(e, s1, s1, SchubertExpansion(e.datum, {s1: one}, (2,)), 1, {2}) == want


def test_kgw2_examples(engine):
    e = engine("A2")
    W = e.W
    one, zero = e.ring_one(), e.ring_zero()
    assert kgw2(e, W.simple(1), W.identity, 1) == one
    assert kgw2(e, W.simple(2), W.simple(2), 1) == one
    assert kgw2(e, W.simple(1), W.simple(1), 1) == zero


def test_kgw2_matches_kgw3_pairing(engine):
    # two-point invariant as a three-point one against the identity class,
    # read through the coefficient-extraction route
    e = engine("A2")
    for z in e.W.elements():
        for k in (1, 2):
            coeffs = quantum_coefficients(e, e.W.identity, z, k)
            down = weyl.hecke_down(z, k)
            for w in e.W.elements():
                got = kgw2(e, z, w, k)
                # N_{id,z}^{w} vanishes, so test the underlying pairing directly
                val = e.structure_constants(e.W.identity, down).coeff(w)
                assert (got == e.ring_one()) == (down is w)
                assert (val == e.ring_one()) == (down is w)
            assert not coeffs  # unit argument: no quantum correction at all


def test_qk_constant_kfree_reference_values(engine):
    e = engine("A2")
    s1 = e.W.simple(1)
    assert qk_constant_kfree(e, s1, s1, e.W.identity, 1) == elt(e, "e(-a1)")
    assert qk_constant_kfree(e, s1, s1, e.W.simple(2), 1) == elt(e, "-e(-a1)")

    c2 = engine("C2")
    s2 = c2.W.simple(2)
    got = qk_constant_kfree(c2, s2, s2, c2.W.parse_word("21"), 2)
    assert got == elt(c2, "e(-a1-a2)")


def test_qk_constant_divided_difference_agrees(engine):
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    for (u, v, w, k) in [
        (s1, s1, e.W.identity, 1),
        (s1, s1, s2, 1),
        (s1, s2, s1, 1),
        (e.W.identity, e.W.identity, e.W.identity, 1),
    ]:
        assert (
            qk_constant_divided_difference(e, u, v, w, k)
            == qk_constant_kfree(e, u, v, w, k)
        )
    # Hecke-fixed first argument: both routes give zero
    for w in e.W.elements():
        assert qk_constant_divided_difference(e, s2, s1, w, 1) == e.ring_zero()


def test_route_equality_full_sweep_rank2(engine):
    for label in ("A2", "B2", "C2", "G2"):
        e = engine(label)
        els = e.W.elements()
        for u in els:
            for v in els:
                for k in (1, 2):
                    general = quantum_coefficients(e, u, v, k)
                    for w in els:
                        a = qk_constant_kfree(e, u, v, w, k)
                        b = qk_constant_divided_difference(e, u, v, w, k)
                        c = general.get(w, e.ring_zero())
                        assert a == b == c, (label, u.word_str, v.word_str, w.word_str, k)


def test_qk_constant_general_hand_values(engine):
    # projective-plane quotient of A2: hand-evaluated coset-fibre sums
    e = engine("A2")
    p = {2}
    s1 = e.W.simple(1)
    v21 = e.W.parse_word("21")
    assert qk_constant_general(e, s1, s1, e.W.identity, 1, p) == e.ring_zero()
    assert qk_constant_general(e, v21, v21, s1, 1, p) == elt(e, "e(-a2)")


def test_qk_constant_general_lagrangian_quotient(engine):
    # C2 with P = {1} is admissible for the long node k=2 without being
    # 2-free; hand evaluation of both coset-fibre sums from the full-flag
    # constants of O^2 . O^2 gives
    #   N^{e} = 1 - (c^2 + c^12) = -e^{-a1-a2},  N^{2} = -c^{212} = e^{-a1-a2}
    e = engine("C2")
    s2 = e.W.simple(2)
    coeffs = quantum_coefficients(e, s2, s2, 2, {1})
    assert coeffs == {
        e.W.identity: elt(e, "-e(-a1-a2)"),
        s2: elt(e, "e(-a1-a2)"),
    }


@pytest.mark.parametrize("label", ["A3", "B2", "B3", "C3", "G2", "D4"])
def test_constants_pulled_back_to_the_k_free_reduction_keep_their_indices(engine, label):
    # pullback G/P_k -> G/P is a ring map sending O^b to O^b, so for u, v in W^P the
    # expansion of O^u . O^v is the same on both quotients; the second fibre sum relies on it.
    # Every admissible, non-k-free pair (P, k); for D4 only P = {2,3,4}
    e = engine(label)
    nodes = range(1, e.rank + 1)
    if label == "D4":
        parabolics = [frozenset({2, 3, 4})]
    else:
        parabolics = [frozenset(c) for r in range(e.rank) for c in itertools.combinations(nodes, r)]
    pairs = [
        (p, k)
        for p in parabolics
        for k in nodes
        if k not in p and weyl.in_class_P(e.datum, p, k) and not weyl.is_k_free(e.datum, p, k)
    ]
    assert pairs
    for p, k in pairs:
        pk = weyl.build_Pk(e.datum, p, k)
        for u, v in itertools.combinations_with_replacement(weyl.enumerate_wp(e.W, p), 2):
            assert e.structure_constants(u, v, pk).coeffs == e.structure_constants(u, v, p).coeffs


def test_qk_constant_general_gate(engine):
    b2 = engine("B2")
    u = b2.W.simple(2)
    with pytest.raises(GateError):
        qk_constant_general(b2, u, u, u, 2, {1})


# Every public operation that takes points of W^P: its number of points, then
# a call on A3 with the parabolic p and those points at k = 1 (kgw3's third
# point is the index of its class F).
_POINT_OPERATIONS = {
    "curve_neighborhood": (1, lambda e, p, u: curve_neighborhood(e, "X", u, 1, p)),
    "projected_gw": (2, lambda e, p, u, v: projected_gw(e, u, v, 1, p)),
    "boundary_projected_gw": (2, lambda e, p, u, v: boundary_projected_gw(e, u, v, 1, p)),
    "kgw3": (3, lambda e, p, u, v, w: kgw3(e, u, v, SchubertExpansion(e.datum, {w: e.ring_one()}, p), 1, p)),
    "kgw2": (2, lambda e, p, z, w: kgw2(e, z, w, 1, p)),
    "qk_constant_kfree": (3, lambda e, p, u, v, w: qk_constant_kfree(e, u, v, w, 1, p)),
    "qk_constant_divided_difference": (3, lambda e, p, u, v, w: qk_constant_divided_difference(e, u, v, w, 1, p)),
    "quantum_coefficients": (2, lambda e, p, u, v: quantum_coefficients(e, u, v, 1, p)),
    "qk_constant_general": (3, lambda e, p, u, v, w: qk_constant_general(e, u, v, w, 1, p)),
    "qk_product_degree1": (2, lambda e, p, u, v: qk_product_degree1(e, u, v, p)),
    "cor_xi_sum": (3, lambda e, p, u, v, w: cor_xi_sum(e, u, v, w, 1, p, p)),
    "peterson_check": (3, lambda e, p, u, v, w: peterson_check(e, p, 1, u, v, w)),
    "KTEngine.structure_constants": (2, lambda e, p, u, v: e.structure_constants(u, v, p)),
}


@pytest.mark.parametrize("name", sorted(_POINT_OPERATIONS))
def test_points_outside_wp_are_refused(engine, name):
    """On A3 with P = {3} and k = 1 the pair is k-free and admissible, and s3
    is not in W^P: in every point position it is refused with the ValueError
    of require_wp, not with a GateError.  The identity of a second Weyl group
    of A3 is in no W^P of this engine's group: it is refused with
    GroupMismatchError."""
    e = engine("A3")
    p = frozenset({3})
    other = WeylGroup(named_datum("A3"))
    arity, call = _POINT_OPERATIONS[name]
    for i in range(arity):
        points = [e.W.identity] * arity
        points[i] = e.W.simple(3)
        with pytest.raises(ValueError, match=re.escape("3 is not a minimal representative for [3]")) as info:
            call(e, p, *points)
        assert not isinstance(info.value, GateError)
        points[i] = other.identity
        with pytest.raises(weyl.GroupMismatchError, match="is not in the Weyl group of A3"):
            call(e, p, *points)


def _count_gates(monkeypatch):
    from qkline import qklines

    calls = []
    real = qklines._gate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qklines, "_gate", counted)
    return calls


# operations that decide more or fewer hypotheses than one on A3/{3} at k = 1
_GATE_CALLS = {"cor_xi_sum": 2, "qk_product_degree1": 2, "KTEngine.structure_constants": 0}


@pytest.mark.parametrize("name", sorted(_POINT_OPERATIONS))
def test_each_operation_decides_its_hypothesis_once(engine, monkeypatch, name):
    """On A3 with P = {3} and k = 1 each operation calls the gate once, and no
    operation it calls decides the same hypothesis again.  cor_xi_sum decides
    two (P admissible, Q k-free), qk_product_degree1 one per admissible node outside P
    and the classical structure constants none."""
    e = engine("A3")
    calls = _count_gates(monkeypatch)
    arity, call = _POINT_OPERATIONS[name]
    call(e, frozenset({3}), *[e.W.simple(1)] * arity)
    assert len(calls) == _GATE_CALLS.get(name, 1)


@pytest.mark.parametrize("sweep", [vanishing_check, sign_check, equivariant_positivity_diagnostic, peterson_sweep])
def test_each_pair_sweep_gates_once(engine, monkeypatch, sweep):
    calls = _count_gates(monkeypatch)
    sweep(engine("A3"), {3}, 1)
    assert len(calls) == 1


# every operation that gates a node k, on A3 with the parabolic p and one point x
_GATED_AT_K = {
    "curve_neighborhood": lambda e, p, k, x: curve_neighborhood(e, "X", x, k, p),
    "projected_gw": lambda e, p, k, x: projected_gw(e, x, x, k, p),
    "kgw3": lambda e, p, k, x: kgw3(e, x, x, SchubertExpansion(e.datum, {e.W.identity: e.ring_one()}, p), k, p),
    "kgw2": lambda e, p, k, x: kgw2(e, x, x, k, p),
    "qk_constant_kfree": lambda e, p, k, x: qk_constant_kfree(e, x, x, x, k, p),
    "qk_constant_divided_difference": lambda e, p, k, x: qk_constant_divided_difference(e, x, x, x, k, p),
    "quantum_coefficients": lambda e, p, k, x: quantum_coefficients(e, x, x, k, p),
    "qk_constant_general": lambda e, p, k, x: qk_constant_general(e, x, x, x, k, p),
    "cor_xi_sum": lambda e, p, k, x: cor_xi_sum(e, x, x, x, k, p, p),
    "peterson_check": lambda e, p, k, x: peterson_check(e, p, k, x, x, x),
}


@pytest.mark.parametrize("name", sorted(_GATED_AT_K))
def test_a_float_node_is_refused_after_its_integer_was_gated(engine, name):
    """k = 1.0 equals 1 and hashes like it, but the gate decided for 1 must
    not answer for it: TypeError, raised ahead of the point checks, which
    would refuse s3 outside W^P with ValueError."""
    e = engine("A3")
    p = frozenset({3})
    quantum_coefficients(e, e.W.identity, e.W.identity, 1, p)
    with pytest.raises(TypeError, match=re.escape("1.0 is not an integer")):
        _GATED_AT_K[name](e, p, 1.0, e.W.simple(3))


def test_kgw3_refuses_a_class_index_outside_wp(engine):
    """On A2 with P = {2} and k = 1 the pair is admissible but not k-free, and
    s2 is not in W^P: O^{s2} is no class on G/P, so F is refused when it is
    built, before kgw3 could pair it on the k-free reduction G/B."""
    e = engine("A2")
    with pytest.raises(ValueError, match=re.escape("2 is not a minimal representative for [2]")) as info:
        f = SchubertExpansion(e.datum, {e.W.simple(2): e.ring_one()}, frozenset({2}))
        kgw3(e, e.W.identity, e.W.identity, f, 1, {2})
    assert not isinstance(info.value, GateError)


def test_qk_product_degree1_reference_row(engine):
    e = engine("A2")
    s1 = e.W.simple(1)
    prod = qk_product_degree1(e, s1, s1)
    assert {w.word_str for w in prod.classical.coeffs} == {"1", "21"}
    q1 = {w.word_str: c for w, c in prod.quantum[1].coeffs.items()}
    assert q1 == {"e": elt(e, "e(-a1)"), "2": elt(e, "-e(-a1)")}
    assert prod.quantum[2].coeffs == {}
    assert prod.skipped == ()


def test_qk_product_degree1_sp4_top_row(engine):
    e = engine("C2")
    w0 = e.W.longest()
    prod = qk_product_degree1(e, w0, w0)
    assert prod.classical.coeffs == {
        w0: elt(e, "(1-e(-a1))*(1-e(-a2))*(1-e(-a1-a2))*(1-e(-2a1-a2))")
    }
    assert prod.quantum[1].coeffs == {
        e.W.parse_word("212"): elt(e, "(1-e(-a2))*(1-e(-a1-a2))*(1-e(-2a1-a2))*e(-a1)")
    }
    assert prod.quantum[2].coeffs == {
        e.W.parse_word("121"): elt(e, "(1-e(-a1))*(1-e(-a1-a2))*(1-e(-2a1-a2))*e(-a2)")
    }


def test_qk_product_unit(engine):
    e = engine("C2")
    for v in e.W.elements():
        prod = qk_product_degree1(e, e.W.identity, v)
        assert prod.classical.coeffs == {v: e.ring_one()}
        assert all(not exp.coeffs for exp in prod.quantum.values())


def test_qk_product_records_skipped_nodes(engine):
    b2 = engine("B2")
    u = b2.W.simple(2)
    prod = qk_product_degree1(b2, u, u, {1})
    assert prod.skipped == (2,)
    assert prod.quantum == {}


def test_cor_xi_sum(engine):
    e = engine("A2")
    s1 = e.W.simple(1)
    # k-free with q == p: a single fibre term
    for w in e.W.elements():
        single = cor_xi_sum(e, s1, s1, w, 1, (), ())
        assert single == e.structure_constants(e.W.identity, e.W.identity).coeff(w)
    # hand value on the projective-plane quotient with the full-flag refinement
    assert cor_xi_sum(e, s1, s1, e.W.identity, 1, {2}, ()) == e.ring_one()
    # unit arguments: delta-like in w
    for w in weyl.enumerate_wp(e.W, {2}):
        val = cor_xi_sum(e, e.W.identity, e.W.identity, w, 1, {2}, ())
        assert val == (e.ring_one() if w is e.W.identity else e.ring_zero())
    # a k-free q that is not inside p is no refinement of it
    a3 = engine("A3")
    with pytest.raises(ValueError, match="the refinement must be contained in the parabolic"):
        cor_xi_sum(a3, a3.W.simple(1), a3.W.simple(1), a3.W.identity, 1, (), {3})


def test_cor_xi_sum_matches_general_first_sum(engine):
    e = engine("A2")
    p = {2}
    pk = weyl.build_Pk(e.datum, p, 1)
    reps = weyl.enumerate_wp(e.W, p)
    for u in reps:
        for v in reps:
            up = e.structure_constants(weyl.hecke_down(u, 1), weyl.hecke_down(v, 1), pk)
            for w in reps:
                expected = e.ring_zero()
                for z, c in up.coeffs.items():
                    if weyl.min_coset_rep(z, p) is w:
                        expected = expected + c
                assert cor_xi_sum(e, u, v, w, 1, p, pk) == expected


def test_dual_sum_refinement_comparison_reports_a_changed_constant(monkeypatch, dual_sum_refinement_mismatches):
    # criterion 08 compares the dual-class sums over P_k = {3} and over the full flag on
    # A3/{3} at k = 1; an O^e term added to c_{s2,s2} on G/{3} reaches the triples with
    # u_1 = v_1 = s2 (u, v in {2, 21}) at w = e, and no other
    e = KTEngine(named_datum("A3"))
    s2, p, real = e.W.simple(2), frozenset({3}), e.structure_constants

    def changed(u, v, parabolic=()):
        got = real(u, v, parabolic)
        if (u, v, weyl.normalize_parabolic(e.datum, parabolic)) != (s2, s2, p):
            return got
        coeffs = dict(got.coeffs)
        accumulate(coeffs, e.W.identity, e.ring_one())
        return SchubertExpansion(e.datum, coeffs, got.parabolic)

    assert dual_sum_refinement_mismatches(e, p, 1) == []
    monkeypatch.setattr(e, "structure_constants", changed)
    assert dual_sum_refinement_mismatches(e, p, 1) == [("2", "2", "e"), ("2", "21", "e"), ("21", "2", "e"), ("21", "21", "e")]


def test_vanishing_check_reports(engine):
    for label, k in [("A2", 1), ("C2", 2), ("A1", 1)]:
        e = engine(label)
        rep = vanishing_check(e, (), k)
        assert rep.passed and rep.status == "pass"
        assert rep.details["pairs_checked"] > 0
    rep = vanishing_check(engine("A2"), {2}, 1)
    assert rep.passed


def test_sign_check_reports(engine):
    for label, k in [("A2", 1), ("C2", 1), ("C2", 2)]:
        e = engine(label)
        rep = sign_check(e, (), k)
        assert rep.passed, rep.witnesses
    with pytest.raises(GateError):
        sign_check(engine("A2"), {2}, 1)


def test_sign_check_witness_arithmetic(engine):
    # the reference value N_{1,1}^{2} = -e^{-a1} has length exponent
    # 1+1-1-2 = -1 and specialization -1, so the adjusted sign is +1
    e = engine("A2")
    s1, s2 = e.W.simple(1), e.W.simple(2)
    n = qk_constant_kfree(e, s1, s1, s2, 1)
    assert n.specialize_to_one() == -1
    assert (-1) ** (s1.length + s1.length - s2.length - 2) * n.specialize_to_one() == 1


def test_equivariant_positivity_diagnostic(engine):
    e = engine("A2")
    rep = equivariant_positivity_diagnostic(e, (), 1)
    assert rep.status == "diagnostic"
    assert rep.details["conforming"] > 0
    assert rep.details["nonconforming"] == 0


def test_peterson_check(engine):
    e = engine("A2")
    p = {2}
    reps = weyl.enumerate_wp(e.W, p)
    for u in reps:
        for v in reps:
            for w in reps:
                rep = peterson_check(e, p, 1, u, v, w)
                assert rep.passed, rep.witnesses
    # Borel case: the twist is trivial and both sides coincide syntactically
    s1 = e.W.simple(1)
    assert peterson_check(e, (), 1, s1, s1, s1).passed
    # gate: C2 with the short root is rejected
    c2 = engine("C2")
    with pytest.raises(GateError):
        peterson_check(c2, {2}, 1, c2.W.simple(1), c2.W.simple(1), c2.W.simple(1))


def test_peterson_check_nontrivial_twist(engine):
    # quotient where the k-free reduction keeps a node: the twist by the
    # longest element of W_{P_k} is nontrivial
    e = engine("A3")
    p = {3}
    assert weyl.build_Pk(e.datum, p, 1) == {3}
    reps = weyl.enumerate_wp(e.W, p)
    for u, v, w in itertools.islice(itertools.product(reps, reps, reps), 0, 64, 3):
        rep = peterson_check(e, p, 1, u, v, w)
        assert rep.passed, rep.witnesses


def test_mixed_basis_identity(engine):
    # opposite third argument: the full-flag index twists by w_P w_{P_k}
    e = engine("A2")
    p = frozenset({2})
    k = 1
    pk = weyl.build_Pk(e.datum, p, k)
    wp = weyl.longest_element(e.W, p)
    wpk = weyl.longest_element(e.W, pk)
    reps = weyl.enumerate_wp(e.W, p)
    for u in reps:
        for v in reps:
            for w in reps:
                # quotient side: the opposite class, with a w_P shift, is pulled
                # back from G/P, so its G/B expansion is supported on W^P
                lhs_exp = e.expand(e.opposite_schubert_class(w * wp))
                assert all(weyl.in_wp(x, p) for x in lhs_exp.coeffs)
                lhs = kgw3(e, u, v, e.pushforward(lhs_exp, p), k, p)
                rhs_class = e.opposite_schubert_class(w * wp * wpk)
                rhs = kgw3(e, u, v, e.expand(rhs_class), k, ())
                assert lhs == rhs, (u.word_str, v.word_str, w.word_str)


def test_report_json_lines(engine):
    import json

    rep = vanishing_check(engine("A2"), (), 1)
    parsed = json.loads(rep.to_json())
    assert parsed["check"] == "vanishing"
    assert parsed["status"] == "pass"
    assert parsed["group"] == "A2"


def test_report_json_of_a_failing_report_with_witnesses_and_details():
    from qkline.qklines import CheckReport

    rep = CheckReport("sign", "A3", (1, 3), 2, "fail", (("1", "2", "e", "-1"), ("12", 21, (1, 0))), {"pairs": 6})
    assert rep.to_json() == (
        '{"check": "sign", "details": {"pairs": 6}, "group": "A3", "k": 2, "parabolic": [1, 3], '
        '"status": "fail", "witnesses": [["1", "2", "e", "-1"], ["12", "21", "(1, 0)"]]}'
    )


def test_reports_compare_by_value_and_default_to_fresh_details():
    rep = CheckReport("peterson", "A3", (1,), 2, "pass")
    same = CheckReport("peterson", "A3", (1,), 2, "pass", (), {})
    assert rep == same and not rep != same and rep.details is not same.details
    assert rep != CheckReport("peterson", "A3", (1,), 2, "pass", (), {"triples_checked": 27})
    assert rep != CheckReport("peterson", "A3", (1,), 2, "fail")
    rep.details["x"] = 1
    assert CheckReport("peterson", "A3", (1,), 2, "pass").details == {}


def test_values_refuse_assignment(engine):
    e = engine("A2")
    s1 = e.W.simple(1)
    values = [
        (e.datum, "rank"),
        (e.schubert_class(s1), "restrictions"),
        (e.structure_constants(s1, s1), "parabolic"),
        (CheckReport("peterson", "A2", (), 1, "pass"), "status"),
        (qk_product_degree1(e, s1, s1), "quantum"),
    ]
    for value, field in values:
        before = getattr(value, field)
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


def test_report_json_leaves_out_empty_details():
    from qkline.qklines import CheckReport

    rep = CheckReport("peterson", "A3", (1,), 2, "pass")
    assert rep.to_json() == (
        '{"check": "peterson", "group": "A3", "k": 2, "parabolic": [1], "status": "pass", "witnesses": []}'
    )



def _per_triple_reports(e, p, k):
    """What peterson_sweep reports, from peterson_check on each triple in
    (u, v, w) order: the failing reports, then the summary."""
    reps = weyl.enumerate_wp(e.W, p)
    reports = [peterson_check(e, p, k, *t) for t in itertools.product(reps, repeat=3)]
    details = {"triples_checked": len(reps) ** 3}
    summary = CheckReport("peterson", str(e.datum), tuple(sorted(p)), k, "pass", (), details)
    return [rep for rep in reports if not rep.passed] + [summary]


def test_peterson_sweep_reports_failures_then_summary(engine):
    # P_k is empty on A2/{2} at k = 1 and equals P on A3/{3} at k = 1 and A3/{1} at k = 3
    for group, p, k, pk in (("A2", {2}, 1, set()), ("A3", {3}, 1, {3}), ("A3", {1}, 3, {1})):
        e = engine(group)
        assert weyl.build_Pk(e.datum, p, k) == pk
        reports = peterson_sweep(e, p, k)
        assert reports == _per_triple_reports(e, p, k)
        assert [(r.status, r.details) for r in reports] == [
            ("pass", {"triples_checked": len(weyl.enumerate_wp(e.W, p)) ** 3})
        ]


def _wrong_sign_constants(engine, u, v, k, p, pk):
    """A stand-in for _fibre_sums: N_{u,v}^{e,k} = -(-1)^{l(u)+l(v)}, never zero and
    always of the wrong sign, so every pair is a vanishing and a sign witness."""
    return {engine.W.identity: engine.ring_one() * (1 if (u.length + v.length) % 2 else -1)}


def test_vanishing_and_sign_sweeps_report_their_first_eight_witnesses(engine, monkeypatch):
    from qkline import qklines

    e = engine("A2")
    reps = weyl.enumerate_wp(e.W, ())
    monkeypatch.setattr(qklines, "_fibre_sums", _wrong_sign_constants)

    def val(u, v):
        return _wrong_sign_constants(e, u, v, 1, (), ())[e.W.identity]

    rep = vanishing_check(e, (), 1)
    fixed = [(u, v) for u in reps for v in reps if weyl.hecke_down(u, 1) is u or weyl.hecke_down(v, 1) is v]
    want = sorted((u.word_str, v.word_str, "e", repr(val(u, v))) for u, v in fixed)
    assert (rep.status, rep.details) == ("fail", {"pairs_checked": len(fixed)})
    assert len(want) > 8 and rep.witnesses == tuple(want[:8])

    rep = sign_check(e, (), 1)
    pairs = [(u, v) for i, u in enumerate(reps) for v in reps[i:]]
    want = sorted((u.word_str, v.word_str, "e", str(val(u, v).specialize_to_one())) for u, v in pairs)
    assert (rep.status, rep.details) == ("fail", {"pairs_checked": len(pairs)})
    assert len(want) > 8 and rep.witnesses == tuple(want[:8])


def test_positivity_reports_a_constant_outside_the_subring(engine, monkeypatch):
    from qkline import qklines

    e = engine("A2")
    up = elt(e, "e(a1)")  # a positive exponent: not a polynomial in the e^{-alpha_i} - 1
    monkeypatch.setattr(qklines, "_fibre_sums", lambda engine, *args: {engine.W.identity: up})
    rep = equivariant_positivity_diagnostic(e, (), 1)
    reps = weyl.enumerate_wp(e.W, ())
    want = sorted((u.word_str, v.word_str, "e", "not in subring") for i, u in enumerate(reps) for v in reps[i:])
    assert (rep.status, rep.details) == ("diagnostic", {"conforming": 0, "nonconforming": len(want)})
    assert rep.witnesses == tuple(want[:8])


def test_peterson_sweep_reports_each_failing_triple(monkeypatch):
    # a fault in one structure constant of G/P_k, P_k = {3} on A3/{3} at k = 1, seen by the quotient side only
    e = KTEngine(named_datum("A3"))  # its structure constants are perturbed: not the shared engine
    p = frozenset({3})
    s1, s2 = e.W.simple(1), e.W.simple(2)
    real = e.structure_constants
    good = real(s1, s2, p)
    bad = dict(good.coeffs)
    bad[e.W.identity] = e.ring_one()  # O^{s1} . O^{s2} has no O^e term on G/P_k
    bad = SchubertExpansion(e.datum, bad, p)

    def perturbed(u, v, parabolic=()):  # the fault for {s1, s2} on {3}, in either order
        hit = {u, v} == {s1, s2} and weyl.normalize_parabolic(e.datum, parabolic) == p
        return bad if hit else real(u, v, parabolic)

    monkeypatch.setattr(e, "structure_constants", perturbed)
    reports = peterson_sweep(e, p, 1)
    assert reports == _per_triple_reports(e, p, 1)
    failing = reports[:-1]
    reps = weyl.enumerate_wp(e.W, p)
    assert 0 < len(failing) < len(reps) ** 3
    for rep in failing:
        assert (rep.check, rep.status, rep.k, rep.parabolic) == ("peterson", "fail", 1, (3,))
        (witness,) = rep.witnesses
        assert witness[:3] == (rep.details["u"], rep.details["v"], rep.details["w"])
        assert len(witness) == 5 and witness[3] != witness[4]  # the quotient value against the full flag


@pytest.mark.parametrize("group, p, k", [("A3", {1, 3}, 2), ("A3", (), 1)])
def test_peterson_sweep_computes_nothing_where_pk_is_empty(engine, monkeypatch, group, p, k):
    # with P_k empty the rows on G/P_k and on G/B are one sum: no pairing is made
    from qkline import qklines

    e = engine(group)
    assert weyl.build_Pk(e.datum, p, k) == set()

    def refuse(*args):
        raise AssertionError("a pairing row was computed")

    monkeypatch.setattr(qklines, "_pairing_row", refuse)
    n = len(weyl.enumerate_wp(e.W, p))
    summary = CheckReport("peterson", group, tuple(sorted(p)), k, "pass", (), {"triples_checked": n ** 3})
    assert peterson_sweep(e, p, k) == [summary]


def _twisted_row_failures(e, p, k):
    """(u, v, w) where the G/B pairing row against O^{w w_{P_k}} differs from the
    row against O^w, over W^P for each distinct {u_k, v_k}, with one chi table as
    in the sweep.  By the projection formula the two rows are equal."""
    from qkline import qklines

    wpk = weyl.longest_element(e.W, weyl.build_Pk(e.datum, p, k))
    reps = weyl.enumerate_wp(e.W, p)
    twisted = [w * wpk for w in reps]
    chi, seen, bad = {}, set(), []
    for u, v in itertools.product(reps, repeat=2):
        key = frozenset((weyl.hecke_down(u, k), weyl.hecke_down(v, k)))
        if key not in seen:
            seen.add(key)
            rows = (qklines._pairing_row(e, u, v, k, frozenset(), ws, chi) for ws in (reps, twisted))
            bad.extend((u.word_str, v.word_str, w.word_str) for w, a, b in zip(reps, *rows) if a != b)
    return bad


@pytest.mark.parametrize("group, p, k, pk", [("A3", {3}, 1, {3}), ("C3", {1}, 3, {1})])
def test_full_flag_pairing_is_constant_on_pk_cosets(engine, group, p, k, pk):
    e = engine(group)
    assert weyl.build_Pk(e.datum, p, k) == pk
    assert _twisted_row_failures(e, p, k) == []


def test_full_flag_pairing_at_twisted_indices_can_fail(monkeypatch):
    # a fault in one G/B constant c_{e, w_{P_k}}: at u = v = w = e the twisted row reads it, the untwisted one does not
    e = KTEngine(named_datum("A3"))  # its structure constants are perturbed: not the shared engine
    p = frozenset({3})
    wpk = weyl.longest_element(e.W, weyl.build_Pk(e.datum, p, 1))
    real = e.structure_constants
    good = real(e.W.identity, wpk, ())
    bad = SchubertExpansion(e.datum, {**good.coeffs, e.W.identity: e.ring_one()})

    def perturbed(u, v, parabolic=()):
        hit = u is e.W.identity and v is wpk and not parabolic
        return bad if hit else real(u, v, parabolic)

    monkeypatch.setattr(e, "structure_constants", perturbed)
    assert ("e", "e", "e") in _twisted_row_failures(e, p, 1)


@pytest.mark.parametrize("fault", ["class", "triangularity", "diagonal"])
def test_gkm_check_reports_each_witness_kind(engine, monkeypatch, fault):
    from qkline import qklines
    from qkline.ktheory import KTEngine

    e = engine("A2")
    elements = e.W.elements()
    if fault == "class":
        calls = []

        def violations(self, c):
            calls.append(c)
            return [(self.W.identity, (1, 0))]

        monkeypatch.setattr(KTEngine, "gkm_violations", violations)
        rep = qklines.gkm_check(e)
        # six class witnesses, then one per product until more than eight: the third product stops the sweep
        assert len(calls) == len(elements) + 3
        products = list(itertools.combinations_with_replacement(elements, 2))[:3]
        bad = [(v.word_str, "class", "e", "(1, 0)") for v in elements]
        bad += [(u.word_str, v.word_str, "e", "(1, 0)") for u, v in products]
    elif fault == "triangularity":
        monkeypatch.setattr(qklines, "bruhat_leq", lambda u, w: False)
        rep = qklines.gkm_check(e)
        points = [(v, w) for v in elements for w in e.schubert_class(v).restrictions]
        bad = [(v.word_str, "triangularity", w.word_str, "") for v, w in points]
    else:
        monkeypatch.setattr(KTEngine, "diagonal_value", lambda self, v: self.ring_zero())
        rep = qklines.gkm_check(e)
        bad = [(v.word_str, "diagonal", v.word_str, "") for v in elements]
    assert (rep.check, rep.status, rep.details) == ("gkm", "fail", {"classes": len(elements)})
    assert rep.witnesses == tuple(sorted(bad)[:8])


def test_sweep_reports_keep_eight_sorted_witnesses(engine):
    from qkline import qklines

    rep = qklines._report("demo", engine("A2"), {2}, 1, [(str(i),) for i in range(12, 0, -1)], {})
    assert rep.status == "fail" and rep.parabolic == (2,)
    assert rep.witnesses == tuple((w,) for w in sorted(str(i) for i in range(1, 13))[:8])


def test_run_suite_refuses_unknown_suite_names(engine):
    from qkline import qklines

    with pytest.raises(ValueError, match="'vanishng'; the suites are vanishing, sign, peterson, gkm, all"):
        qklines.run_suite(engine("A2"), (), "vanishng")


def test_gkm_check_and_suite_order(engine):
    from qkline import qklines

    e = engine("A2")
    gkm = qklines.gkm_check(e)
    assert (gkm.check, gkm.status, gkm.parabolic, gkm.k) == ("gkm", "pass", (), None)
    assert gkm.details == {"classes": 6}
    reports = qklines.run_suite(e, (), "all")
    assert [(r.check, r.k) for r in reports] == [
        ("vanishing", 1), ("vanishing", 2), ("sign", 1), ("sign", 2),
        ("peterson", 1), ("peterson", 2), ("gkm", None),
    ]
    assert [r.check for r in qklines.run_suite(engine("B2"), (1,), "sign")] == []


def test_a_suite_run_twice_decides_each_node_once(monkeypatch):
    # a datum no other test uses, so the first run decides every node cold
    from qkline import qklines, rootsys

    e = KTEngine(rootsys.cartan_datum(named_datum("B2").cartan, label="fresh-B2"))
    first = qklines.run_suite(e, (), "vanishing")
    calls = []
    component = rootsys.component
    monkeypatch.setattr(rootsys, "component", lambda *args: calls.append(args) or component(*args))
    assert qklines.run_suite(e, (), "vanishing") == first
    assert calls == []
