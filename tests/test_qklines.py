import itertools

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
from qkline.ktheory import SchubertExpansion
from qkline.repring import parse_expression


def elt(engine, text):
    return parse_expression(engine.datum, text)


def exp_one(engine, word, p=()):
    w = engine.W.parse_word(word)
    return SchubertExpansion({w: engine.ring_one()}, weyl.normalize_parabolic(engine.datum, p))


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
    assert qk_constant_kfree(e, s1, s1, e.W.identity, 1).value == elt(e, "e(-a1)")
    assert qk_constant_kfree(e, s1, s1, e.W.simple(2), 1).value == elt(e, "-e(-a1)")

    c2 = engine("C2")
    s2 = c2.W.simple(2)
    got = qk_constant_kfree(c2, s2, s2, c2.W.parse_word("21"), 2)
    assert got.value == elt(c2, "e(-a1-a2)")


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
            qk_constant_divided_difference(e, u, v, w, k).value
            == qk_constant_kfree(e, u, v, w, k).value
        )
    # Hecke-fixed first argument: both routes give zero
    for w in e.W.elements():
        assert qk_constant_divided_difference(e, s2, s1, w, 1).value == e.ring_zero()


def test_route_equality_full_sweep_rank2(engine):
    for label in ("A2", "B2", "C2", "G2"):
        e = engine(label)
        els = e.W.elements()
        for u in els:
            for v in els:
                for k in (1, 2):
                    general = quantum_coefficients(e, u, v, k)
                    for w in els:
                        a = qk_constant_kfree(e, u, v, w, k).value
                        b = qk_constant_divided_difference(e, u, v, w, k).value
                        c = general.get(w, e.ring_zero())
                        assert a == b == c, (label, u.word_str, v.word_str, w.word_str, k)


def test_qk_constant_general_hand_values(engine):
    # projective-plane quotient of A2: hand-evaluated coset-fibre sums
    e = engine("A2")
    p = {2}
    s1 = e.W.simple(1)
    v21 = e.W.parse_word("21")
    assert qk_constant_general(e, s1, s1, e.W.identity, 1, p).value == e.ring_zero()
    assert qk_constant_general(e, v21, v21, s1, 1, p).value == elt(e, "e(-a2)")


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


def test_qk_constant_general_gate(engine):
    b2 = engine("B2")
    u = b2.W.simple(2)
    with pytest.raises(GateError):
        qk_constant_general(b2, u, u, u, 2, {1})


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
    n = qk_constant_kfree(e, s1, s1, s2, 1).value
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
                # quotient side: the opposite class pulls back with a w_P shift
                lhs_class = e.opposite_schubert_class(w * wp)
                lhs = kgw3(e, u, v, e.expand(lhs_class, p), k, p)
                rhs_class = e.opposite_schubert_class(w * wp * wpk)
                rhs = kgw3(e, u, v, e.expand(rhs_class, ()), k, ())
                assert lhs == rhs, (u.word_str, v.word_str, w.word_str)


def test_report_json_lines(engine):
    import json

    rep = vanishing_check(engine("A2"), (), 1)
    parsed = json.loads(rep.to_json())
    assert parsed["check"] == "vanishing"
    assert parsed["status"] == "pass"
    assert parsed["group"] == "A2"



def test_peterson_sweep_reports_failures_then_summary(engine, monkeypatch):
    from qkline import qklines

    e = engine("A2")
    reps = weyl.enumerate_wp(e.W, {2})
    calls = []
    real = qklines.peterson_check

    def counted(*args):
        calls.append(args[3:])
        return real(*args)

    monkeypatch.setattr(qklines, "peterson_check", counted)
    reports = qklines.peterson_sweep(e, {2}, 1)
    assert calls == list(itertools.product(reps, repeat=3))  # once per triple
    assert [(r.check, r.status, r.details) for r in reports] == [
        ("peterson", "pass", {"triples_checked": len(reps) ** 3})
    ]


def test_sweep_reports_keep_eight_sorted_witnesses(engine):
    from qkline import qklines

    rep = qklines._report("demo", engine("A2"), {2}, 1, [(str(i),) for i in range(12, 0, -1)], {})
    assert rep.status == "fail" and rep.parabolic == (2,)
    assert rep.witnesses == tuple((w,) for w in sorted(str(i) for i in range(1, 13))[:8])


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
