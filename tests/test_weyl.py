import itertools

import pytest

from qkline import named_datum, weyl
from qkline.weyl import (
    WeylGroup,
    bruhat_leq,
    build_P_of_k,
    build_Pk,
    enumerate_wp,
    hecke_down,
    hecke_up,
    in_class_P,
    is_k_free,
    longest_element,
    min_coset_rep,
    schubert_preimage,
)


def group(label):
    return WeylGroup.for_datum(named_datum(label))


def test_multiply_basic():
    W = group("A2")
    s1, s2 = W.simple(1), W.simple(2)
    assert s1 * s1 is W.identity
    assert (s1 * s2) * s1 is W.longest()
    w0 = W.longest()
    assert w0 * w0 is W.identity


def test_multiply_group_mismatch():
    with pytest.raises(weyl.GroupMismatchError):
        group("A2").simple(1) * group("C2").simple(1)


def test_group_orders():
    assert group("A1").order == 2
    assert group("A2").order == 6
    assert group("C2").order == 8
    assert group("A3").order == 24
    assert group("B3").order == 48
    assert group("G2").order == 12


def test_order_from_root_heights_without_enumeration():
    for label in ("A1", "A4", "B4", "C3", "D5", "F4", "G2"):
        W = WeylGroup(named_datum(label))  # a fresh group: nothing enumerated yet
        order = W.order
        assert W._elements is None
        assert order == len(W.elements())
    assert group("E6").order == 51_840
    assert group("E8").order == 696_729_600


def test_elements_refuses_groups_too_large_to_enumerate():
    assert 192 <= weyl.MAX_ELEMENTS < 51_840  # D4 (benchmark) fits, E6 does not
    with pytest.raises(ValueError, match="696,729,600 elements"):
        WeylGroup(named_datum("E8")).elements()


def test_length_equals_word_length():
    W = group("C2")
    for w in W.elements():
        assert w.length == len(w.word)
        assert W.from_word(w.word) is w


def test_word_parsing_forms():
    W = group("A2")
    assert W.parse_word("121") is W.longest()
    assert W.parse_word("s1 s2 s1") is W.longest()
    assert W.parse_word("1 2 1") is W.longest()
    assert W.parse_word("e") is W.identity
    assert W.parse_word("") is W.identity
    assert W.parse_word("212") is W.parse_word("121")
    assert W.longest().word_str == "121"
    with pytest.raises(ValueError):
        W.parse_word("13")
    with pytest.raises(ValueError):
        W.parse_word("zz")


def test_bruhat_examples():
    W = group("A2")
    s1, s2 = W.simple(1), W.simple(2)
    assert bruhat_leq(s1, s2 * s1)
    assert not bruhat_leq(s1 * s2, s2 * s1)
    for w in W.elements():
        assert bruhat_leq(W.identity, w)


def test_bruhat_is_partial_order():
    W = group("C2")
    els = W.elements()
    for u in els:
        assert bruhat_leq(u, u)
        for v in els:
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u is v
            for w in els:
                if bruhat_leq(u, v) and bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


def test_bruhat_agrees_with_reflection_cover_oracle():
    # independent oracle: transitive closure of covers w = u*t, t a
    # reflection, with a length jump of exactly one
    W = group("A3")
    els = W.elements()
    reflections = {x * W.simple(i) * x.inverse() for x in els for i in (1, 2, 3)}
    leq = {(u, u) for u in els}
    covers = {
        (u, u * t)
        for u in els
        for t in reflections
        if (u * t).length == u.length + 1
    }
    frontier = set(covers)
    while frontier:
        leq |= frontier
        frontier = {
            (a, d) for (a, b) in frontier for (c, d) in covers if b is c
        } - leq
    for u in els:
        for w in els:
            assert bruhat_leq(u, w) == ((u, w) in leq), (u.word_str, w.word_str)


def test_min_coset_rep():
    W = group("A2")
    p = {2}
    s1, s2 = W.simple(1), W.simple(2)
    assert min_coset_rep(s1 * s2, p) is s1
    assert min_coset_rep(s2 * s1, p) is s2 * s1
    assert min_coset_rep(W.identity, p) is W.identity
    for w in W.elements():
        rep = min_coset_rep(w, p)
        assert min_coset_rep(rep, p) is rep


def test_enumerate_wp():
    W = group("A2")
    reps = enumerate_wp(W, {2})
    assert [w.word_str for w in reps] == ["e", "1", "21"]
    assert len(enumerate_wp(W, ())) == 6
    assert [w.word_str for w in enumerate_wp(group("A1"), ())] == ["e", "1"]


def test_wp_size_divides_group_order():
    for label in ("A3", "C3", "G2"):
        W = group(label)
        n = W.datum.rank
        for r in range(n + 1):
            for p in itertools.combinations(range(1, n + 1), r):
                wp = enumerate_wp(W, p)
                sub = longest_element(W, p)
                members = {W.identity}
                frontier = [W.identity]
                while frontier:
                    nxt = []
                    for w in frontier:
                        for i in p:
                            u = W.right_mult_gen(w, i)
                            if u not in members:
                                members.add(u)
                                nxt.append(u)
                    frontier = nxt
                assert sub in members
                assert len(wp) * len(members) == W.order


def test_hecke_examples():
    W = group("A2")
    s1, s2 = W.simple(1), W.simple(2)
    w0 = W.longest()
    assert hecke_down(w0, 1) is s1 * s2
    assert hecke_down(s2, 1) is s2
    assert hecke_down(W.identity, 1) is W.identity
    assert hecke_up(s2, 1) is s2 * s1
    assert hecke_up(s1, 1) is s1
    assert hecke_up(w0, 1) is w0
    assert hecke_up(w0, 2) is w0


def test_hecke_idempotence_and_composition():
    W = group("C2")
    for w in W.elements():
        for k in (1, 2):
            down, up = hecke_down(w, k), hecke_up(w, k)
            assert hecke_down(down, k) is down
            assert hecke_up(up, k) is up
            assert not down.has_right_descent(k)
            assert up.has_right_descent(k)
            assert hecke_up(down, k) is W.right_mult_gen(down, k)


def test_minimal_representative_lemma_for_k_free():
    # for k-free P every Hecke move preserves minimality
    for label in ("A3", "B3"):
        W = group(label)
        n = W.datum.rank
        for r in range(n):
            for p in itertools.combinations(range(1, n + 1), r):
                for k in range(1, n + 1):
                    if k in p or not is_k_free(W.datum, p, k):
                        continue
                    for w in enumerate_wp(W, p):
                        assert min_coset_rep(hecke_down(w, k), p) is hecke_down(w, k)
                        assert min_coset_rep(hecke_up(w, k), p) is hecke_up(w, k)


def test_minimal_representative_needs_k_free():
    # negative control: P = {2} in A2 is not 1-free and the lemma fails
    W = group("A2")
    p = {2}
    w = W.simple(2) * W.simple(1)
    reps = enumerate_wp(W, p)
    assert w in reps
    down = hecke_down(w, 1)
    assert down is W.simple(2)
    assert min_coset_rep(down, p) is not down


def test_is_k_free():
    a2 = named_datum("A2")
    assert not is_k_free(a2, {2}, 1)
    assert is_k_free(a2, (), 1)
    assert is_k_free(named_datum("A3"), {3}, 1)
    with pytest.raises(ValueError):
        is_k_free(a2, {1}, 1)


def test_in_class_P():
    b2 = named_datum("B2")
    assert not in_class_P(b2, {1}, 2)  # alpha_2 short, component not simply laced
    assert in_class_P(b2, {2}, 1)  # alpha_1 long
    a3 = named_datum("A3")
    for p in ((), (2,), (3,), (2, 3)):
        assert in_class_P(a3, p, 1)  # simply laced: always admissible
    c2 = named_datum("C2")
    assert in_class_P(c2, (), 1)  # Borel is always admissible
    assert not in_class_P(c2, {2}, 1)
    with pytest.raises(ValueError):
        in_class_P(b2, {2}, 2)


def test_build_parabolics():
    a2 = named_datum("A2")
    assert build_Pk(a2, {2}, 1) == frozenset()
    assert build_P_of_k(a2, {2}, 1) == {1}
    assert build_P_of_k(a2, (), 2) == {2}
    a3 = named_datum("A3")
    assert build_Pk(a3, {3}, 1) == {3}  # already k-free: unchanged
    b3 = named_datum("B3")
    assert build_Pk(b3, {1, 3}, 2) == frozenset()


def test_longest_element():
    W = group("A2")
    assert longest_element(W, (1, 2)) is W.longest()
    assert longest_element(W, (2,)) is W.simple(2)
    assert longest_element(W, ()) is W.identity
    w0 = W.longest()
    assert w0 * w0 is W.identity
    assert longest_element(group("C2"), (1, 2)).length == 4


def test_schubert_preimage_examples():
    W = group("A2")
    s1 = W.simple(1)
    assert schubert_preimage(s1, {2}, ()) is s1 * W.simple(2)
    # full preimage of a point class is the whole fibre
    assert schubert_preimage(W.identity, {2}, ()) is W.simple(2)
    assert schubert_preimage(s1, {2}, {2}) is s1
    with pytest.raises(ValueError):
        schubert_preimage(s1, (), {2})


def test_schubert_preimage_is_bruhat_maximal_in_fibre():
    for label in ("A3", "C2"):
        W = group(label)
        n = W.datum.rank
        for q in ({1}, {2}, set(range(1, n + 1)) - {1}):
            for u in enumerate_wp(W, q):
                hat = schubert_preimage(u, q, ())
                fibre = [v for v in W.elements() if min_coset_rep(v, q) is u]
                assert hat in fibre
                assert all(bruhat_leq(v, hat) for v in fibre)


def test_length_additivity_on_parabolic_factorization():
    for label in ("A2", "C2", "A3", "B3"):
        W = group(label)
        n = W.datum.rank
        for p in itertools.combinations(range(1, n + 1), 1):
            wp_members = [w for w in W.elements() if set(w.word) <= set(p)]
            for u in enumerate_wp(W, p):
                for x in wp_members:
                    assert (u * x).length == u.length + x.length


def test_projected_bruhat_order_agrees_on_minimal_representatives():
    W = group("A3")
    p = {2}
    wp_members = [w for w in W.elements() if set(w.word) <= p]
    reps = enumerate_wp(W, p)
    for u in reps:
        for w in reps:
            projected = any(
                bruhat_leq(u * x, w * y) for x in wp_members for y in wp_members
            )
            assert projected == bruhat_leq(u, w)


def test_inverse_and_weight_action():
    W = group("C2")
    for w in list(W.elements())[:8]:
        assert w * w.inverse() is W.identity
        lam = (1, -2)
        back = w.inverse().act_weight(w.act_weight(lam))
        assert back == lam
