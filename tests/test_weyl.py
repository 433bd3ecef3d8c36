import itertools
import re

import pytest

from qkline import KTEngine, named_datum, rootsys, weyl
from qkline.repring import RingElt, weyl_act
from qkline.weyl import (
    WeylGroup,
    bruhat_leq,
    build_P_of_k,
    build_Pk,
    enumerate_wp,
    hecke_down,
    hecke_up,
    in_class_P,
    in_wp,
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
        assert not W._wp
        assert order == len(W.elements())
    assert group("E6").order == 51_840
    assert group("E8").order == 696_729_600


def test_elements_refuses_groups_too_large_to_enumerate():
    assert 192 <= weyl.MAX_ELEMENTS < 51_840  # D4 (benchmark) fits, E6 does not
    with pytest.raises(ValueError, match="696,729,600 elements"):
        WeylGroup(named_datum("E8")).elements()
    with pytest.raises(ValueError, match="696,729,600 elements"):
        enumerate_wp(WeylGroup(named_datum("E8")), range(2, 9))  # the walk would not build W, but |W| gates it


def test_length_equals_word_length():
    W = group("C2")
    for w in W.elements():
        assert w.length == len(w.word)
        assert W.from_word(w.word) is w


_INDEXED_CALLS = {
    "from_word": lambda W, k: W.from_word([k]),
    "left_mult_gen": lambda W, k: W.left_mult_gen(k, W.simple(2)),
    "right_mult_gen": lambda W, k: W.right_mult_gen(W.simple(2), k),
    "hecke_down": lambda W, k: hecke_down(W.simple(2), k),
    "hecke_up": lambda W, k: hecke_up(W.simple(2), k),
    "has_left_descent": lambda W, k: W.simple(2).has_left_descent(k),
    "has_right_descent": lambda W, k: W.simple(2).has_right_descent(k),
    "demazure": lambda W, k: KTEngine(W.datum).demazure(KTEngine(W.datum).schubert_class(W.simple(2)), k),
    "reflect_root_coords": lambda W, k: rootsys.reflect_root_coords(W.datum, k, (1, 0)),
    "component": lambda W, k: rootsys.component(named_datum("A3"), k, {1, 2}),
}


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("name", sorted(_INDEXED_CALLS))
def test_node_indices_below_one_are_refused(name, k):
    # Python's negative indexing read node 0 as node r and node -1 as node r - 1
    with pytest.raises(IndexError, match=f"node index {k} out of range"):
        _INDEXED_CALLS[name](group("A2"), k)


@pytest.mark.parametrize("name", sorted(_INDEXED_CALLS))
def test_node_indices_that_are_not_integers_are_refused(name):
    # 1.5 was read as no node by simple_root and has_left_descent, and indexed a tuple elsewhere
    with pytest.raises(TypeError, match="1.5 is not an integer"):
        _INDEXED_CALLS[name](group("A2"), 1.5)


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


@pytest.mark.parametrize("text", ["٣", "1٣", "s٣", "²", "1²", "s", "+2", "1_2", "s-1"])
def test_word_letters_are_ascii_digits(text):
    W = group("A3")
    with pytest.raises(ValueError, match=re.escape(f"cannot parse Weyl word {text!r}")):
        W.parse_word(text)


def test_parse_digits_reads_ascii_digits_only():
    assert [weyl.parse_digits(t) for t in ("3", "03", "12")] == [3, 3, 12]
    for text in ("٣", "²", "+2", "-2", "1_0", " 3", "3.0", ""):
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not a number")):
            weyl.parse_digits(text)


@pytest.mark.parametrize("nodes, named", [([1.7], "1.7"), ([2.0], "2.0"), ("13", "'1'")])
def test_normalize_parabolic_takes_integers_only(engine, nodes, named):
    with pytest.raises(TypeError, match=re.escape(f"{named} is not an integer")):
        weyl.normalize_parabolic(named_datum("A3"), nodes)
    e = engine("A3")
    with pytest.raises(TypeError, match=re.escape(f"{named} is not an integer")):
        e.structure_constants(e.W.simple(1), e.W.simple(1), nodes)


@pytest.mark.parametrize("label", ["A2", "G2", "B3", "D4"])
def test_parse_word_reads_what_format_word_writes(label):
    W = group(label)
    assert all(W.parse_word(w.word_str) is w for w in W.elements())


@pytest.mark.parametrize("label", ["A10", "D10"])
def test_parse_word_reads_what_format_word_writes_from_rank_10(label):
    # separated letters; neither group is enumerated
    W = group(label)
    words = [(10,), (1, 10, 9), (10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (2, 10, 3, 8, 10)]
    for word in words:
        w = W.from_word(word)
        assert W.parse_word(w.word_str) is w
        assert W.parse_word(",".join(map(str, w.word))) is w
        assert W.parse_word(" ".join(f"s{k}" for k in word)) is w
    assert " " in W.from_word((1, 10, 9)).word_str
    assert W.parse_word("10") is W.simple(10)
    with pytest.raises(ValueError, match="outside 1..10"):
        W.parse_word("12")  # one letter, s12, from rank 10 on


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
    for label in ("A3", "B3", "G2"):
        W = group(label)
        els = W.elements()
        reflections = {x * W.simple(i) * x.inverse() for x in els for i in range(1, W.rank + 1)}
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
                assert bruhat_leq(u, w) == ((u, w) in leq), (label, u.word_str, w.word_str)


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


def test_enumerate_wp_is_memoised_per_parabolic():
    W = group("A3")
    reps = enumerate_wp(W, {1, 3})
    assert enumerate_wp(W, [3, 1]) is reps
    assert enumerate_wp(W, ()) is enumerate_wp(W, frozenset())
    assert enumerate_wp(W, {2}) is not reps


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_walk_up_wp_matches_filtering_w(label):
    W = WeylGroup(named_datum(label))
    closure = frontier = {W.identity}  # W as the closure under right multiplication
    while frontier:
        frontier = {W.right_mult_gen(w, k) for w in frontier for k in range(1, W.rank + 1)} - closure
        closure = closure | frontier
    assert W.elements() == tuple(sorted(closure, key=lambda w: w.sort_key))
    for r in range(W.rank + 1):
        for p in itertools.combinations(range(1, W.rank + 1), r):
            assert enumerate_wp(W, p) == tuple(w for w in W.elements() if in_wp(w, p))


def test_enumerate_wp_does_not_build_w():
    W = WeylGroup(named_datum("D5"))  # a fresh group: nothing interned beyond the generators
    assert len(enumerate_wp(W, {2, 3, 4, 5})) == 10
    assert len(W._intern) < W.order == 1_920


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
        lam = RingElt.monomial(2, (1, -2))
        back = weyl_act(w.inverse(), weyl_act(w, lam))
        assert back == lam


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_act_weight_is_a_group_action(label):
    # (uw).lam == u.(w.lam) on the monomials of the fundamental weights, which span the lattice
    W = group(label)
    n = W.rank
    omegas = [RingElt.monomial(n, tuple(int(i == j) for i in range(n))) for j in range(n)]
    for u in W.elements():
        for w in W.elements():
            uw = u * w
            for lam in omegas:
                assert weyl_act(uw, lam) == weyl_act(u, weyl_act(w, lam))


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_act_weight_agrees_with_the_root_action_on_the_root_lattice(label):
    # independent route: convert to simple-root coordinates, apply the root table, convert back
    W = group(label)
    datum = W.datum
    lams = [rootsys.alpha_to_omega(datum, beta) for beta in W.positive_root_coords]
    for w in W.elements():
        for lam in lams:
            via_roots = rootsys.alpha_to_omega(datum, w.apply_to_root(rootsys.omega_to_alpha(datum, lam)))
            assert weyl_act(w, RingElt.monomial(W.rank, lam)) == RingElt.monomial(W.rank, via_roots)
