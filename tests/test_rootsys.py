import re

import pytest

from qkline import rootsys
from qkline.repring import RingElt, weyl_act
from qkline.rootsys import (
    CartanError,
    _inverse_cartan,
    adjacent,
    alpha_to_omega,
    cartan_datum,
    is_long,
    named_datum,
    omega_to_alpha,
    parse_cartan_file,
    positive_roots,
    reflect,
    simple_root,
)
from qkline.weyl import WeylGroup


def coords(datum):
    return list(positive_roots(datum))


def test_positive_roots_a2():
    assert coords(named_datum("A2")) == [(1, 0), (0, 1), (1, 1)]


def test_positive_roots_c2_has_long_root():
    # alpha_1 short: the long positive root is 2alpha_1 + alpha_2
    assert coords(named_datum("C2")) == [(1, 0), (0, 1), (1, 1), (2, 1)]


def test_positive_roots_a1():
    assert coords(named_datum("A1")) == [(1,)]


@pytest.mark.parametrize(
    "label,count",
    [("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10), ("B2", 4), ("C2", 4),
     ("B3", 9), ("C3", 9), ("B4", 16), ("C4", 16), ("D3", 6), ("D4", 12), ("D5", 20), ("D6", 30),
     ("G2", 6), ("F4", 24)],
)
def test_positive_root_counts(label, count):
    assert len(positive_roots(named_datum(label))) == count


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_type_d_nodes_n_minus_1_and_n_hang_off_node_n_minus_2(n):
    d = named_datum(f"D{n}")
    edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if adjacent(d, i, j)}
    assert edges == {(i, i + 1) for i in range(1, n - 1)} | {(n - 2, n)}


def test_adjacency():
    assert adjacent(named_datum("A2"), 1, 2)
    assert not adjacent(named_datum("A3"), 1, 3)
    assert adjacent(named_datum("C2"), 1, 2)
    with pytest.raises(ValueError):
        adjacent(named_datum("A2"), 1, 1)
    with pytest.raises(IndexError):
        adjacent(named_datum("A2"), 1, 3)


def test_is_long():
    c2 = named_datum("C2")
    assert is_long(c2, 2)
    assert not is_long(c2, 1)
    b2 = named_datum("B2")
    assert is_long(b2, 1)
    assert not is_long(b2, 2)
    # simply laced: every root is long
    assert is_long(named_datum("A2"), 1)
    assert is_long(named_datum("D4"), 3)
    assert rootsys.component(named_datum("A3"), 1, {1, 3}) == {1}
    assert rootsys.component(named_datum("D4"), 4, {1, 2, 4}) == {1, 2, 4}


def test_simple_root_in_weight_coordinates():
    a2 = named_datum("A2")
    assert alpha_to_omega(a2, simple_root(a2, 1)) == (2, -1)  # first column of the Cartan matrix
    c2 = named_datum("C2")
    assert alpha_to_omega(c2, simple_root(c2, 2)) == (-2, 2)


@pytest.mark.parametrize("convert", [alpha_to_omega, omega_to_alpha])
@pytest.mark.parametrize("coords", [(3,), (1, 0, 5)])
def test_conversions_refuse_coordinates_of_the_wrong_length(convert, coords):
    with pytest.raises(ValueError, match=re.escape(f"coordinates {coords} do not have length 2, the rank of A2")):
        convert(named_datum("A2"), coords)


@pytest.mark.parametrize(
    "read, coords, match",
    [
        pytest.param(lambda d, c: reflect(d, 1, c), (1, 0, 5), None, id="reflect"),
        pytest.param(
            lambda d, c: weyl_act(WeylGroup.for_datum(d).simple(1), RingElt.monomial(len(c), c)),
            (1, 0, 5),
            "rank mismatch between ring element and root datum",
            id="act_weight",
        ),
        pytest.param(
            lambda d, c: weyl_act(WeylGroup.for_datum(d).identity, RingElt.monomial(len(c), c)),
            (1, 0, 5),
            "rank mismatch between ring element and root datum",
            id="identity-act_weight",
        ),
        pytest.param(lambda d, c: WeylGroup.for_datum(d).simple(1).apply_to_root(c), (1,), None, id="apply_to_root"),
        pytest.param(lambda d, c: rootsys.root_pairing(d, c, (1, 0)), (1, 0, 7), None, id="root_pairing-gamma"),
        pytest.param(lambda d, c: rootsys.root_pairing(d, (1, 0), c), (1,), None, id="root_pairing-beta"),
        pytest.param(lambda d, c: rootsys.reflect_root_coords(d, 1, c), (1, 0, 5), None, id="reflect_root_coords"),
    ],
)
def test_coordinate_readers_refuse_tuples_of_the_wrong_length(read, coords, match):
    # the Weyl action reads a ring element, whose exponents have the element's rank
    match = match or re.escape(f"coordinates {coords} do not have length 2, the rank of A2")
    with pytest.raises(ValueError, match=match):
        read(named_datum("A2"), coords)


def test_reflect_examples():
    a1 = named_datum("A1")
    assert reflect(a1, 1, (1,)) == (-1,)
    a2 = named_datum("A2")
    alpha1 = alpha_to_omega(a2, simple_root(a2, 1))
    alpha2 = alpha_to_omega(a2, simple_root(a2, 2))
    assert reflect(a2, 1, alpha1) == tuple(-x for x in alpha1)
    assert reflect(a2, 1, alpha2) == tuple(x + y for x, y in zip(alpha1, alpha2))


def test_reflect_is_involutive():
    for label in ("A2", "C2", "G2"):
        datum = named_datum(label)
        for lam in [(1, 0), (0, 1), (2, -3)]:
            for i in (1, 2):
                assert reflect(datum, i, reflect(datum, i, lam)) == lam


def test_simple_reflection_permutes_other_positive_roots():
    for label in ("A2", "B2", "C3", "G2"):
        datum = named_datum(label)
        pos = set(positive_roots(datum))
        for i in range(1, datum.rank + 1):
            alpha_i = simple_root(datum, i)
            images = set()
            for c in pos:
                img = rootsys.reflect_root_coords(datum, i, c)
                neg = tuple(-x for x in img)
                assert img in pos or neg in pos
                if c != alpha_i:
                    assert img in pos
                    images.add(img)
            assert images == pos - {alpha_i}


def test_root_weight_roundtrip():
    datum = named_datum("C3")
    for r in positive_roots(datum):
        assert omega_to_alpha(datum, alpha_to_omega(datum, r)) == r


def test_rejects_non_cartan_input():
    with pytest.raises(CartanError):
        cartan_datum([[2, -1], [0, 2]])  # broken zero symmetry
    with pytest.raises(CartanError):
        cartan_datum([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(CartanError):
        cartan_datum([[2, -2], [-2, 2]])  # affine: not positive definite
    for pivot_at_most_zero in (
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2~: the third pivot is 0
        [[2, -1, 0], [-1, 2, -2], [0, -2, 2]],  # the third pivot is -2/3
    ):
        with pytest.raises(CartanError, match="not of finite type"):
            cartan_datum(pivot_at_most_zero)
    with pytest.raises(CartanError):
        cartan_datum([[1]])


def test_ragged_matrix_is_refused_for_its_shape():
    # the shape is checked before the symmetrizer is solved, which indexes a[j][i]
    with pytest.raises(CartanError, match="rank x rank"):
        cartan_datum([[2], [-1, 2]])


def test_named_type_errors():
    for bad in ("H3", "B1", "Q2", "E9", "", "A٣", "a٢", "C²"):
        with pytest.raises(CartanError):
            named_datum(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("٢\n2 -1\n-1 2\n", "bad integer in Cartan file: '٢'"),
        ("2\n2 -١\n-1 2\n", "bad integer in Cartan file: '-١'"),
        ("2\n2 +1\n-1 2\n", "bad integer in Cartan file: '+1'"),
        ("2 9\n2 -1\n-1 2\n", "the rank line of a Cartan file holds one number, got '2 9'"),
    ],
)
def test_cartan_file_reads_one_signed_ascii_rule(text, message):
    with pytest.raises(CartanError, match=re.escape(message)):
        parse_cartan_file(text)


@pytest.mark.parametrize(
    "matrix, symmetrizer, named",
    [
        ([[2, -1.5], [-1, 2]], None, "-1.5"),
        ([[2, -1], [-1, 2]], (1.9, 1), "1.9"),
    ],
)
def test_cartan_datum_takes_integers_only(matrix, symmetrizer, named):
    with pytest.raises(TypeError, match=re.escape(f"{named} is not an integer")):
        cartan_datum(matrix, symmetrizer)


def test_parse_cartan_file():
    datum = parse_cartan_file("2\n2 -2\n-1 2\n")
    assert datum.cartan == named_datum("C2").cartan
    assert datum.symmetrizer == (1, 2)
    with_symm = parse_cartan_file("2\n2 -2\n-1 2\n2 4\n")
    assert with_symm.symmetrizer == (2, 4)
    with pytest.raises(CartanError):
        parse_cartan_file("2\n2 -1\n")
    with pytest.raises(CartanError):
        parse_cartan_file("")


def test_symmetrizer_matches_bourbaki():
    assert named_datum("B3").symmetrizer == (2, 2, 1)
    assert named_datum("C3").symmetrizer == (1, 1, 2)
    assert named_datum("G2").symmetrizer == (1, 3)
    assert named_datum("F4").symmetrizer == (2, 2, 1, 1)


def test_omega_to_alpha_in_integers():
    import itertools

    labels = ("A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8", "B5", "C4", "D5")
    a1_times_a2 = cartan_datum([[2, 0, 0], [0, 2, -1], [0, -1, 2]])  # decomposable
    for datum in [named_datum(label) for label in labels] + [a1_times_a2]:
        den, adj = _inverse_cartan(datum)
        n = datum.rank
        # adj is den * A^{-1}: an integer matrix with A . adj = den * I
        assert all(isinstance(x, int) for row in adj for x in row)
        for i, j in itertools.product(range(n), repeat=2):
            assert sum(datum.cartan[i][m] * adj[m][j] for m in range(n)) == den * (i == j)
        for alpha in itertools.product(range(-2, 3), repeat=min(n, 3)):
            alpha = alpha + (0,) * (n - len(alpha))
            assert omega_to_alpha(datum, alpha_to_omega(datum, alpha)) == alpha
    # omega_1 of A2 is (2 alpha_1 + alpha_2) / 3: not in the root lattice
    assert omega_to_alpha(named_datum("A2"), (1, 0)) is None
    assert omega_to_alpha(named_datum("A2"), (3, 0)) == (2, 1)
