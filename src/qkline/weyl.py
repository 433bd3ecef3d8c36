"""Weyl group elements and parabolic combinatorics.

An element is stored by its root-image table: the tuple
``(w(alpha_1), ..., w(alpha_r))`` of images of the simple roots, each in
simple-root coordinates.  A group interns its elements by table, so one
table gives one object: equality and hashing are object identity, and
per-element caches are shared: the reduced word, the inversions, the descent
flags and the neighbours ``w s_k`` and ``s_k w``, which w's methods ``right_mult_gen``
and ``left_mult_gen`` intern in w's own group.  A flag or neighbour is read only
after ``rootsys.check_index``: node 0 or -1 would read from the end.

Words are exchanged with the outside world as digit strings: ``"121"`` means
``s_1 s_2 s_1`` (applied right to left as maps), ``"e"`` or ``""`` is the
identity; from rank 10 on, letters are separated by spaces, as in
``"1 10 9"``.  The canonical emitted word is the lexicographically minimal
reduced word.

Membership: ``WeylGroup.require(*points, parabolic=P)`` is the one check that
points are in a group (``GroupMismatchError``), then in ``W^P`` (``ValueError``);
a class or an expansion runs it once when built and is read-only after.

Degree one: ``degree_one_decision`` owns P_k and the admissibility of
(P, alpha_k).  It normalises P and converts k itself before it reads its memo,
so callers pass the values they hold; ``build_Pk``, ``in_class_P``,
``is_k_free``, the quantum gate, the suites and the divided difference all read it.

Immutability: elements never change after interning, and ``for_datum`` keeps
the first group stored per datum.  The memos (coset enumerations, W being the
one for P empty, and degree-one decisions) and the per-element caches only grow,
with identical recomputed entries: concurrent readers are safe, writers at worst repeat work.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import rootsys
from .rootsys import CartanDatum, parse_digits


# Largest |W| whose quotients enumerate_wp enumerates.  A Schubert class on G/B
# is a function on all of W, so the classes of a group this size already hold
# millions of ring elements.  The walk up W^P never builds W, but the test is
# still on |W|, so every quotient of a larger group is refused as well.  The
# demos and the benchmark enumerate at most D4 (192), the tests D5 (1,920);
# A6 (5,040) still fits, while A7 (40,320), E6 (51,840) and E8 (696,729,600)
# are refused.
MAX_ELEMENTS = 10_000


class GroupMismatchError(ValueError):
    """Operands belong to different Weyl groups."""


class WeylElement:
    """An element of a Weyl group.  Only its group makes one (``intern``,
    ``from_word``, ``parse_word``), so one table is one object, and equality
    and hashing are the default object identity."""

    __slots__ = ("group", "table", "_word", "_inversions", "_right_descents", "_left_descents", "_right", "_left")

    def __init__(self, group: "WeylGroup", table: tuple[tuple[int, ...], ...]):
        self.group = group
        self.table = table
        self._word = self._inversions = self._left_descents = None
        self._right_descents = tuple(any(x < 0 for x in col) for col in table)
        self._right, self._left = [None] * group.rank, [None] * group.rank  # w s_k and s_k w at k - 1

    def __repr__(self):
        return f"W[{self.word_str}]"

    # -- basic structure ----------------------------------------------------

    def apply_to_root(self, coords) -> tuple[int, ...]:
        """Image of a root (simple-root coordinates) under this element."""
        rootsys.check_coords(self.group.datum, coords)
        n = self.group.rank
        table = self.table
        out = [0] * n
        for j, c in enumerate(coords):
            if c:
                col = table[j]
                for i in range(n):
                    out[i] += c * col[i]
        return tuple(out)

    @property
    def length(self) -> int:
        return len(self.inversions)

    @property
    def inversions(self) -> tuple[tuple[int, ...], ...]:
        """Positive roots sent to negative ones by the inverse element:
        ``{beta > 0 : w^{-1}(beta) < 0}``, i.e. ``w(R^-) \\cap R^+``."""
        if self._inversions is None:
            inv = []
            for beta in self.group.positive_root_coords:
                img = self.apply_to_root(beta)
                if any(x < 0 for x in img):
                    inv.append(tuple(-x for x in img))
            self._inversions = tuple(sorted(inv))
        return self._inversions

    def has_right_descent(self, k: int) -> bool:
        """ell(w s_k) < ell(w), read off the sign of w(alpha_k)."""
        rootsys.check_index(self.group.datum, k)
        return self._right_descents[k - 1]

    def right_descents(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.group.rank + 1) if self.has_right_descent(k))

    def has_left_descent(self, k: int) -> bool:
        """ell(s_k w) < ell(w) iff alpha_k is an inversion of w, one of height one."""
        rootsys.check_index(self.group.datum, k)
        if self._left_descents is None:
            simple = {beta.index(1) for beta in self.inversions if sum(beta) == 1}
            self._left_descents = tuple(i in simple for i in range(self.group.rank))
        return self._left_descents[k - 1]

    @property
    def word(self) -> tuple[int, ...]:
        """Lexicographically minimal reduced word."""
        if self._word is None:
            if self is self.group.identity:
                self._word = ()
            else:
                k = next(i for i in range(1, self.group.rank + 1) if self.has_left_descent(i))
                self._word = (k,) + self.left_mult_gen(k).word
        return self._word

    @property
    def word_str(self) -> str:
        if self is self.group.identity:
            return "e"
        if self.group.rank <= 9:
            return "".join(str(k) for k in self.word)
        return " ".join(str(k) for k in self.word)

    @property
    def sort_key(self):
        return (self.length, self.word)

    # -- products -----------------------------------------------------------

    def right_mult_gen(self, k: int) -> "WeylElement":
        """w s_k via the column update w(s_k alpha_i) = w(alpha_i) - A[k][i] w(alpha_k)
        (A[k][k] = 2 negates column k), interned in w's group; cached on w and, as
        (w s_k) s_k = w, on the product."""
        rootsys.check_index(self.group.datum, k)
        got = self._right[k - 1]
        if got is None:
            colk, cols = self.table[k - 1], zip(self.table, self.group.datum.cartan[k - 1])
            got = self.group.intern(tuple(tuple(x - c * y for x, y in zip(col, colk)) if c else col for col, c in cols))
            got._right[k - 1], self._right[k - 1] = self, got
        return got

    def left_mult_gen(self, k: int) -> "WeylElement":
        """s_k w, applying s_k to every column of the table, interned in w's group;
        cached on w and, as s_k (s_k w) = w, on the product."""
        rootsys.check_index(self.group.datum, k)
        got = self._left[k - 1]
        if got is None:
            got = self.group.intern(tuple(rootsys.reflect_root_coords(self.group.datum, k, col) for col in self.table))
            got._left[k - 1], self._left[k - 1] = self, got
        return got

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        self.group.require(other)
        return self.group.intern(tuple(self.apply_to_root(col) for col in other.table))

    def inverse(self) -> "WeylElement":
        return self.group.from_word(reversed(self.word))


class WeylGroup:
    """The Weyl group of a Cartan datum, with interned elements."""

    _shared: dict[CartanDatum, "WeylGroup"] = {}  # for_datum's groups

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.positive_root_coords = rootsys.positive_roots(datum)
        self._intern: dict[tuple, WeylElement] = {}
        self._wp: dict[frozenset[int], tuple[WeylElement, ...]] = {}
        n = datum.rank
        self.identity = self.intern(tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n)))

    @classmethod
    def for_datum(cls, datum: CartanDatum) -> "WeylGroup":
        """The shared group of ``datum``: the first one stored, for every caller."""
        got = cls._shared.get(datum)
        if got is None:  # setdefault is atomic under the GIL, as in intern: a racing miss gets the first group
            got = cls._shared.setdefault(datum, cls(datum))
        return got

    def require(self, *points: WeylElement, parabolic: frozenset[int] = frozenset()) -> None:
        """GroupMismatchError for a point of another group, then ValueError for one outside W^P."""
        for w in points:
            if w.group is not self:
                raise GroupMismatchError(f"{w!r} of {w.group.datum} is not in the Weyl group of {self.datum}")
        for w in points if parabolic else ():
            if not in_wp(w, parabolic):
                raise ValueError(f"{w.word_str} is not a minimal representative for {sorted(parabolic)}")

    def intern(self, table) -> WeylElement:
        el = self._intern.get(table)
        if el is None:
            # setdefault on a tuple key is atomic under the GIL: a thread that
            # loses the race returns the winner's element, so equality stays identity
            el = self._intern.setdefault(table, WeylElement(self, table))
        return el

    def simple(self, k: int) -> WeylElement:
        return self.identity.left_mult_gen(k)

    def from_word(self, word) -> WeylElement:
        w = self.identity
        for k in word:
            w = w.right_mult_gen(k)
        return w

    def parse_word(self, text: str) -> WeylElement:
        """Parse "121", "s1 s2 s1", "1 2 1", "e" or "" into an element."""
        text = text.strip()
        if text in ("", "e", "id"):
            return self.identity
        letters: list[int] = []
        try:
            for tok in text.replace(",", " ").split():
                digits = tok.removeprefix("s")
                one_letter = tok != digits or self.rank > 9
                letters.extend(map(parse_digits, [digits] if one_letter else digits))
        except ValueError:
            raise ValueError(f"cannot parse Weyl word {text!r}") from None
        if any(not 1 <= k <= self.rank for k in letters):
            raise ValueError(f"word {text!r} uses letters outside 1..{self.rank}")
        return self.from_word(letters)

    def elements(self) -> tuple[WeylElement, ...]:
        """All of W, sorted by (length, lex-minimal word): W^P for P empty."""
        return enumerate_wp(self, ())

    @property
    def order(self) -> int:
        """|W| = prod (m + 1) over the exponents m, read off the positive-root
        heights without enumerating W: exponent m occurs n_m - n_{m+1} times,
        where n_m is the number of positive roots of height m."""
        heights = Counter(sum(beta) for beta in self.positive_root_coords)
        order = 1
        for m, n in heights.items():
            order *= (m + 1) ** (n - heights[m + 1])
        return order

    def longest(self) -> WeylElement:
        return longest_element(self, range(1, self.rank + 1))


# -- parabolic machinery -----------------------------------------------------

def normalize_parabolic(datum: CartanDatum, nodes) -> frozenset[int]:
    p = frozenset(map(rootsys.as_int, nodes))
    for i in p:
        if not 1 <= i <= datum.rank:
            raise IndexError(f"parabolic node {i} out of range 1..{datum.rank}")
    return p


def in_wp(w: WeylElement, p: frozenset[int]) -> bool:
    """w in W^P iff w(alpha_i) > 0 for every i in Delta_P."""
    return all(not w.has_right_descent(i) for i in p)


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the lifting property: for a right descent k of w,
    u <= w iff min(u, u s_k) <= w s_k."""
    w.group.require(u)
    while u is not w:
        if u.length >= w.length:
            return False
        k = w.right_descents()[0]
        u = hecke_down(u, k)
        w = w.right_mult_gen(k)
    return True


def min_coset_rep(w: WeylElement, p) -> WeylElement:
    """The minimal-length representative of w W_P: w itself, unchecked, when P is empty."""
    return _right_walk(w, normalize_parabolic(w.group.datum, p), True) if p else w


def _right_walk(w: WeylElement, p: frozenset[int], descent: bool) -> WeylElement:
    """Right-multiply w by s_i, i in p, wherever w has (``descent``) or lacks a
    right descent at i, in passes over sorted(p) until a pass changes nothing."""
    changed = True
    while changed:
        changed = False
        for i in sorted(p):
            if w.has_right_descent(i) == descent:
                w = w.right_mult_gen(i)
                changed = True
    return w


def enumerate_wp(group: WeylGroup, p) -> tuple[WeylElement, ...]:
    """All minimal coset representatives W^P, sorted by (length, word), memoised
    per P; a group with more than MAX_ELEMENTS elements raises ValueError.

    W^P is walked up from the identity one length at a time without building W:
    if y in W^P and s_k y < y then s_k y in W^P, so every element of length
    n + 1 is s_k x for an x of length n that has no left descent at k."""
    p = normalize_parabolic(group.datum, p)
    got = group._wp.get(p)
    if got is None:
        if group.order > MAX_ELEMENTS:
            raise ValueError(
                f"the Weyl group of {group.datum} has {group.order:,} elements, "
                f"more than the {MAX_ELEMENTS:,} this engine enumerates"
            )
        ks, level = range(1, group.rank + 1), [group.identity]
        found = list(level)
        while level:
            up = {x.left_mult_gen(k) for x in level for k in ks if not x.has_left_descent(k)}
            level = sorted((y for y in up if in_wp(y, p)), key=lambda w: w.sort_key)
            found += level
        got = group._wp.setdefault(p, tuple(found))
    return got


def hecke_down(w: WeylElement, k: int) -> WeylElement:
    """w s_k when that shortens w, else w; the result has no descent at k."""
    return w.right_mult_gen(k) if w.has_right_descent(k) else w


def hecke_up(w: WeylElement, k: int) -> WeylElement:
    """w s_k when that lengthens w, else w; the result has a descent at k."""
    return w if w.has_right_descent(k) else w.right_mult_gen(k)


def degree_one_decision(datum: CartanDatum, p, k: int) -> tuple[frozenset[int], bool]:
    """(P_k, whether (P, alpha_k) is admissible) for a node k outside P, memoised on
    P normalised and k converted, so 1.0 never reads 1's entry.  P_k drops from Delta_P
    the nodes adjacent to alpha_k; the pair is admissible when alpha_k is long, or the
    connected component of k inside Delta_P + {alpha_k} is simply laced."""
    return _decided(datum, normalize_parabolic(datum, p), rootsys.as_int(k))


@lru_cache(maxsize=None)
def _decided(datum: CartanDatum, p: frozenset[int], k: int) -> tuple[frozenset[int], bool]:
    rootsys.check_index(datum, k)
    if k in p:
        raise ValueError(f"alpha_{k} lies in the parabolic set")
    pk = frozenset(i for i in p if not rootsys.adjacent(datum, i, k))
    if rootsys.is_long(datum, k):
        return pk, True
    comp, a = rootsys.component(datum, k, p | {k}), datum.cartan
    return pk, all(a[i - 1][j - 1] * a[j - 1][i - 1] <= 1 for i in comp for j in comp if i != j)


def is_k_free(datum: CartanDatum, p, k: int) -> bool:
    """True iff Delta_P contains no node adjacent to alpha_k."""
    return build_Pk(datum, p, k) == normalize_parabolic(datum, p)


def in_class_P(datum: CartanDatum, p, k: int) -> bool:
    """Admissibility of the pair (P, alpha_k), read from ``degree_one_decision``."""
    return degree_one_decision(datum, p, k)[1]


def build_Pk(datum: CartanDatum, p, k: int) -> frozenset[int]:
    """Drop from Delta_P the nodes adjacent to alpha_k; the result is k-free."""
    return degree_one_decision(datum, p, k)[0]


def build_P_of_k(datum: CartanDatum, p, k: int) -> frozenset[int]:
    """The k-extended parabolic: Delta_{P_k} plus alpha_k itself."""
    return build_Pk(datum, p, k) | {k}


def longest_element(group: WeylGroup, p) -> WeylElement:
    """The longest element of the parabolic subgroup W_P."""
    return _right_walk(group.identity, normalize_parabolic(group.datum, p), False)


def schubert_preimage(u: WeylElement, q, p) -> WeylElement:
    """Index of the full preimage of a Schubert variety under the projection
    to the larger parabolic quotient: the Bruhat-maximal element of W^P in
    the fibre over u, computed as the minimal representative of u w_Q."""
    group = u.group
    q = normalize_parabolic(group.datum, q)
    p = normalize_parabolic(group.datum, p)
    if not p <= q:
        raise ValueError("preimage needs nested parabolic sets P <= Q")
    group.require(u, parabolic=q)
    return min_coset_rep(u * longest_element(group, q), p)
