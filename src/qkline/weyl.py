"""Weyl group elements and parabolic combinatorics.

An element is stored by its root-image table: the tuple
``(w(alpha_1), ..., w(alpha_r))`` of images of the simple roots, each in
simple-root coordinates.  Two elements are equal iff their tables are equal;
elements of a group are interned, so equality is identity and per-element
caches (reduced word, inversions) are shared.

Words are exchanged with the outside world as digit strings: ``"121"`` means
``s_1 s_2 s_1`` (applied right to left as maps), ``"e"`` or ``""`` is the
identity; from rank 10 on, letters are separated by spaces, as in
``"1 10 9"``.  The canonical emitted word is the lexicographically minimal
reduced word.

Immutability: elements never change after interning.  The memo cache of
coset enumerations (W itself is the one for P empty) only ever grows, and a
recomputed entry is identical to the cached one, so concurrent readers are
safe; writers at worst repeat work.
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
    __slots__ = ("group", "table", "_hash", "_word", "_inversions")

    def __init__(self, group: "WeylGroup", table: tuple[tuple[int, ...], ...]):
        self.group = group
        self.table = table
        self._hash = hash(table)
        self._word = None
        self._inversions = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, WeylElement) and self.table == other.table and self.group is other.group

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
        return any(x < 0 for x in self.table[k - 1])

    def right_descents(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.group.rank + 1) if self.has_right_descent(k))

    def has_left_descent(self, k: int) -> bool:
        """ell(s_k w) < ell(w) iff alpha_k is an inversion of w."""
        return rootsys.simple_root(self.group.datum, k) in self.inversions

    @property
    def word(self) -> tuple[int, ...]:
        """Lexicographically minimal reduced word."""
        if self._word is None:
            if self is self.group.identity:
                self._word = ()
            else:
                k = next(i for i in range(1, self.group.rank + 1) if self.has_left_descent(i))
                self._word = (k,) + self.group.left_mult_gen(k, self).word
        return self._word

    @property
    def word_str(self) -> str:
        return self.group.format_word(self)

    @property
    def sort_key(self):
        return (self.length, self.word)

    # -- products -----------------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        if other.group is not self.group:
            raise GroupMismatchError("cannot multiply elements of different groups")
        return self.group.intern(tuple(self.apply_to_root(col) for col in other.table))

    def inverse(self) -> "WeylElement":
        return self.group.from_word(reversed(self.word))


class WeylGroup:
    """The Weyl group of a Cartan datum, with interned elements."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.positive_root_coords = rootsys.positive_roots(datum)
        self._intern: dict[tuple, WeylElement] = {}
        self._wp: dict[frozenset[int], tuple[WeylElement, ...]] = {}
        n = datum.rank
        self.identity = self.intern(tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n)))
        self._simple = tuple(
            self.intern(tuple(rootsys.reflect_root_coords(datum, k, col) for col in self.identity.table))
            for k in range(1, n + 1)
        )

    @classmethod
    @lru_cache(maxsize=None)
    def for_datum(cls, datum: CartanDatum) -> "WeylGroup":
        return cls(datum)

    def intern(self, table) -> WeylElement:
        el = self._intern.get(table)
        if el is None:
            # setdefault on a tuple key is atomic under the GIL: a thread that
            # loses the race returns the winner's element, so equality stays identity
            el = self._intern.setdefault(table, WeylElement(self, table))
        return el

    def simple(self, k: int) -> WeylElement:
        rootsys.check_index(self.datum, k)
        return self._simple[k - 1]

    def left_mult_gen(self, k: int, w: WeylElement) -> WeylElement:
        """s_k * w, applying s_k to every column of the table."""
        datum = self.datum
        return self.intern(tuple(rootsys.reflect_root_coords(datum, k, col) for col in w.table))

    def right_mult_gen(self, w: WeylElement, k: int) -> WeylElement:
        """w * s_k via the column update w(s_k alpha_i) = w(alpha_i) - A[k][i] w(alpha_k)."""
        rootsys.check_index(self.datum, k)
        a = self.datum.cartan
        n = self.rank
        colk = w.table[k - 1]
        new = []
        for i in range(n):
            c = a[k - 1][i]
            if i == k - 1:
                new.append(tuple(-x for x in colk))
            elif c:
                new.append(tuple(x - c * y for x, y in zip(w.table[i], colk)))
            else:
                new.append(w.table[i])
        return self.intern(tuple(new))

    def from_word(self, word) -> WeylElement:
        w = self.identity
        for k in word:
            w = self.right_mult_gen(w, k)
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

    def format_word(self, w: WeylElement) -> str:
        if w is self.identity:
            return "e"
        if self.rank <= 9:
            return "".join(str(k) for k in w.word)
        return " ".join(str(k) for k in w.word)

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


def require_wp(w: WeylElement, p: frozenset[int]) -> None:
    """Raise ValueError unless w is a minimal coset representative for p."""
    if not in_wp(w, p):
        raise ValueError(f"{w.word_str} is not a minimal representative for {sorted(p)}")


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the lifting property: for a right descent k of w,
    u <= w iff min(u, u s_k) <= w s_k."""
    if u.group is not w.group:
        raise GroupMismatchError("Bruhat comparison across groups")
    while u is not w:
        if u.length >= w.length:
            return False
        k = w.right_descents()[0]
        u = hecke_down(u, k)
        w = u.group.right_mult_gen(w, k)
    return True


def min_coset_rep(w: WeylElement, p) -> WeylElement:
    """The minimal-length representative of w W_P."""
    p = normalize_parabolic(w.group.datum, p)
    group = w.group
    changed = True
    while changed:
        changed = False
        for i in sorted(p):
            if w.has_right_descent(i):
                w = group.right_mult_gen(w, i)
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
            up = {group.left_mult_gen(k, x) for x in level for k in ks if not x.has_left_descent(k)}
            level = sorted((y for y in up if in_wp(y, p)), key=lambda w: w.sort_key)
            found += level
        got = group._wp.setdefault(p, tuple(found))
    return got


def hecke_down(w: WeylElement, k: int) -> WeylElement:
    """w s_k when that shortens w, else w; the result has no descent at k."""
    return w.group.right_mult_gen(w, k) if w.has_right_descent(k) else w


def hecke_up(w: WeylElement, k: int) -> WeylElement:
    """w s_k when that lengthens w, else w; the result has a descent at k."""
    return w if w.has_right_descent(k) else w.group.right_mult_gen(w, k)


def _check_k_not_in_p(datum, p, k):
    p = normalize_parabolic(datum, p)
    rootsys.check_index(datum, k)
    if k in p:
        raise ValueError(f"alpha_{k} lies in the parabolic set")
    return p


def is_k_free(datum: CartanDatum, p, k: int) -> bool:
    """True iff Delta_P contains no node adjacent to alpha_k."""
    p = _check_k_not_in_p(datum, p, k)
    return all(not rootsys.adjacent(datum, i, k) for i in p)


def in_class_P(datum: CartanDatum, p, k: int) -> bool:
    """Admissibility of the pair (P, alpha_k): alpha_k is long, or the
    connected component of k inside Delta_P + {alpha_k} is simply laced."""
    p = _check_k_not_in_p(datum, p, k)
    if rootsys.is_long(datum, k):
        return True
    comp = rootsys.component(datum, k, p | {k})
    a = datum.cartan
    return all(a[i - 1][j - 1] * a[j - 1][i - 1] <= 1 for i in comp for j in comp if i != j)


def build_Pk(datum: CartanDatum, p, k: int) -> frozenset[int]:
    """Drop from Delta_P the nodes adjacent to alpha_k; the result is k-free."""
    p = _check_k_not_in_p(datum, p, k)
    return frozenset(i for i in p if not rootsys.adjacent(datum, i, k))


def build_P_of_k(datum: CartanDatum, p, k: int) -> frozenset[int]:
    """The k-extended parabolic: Delta_{P_k} plus alpha_k itself."""
    return build_Pk(datum, p, k) | {k}


def longest_element(group: WeylGroup, p) -> WeylElement:
    """The longest element of the parabolic subgroup W_P."""
    p = normalize_parabolic(group.datum, p)
    w = group.identity
    while True:
        k = next((i for i in sorted(p) if not w.has_right_descent(i)), None)
        if k is None:
            return w
        w = group.right_mult_gen(w, k)


def schubert_preimage(u: WeylElement, q, p) -> WeylElement:
    """Index of the full preimage of a Schubert variety under the projection
    to the larger parabolic quotient: the Bruhat-maximal element of W^P in
    the fibre over u, computed as the minimal representative of u w_Q."""
    group = u.group
    q = normalize_parabolic(group.datum, q)
    p = normalize_parabolic(group.datum, p)
    if not p <= q:
        raise ValueError("preimage needs nested parabolic sets P <= Q")
    require_wp(u, q)
    return min_coset_rep(u * longest_element(group, q), p)
