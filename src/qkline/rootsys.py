"""Simple root systems given by Cartan data.

Conventions used throughout the package:

* The Cartan matrix is stored with ``A[i][j] = <alpha_j, alpha_i^vee>``, so
  the j-th *column* of ``A`` gives the simple root ``alpha_j`` in
  fundamental-weight coordinates.
* Roots and weights are plain coordinate tuples: a weight in
  fundamental-weight coordinates (``lam[i] = <lam, alpha_i^vee>``), a root in
  simple-root coordinates; ``alpha_to_omega`` and ``omega_to_alpha`` convert.
* The symmetrizer ``d`` satisfies ``d[i]*A[i][j] == d[j]*A[j][i]`` with
  ``d[i]`` proportional to the squared length of ``alpha_i``; a root is long
  when its ``d`` is maximal in its connected component.
* Named types use Bourbaki node numbering.  In particular ``C2`` has
  ``alpha_1`` short and ``alpha_2`` long.

All data is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from functools import lru_cache


class CartanError(ValueError):
    """Raised for data that is not a finite-type Cartan matrix."""


def parse_digits(text: str) -> int:
    """A number in the ASCII digits 0-9 only; int() also reads "٣", "+2" and "1_0"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a number in the digits 0-9")
    return int(text)


def as_int(x) -> int:
    """x if it is an integer (has __index__), else a TypeError naming it: int() reads 1.7 as 1."""
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{x!r} is not an integer") from None


def record(name: str, fields: str, defaults=()):
    """Base of a read-only value class (one that sets ``__slots__ = ()``): a namedtuple (repr field by field,
    AttributeError on assignment), == and hash by the fields, equal only to values of its own class, and
    ``_make`` and ``_replace`` build through the class's constructor, so no value skips its checks."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    base.__eq__ = lambda self, other: tuple.__eq__(self, other) if type(other) is type(self) else NotImplemented
    base.__ne__ = lambda self, other: tuple.__ne__(self, other) if type(other) is type(self) else NotImplemented
    base.__hash__ = tuple.__hash__
    return base


class CartanDatum(record("CartanDatum", "rank cartan symmetrizer label")):
    """A finite-type Cartan matrix plus length data.

    ``cartan[i][j] = <alpha_j, alpha_i^vee>`` (0-based storage; the public
    query functions below take 1-based node indices).  Built from integers only
    (a TypeError names the first other entry); a symmetrizer of None is solved.
    """

    __slots__ = ()

    def __new__(cls, rank, cartan, symmetrizer=None, label=None):
        n = as_int(rank)
        a = tuple(tuple(map(as_int, row)) for row in cartan)
        d = None if symmetrizer is None else tuple(map(as_int, symmetrizer))
        _check_matrix(a, n)
        d = _symmetrizer_from_matrix(a) if d is None else d
        self = super().__new__(cls, n, a, d, label)
        if len(d) != n or any(x <= 0 for x in d):
            raise CartanError("symmetrizer must consist of positive integers")
        for i in range(n):
            for j in range(n):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise CartanError("symmetrizer does not symmetrize the Cartan matrix")
        _inverse_cartan(self)
        return self

    def __str__(self):
        return self.label or f"CartanDatum(rank={self.rank})"


def _check_matrix(a, n) -> None:
    """Shape n x n, 2 on the diagonal, off-diagonal entries <= 0 with a symmetric zero pattern."""
    if n < 1 or len(a) != n or any(len(row) != n for row in a):
        raise CartanError("Cartan matrix must be rank x rank")
    for i in range(n):
        if a[i][i] != 2:
            raise CartanError("diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if a[i][j] > 0:
                    raise CartanError("off-diagonal entries must be <= 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise CartanError("zero pattern must be symmetric")


def _symmetrizer_from_matrix(a) -> tuple[int, ...]:
    """Solve d[i]*a[i][j] == d[j]*a[j][i] along a spanning tree of each Dynkin
    component of a checked matrix as d[i] = num[i] / den[i]; CartanDatum refuses a d that fails off the tree."""
    n = len(a)
    num, den = [0] * n, [1] * n
    for start in range(n):
        if not num[start]:
            num[start], stack = 1, [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i != j and a[i][j] and not num[j]:
                        num[j], den[j] = -num[i] * a[i][j], -den[i] * a[j][i]
                        stack.append(j)
    denom_lcm = math.lcm(*den)
    ints = [x * denom_lcm // y for x, y in zip(num, den)]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def cartan_datum(matrix, symmetrizer=None, label=None) -> CartanDatum:
    """Build a validated CartanDatum from a matrix (any nested-int sequence)."""
    a = tuple(matrix)
    return CartanDatum(len(a), a, symmetrizer, label)


def _chain_matrix(n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


@lru_cache(maxsize=None)
def named_datum(label: str) -> CartanDatum:
    """Cartan datum for a named type ("A2", "B3", ..., Bourbaki numbering)."""
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ABCDEFG":
        raise CartanError(f"unknown type label {label!r}")
    try:
        family, n = label[0], parse_digits(label[1:])
    except ValueError:
        raise CartanError(f"unknown type label {label!r}") from None
    if n < 1:
        raise CartanError(f"bad rank in {label!r}")
    if family == "A":
        a = _chain_matrix(n)
    elif family == "B":
        # alpha_n is the short root
        if n < 2:
            raise CartanError("type B needs rank >= 2")
        a = _chain_matrix(n)
        a[n - 1][n - 2] = -2
    elif family == "C":
        # alpha_n is the long root; alpha_1..alpha_{n-1} are short
        if n < 2:
            raise CartanError("type C needs rank >= 2")
        a = _chain_matrix(n)
        a[n - 2][n - 1] = -2
    elif family == "D":
        if n < 3:
            raise CartanError("type D needs rank >= 3")
        a = _chain_matrix(n)
        # nodes n-1 and n both hang off node n-2: move node n off node n-1
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif family == "E":
        if n not in (6, 7, 8):
            raise CartanError("type E needs rank 6, 7 or 8")
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        for i, j in edges:
            if i <= n and j <= n:
                a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    elif family == "F":
        if n != 4:
            raise CartanError("type F needs rank 4")
        a = _chain_matrix(4)
        a[2][1] = -2
    elif family == "G":
        if n != 2:
            raise CartanError("type G needs rank 2")
        a = [[2, -3], [-1, 2]]
    else:  # pragma: no cover
        raise CartanError(label)
    return cartan_datum(a, label=label)


def parse_cartan_file(text: str, label=None) -> CartanDatum:
    """Read a datum from plain text: rank, then the matrix rows, then an
    optional symmetrizer line.  Every entry is an optional minus sign and the
    ASCII digits 0-9, and the rank line holds one entry."""
    rows = [line.split() for line in text.splitlines() if line.split()]
    if not rows:
        raise CartanError("empty Cartan file")
    bad = next((x for row in rows for x in row if not re.fullmatch("-?[0-9]+", x)), None)
    if bad is not None:
        raise CartanError(f"bad integer in Cartan file: {bad!r}")
    if len(rows[0]) != 1:
        raise CartanError(f"the rank line of a Cartan file holds one number, got {' '.join(rows[0])!r}")
    n = int(rows[0][0])
    if n < 1:
        raise CartanError(f"the rank line of a Cartan file holds a rank of at least 1, got {n}")
    nums = [[int(x) for x in row] for row in rows[1:]]
    if len(nums) == n:
        matrix, symm = nums, None
    elif len(nums) == n + 1:
        matrix, symm = nums[:n], nums[n]
    else:
        raise CartanError(f"expected {n} matrix rows, got {len(nums)}")
    return cartan_datum(matrix, symm, label)


def resolve_group(name: str) -> CartanDatum:
    """Named type label, or a path to a Cartan-matrix file."""
    try:
        return named_datum(name)
    except CartanError:
        pass
    try:
        fh = open(name, encoding="utf-8")
    except OSError:  # missing, a directory or unreadable
        raise CartanError(f"{name!r} is neither a type label nor a readable file") from None
    with fh:
        return parse_cartan_file(fh.read(), label=name)


# -- queries -----------------------------------------------------------------

def check_index(datum: CartanDatum, i: int):
    if not 1 <= as_int(i) <= datum.rank:
        raise IndexError(f"node index {i} out of range 1..{datum.rank}")


def adjacent(datum: CartanDatum, i: int, j: int) -> bool:
    """True iff nodes i and j are joined in the Dynkin diagram."""
    check_index(datum, i)
    check_index(datum, j)
    if i == j:
        raise ValueError("adjacency needs two distinct nodes")
    return datum.cartan[i - 1][j - 1] != 0


def component(datum: CartanDatum, i: int, nodes) -> set[int]:
    """The connected component of node i in the Dynkin diagram on ``nodes``."""
    check_index(datum, i)
    comp = {i}
    stack = [i]
    while stack:
        j = stack.pop()
        for m in nodes:
            if m not in comp and datum.cartan[j - 1][m - 1] != 0:
                comp.add(m)
                stack.append(m)
    return comp


def is_long(datum: CartanDatum, i: int) -> bool:
    """True iff alpha_i is a long root (maximal d in its Dynkin component)."""
    check_index(datum, i)
    comp = component(datum, i, range(1, datum.rank + 1))
    return datum.symmetrizer[i - 1] == max(datum.symmetrizer[j - 1] for j in comp)


def simple_root(datum: CartanDatum, i: int) -> tuple[int, ...]:
    check_index(datum, i)
    return (0,) * (i - 1) + (1,) + (0,) * (datum.rank - i)


def check_coords(datum: CartanDatum, coords):
    if len(coords) != datum.rank:
        raise ValueError(f"coordinates {tuple(coords)} do not have length {datum.rank}, the rank of {datum}")


def alpha_to_omega(datum: CartanDatum, coords) -> tuple[int, ...]:
    """Simple-root coordinates -> fundamental-weight coordinates (A @ c)."""
    check_coords(datum, coords)
    a = datum.cartan
    n = datum.rank
    return tuple(sum(a[i][j] * coords[j] for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _inverse_cartan(datum: CartanDatum) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, adj): the least common denominator of A^{-1} and the integer matrix
    den * A^{-1}, so that weight conversions stay in integers.

    Bareiss's integer Gauss-Jordan on [B | I], B = DA, without row swaps ends at [det B * I | adj B]; its
    pivots are B's leading principal minors, all positive iff B is positive definite, which is the
    finite-type test.  Then A^{-1} = (adj B) D / det B, and every division is exact."""
    n = datum.rank
    d = datum.symmetrizer
    m = [[d[i] * datum.cartan[i][j] for j in range(n)] + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            raise CartanError("Cartan matrix is not of finite type")
        m = [row if i == k else [(pivot * x - row[k] * y) // prev for x, y in zip(row, m[k])] for i, row in enumerate(m)]
        prev = pivot
    adj = [[x * d[j] for j, x in enumerate(row[n:])] for row in m]
    g = math.gcd(prev, *(x for row in adj for x in row))
    return prev // g, tuple(tuple(x // g for x in row) for row in adj)


def omega_to_alpha(datum: CartanDatum, coords) -> tuple[int, ...] | None:
    """Fundamental-weight coordinates -> simple-root coordinates, or None when
    the weight is not in the root lattice."""
    check_coords(datum, coords)
    den, adj = _inverse_cartan(datum)
    out = []
    for row in adj:
        x, r = divmod(sum(a * c for a, c in zip(row, coords)), den)
        if r:
            return None
        out.append(x)
    return tuple(out)


def reflect(datum: CartanDatum, i: int, lam) -> tuple[int, ...]:
    """Simple reflection s_i acting on a weight: lam - <lam, alpha_i^vee> alpha_i, alpha_i being column i of A."""
    check_index(datum, i)
    check_coords(datum, lam)
    c = lam[i - 1]
    return tuple(x - c * row[i - 1] for x, row in zip(lam, datum.cartan))


def reflect_root_coords(datum: CartanDatum, i: int, coords) -> tuple[int, ...]:
    """s_i on simple-root coordinates: subtract (row i of A) . c from c_i."""
    check_index(datum, i)
    check_coords(datum, coords)
    out = list(coords)
    out[i - 1] -= sum(map(operator.mul, datum.cartan[i - 1], coords))
    return tuple(out)


def positive_roots(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """All positive roots, sorted by height then lexicographically."""
    n = datum.rank
    found = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(found)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(1, n + 1):
                img = reflect_root_coords(datum, i, c)
                if any(x < 0 for x in img):
                    img = tuple(-x for x in img)
                if img not in found:
                    found.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(found, key=lambda c: (sum(c), tuple(-x for x in c))))


def root_pairing(datum: CartanDatum, gamma, beta) -> int:
    """<gamma, beta^vee> = 2(gamma,beta)/(beta,beta) for simple-root coords."""
    check_coords(datum, gamma)
    check_coords(datum, beta)
    n = datum.rank
    d = datum.symmetrizer
    a = datum.cartan
    num = sum(d[i] * a[i][j] * gamma[i] * beta[j] for i in range(n) for j in range(n))
    den = sum(d[i] * a[i][j] * beta[i] * beta[j] for i in range(n) for j in range(n))
    q, r = divmod(2 * num, den)
    if r:
        raise ValueError("pairing is not integral; beta is not a root")
    return q
