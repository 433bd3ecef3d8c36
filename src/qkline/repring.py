"""Exact arithmetic in the integer group ring of the weight lattice.

Elements are finite integer combinations of formal exponentials ``e^lam``
with ``lam`` a weight-lattice point in fundamental-weight coordinates.  No
floating point is used anywhere.

Internally each exponent vector is packed into a single integer whose
natural ordering realizes graded-lex order on exponents (total degree field
first, then the coordinates, each shifted by a fixed offset into a 24-bit
field; a coordinate outside ``[-2**23, 2**23)`` is refused).  Packing is
additive, so ``e^lam * e^mu`` is one integer addition and a move along a
root, ``lam - t beta`` with ``t`` read off one field, one multiply-subtract: the Weyl
action and the test of ``a - b`` by ``1 - e^beta`` share that move (``_move_into``) and
its cached per-root step (``_root_move``).
Packed order makes the leading-term scans of exact division cheap.  The
packing is an internal detail: the public API speaks exponent tuples.

Packed addition does not see a field overflow, so every element carries a
bound on ``|coordinate|`` over its exponents: a sum gets the larger of its
summands' bounds, a product or a quotient the sum of its operands' bounds.
A product or quotient whose bound could reach the edge of a field is
checked exactly and refused with ``ValueError``, like ``_pack``; a move along
a root whose bound could reach it moves exponent tuples instead.  The test
is O(1) per operation and nothing is unpacked in the inner loops.

Elements are immutable once shared: the one product loop, ``subtract_product``
(``acc -= a*b`` in place), runs only on an element its caller owns.

Division is polynomial long division against the graded-lex leading term.
For an exact quotient the leading term of each partial remainder equals
``LT(divisor) * (a term of the quotient)``, so the division terminates after
one step per quotient term; a remainder that drops below the trailing bound
proves there is no quotient and raises :class:`NotDivisible`.  Within one
degree a walk can descend forever, so from step ``min(64, safe)`` on (no
remainder key can leave its field before step ``safe``) every quotient term
is checked against the Newton box of any exact quotient: on each axis, the
dividend's range minus the divisor's.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from . import rootsys
from .rootsys import CartanDatum


class NotDivisible(ArithmeticError):
    """No exact quotient exists in the group ring."""


class NotInSubring(ValueError):
    """Element does not lie in the subring generated by the e^{-alpha_i}."""


_COORD_BITS = 24
_COORD_OFF = 1 << 23
_DEG_OFF = 1 << 27


@lru_cache(maxsize=None)
def _codec(rank: int):
    shifts = tuple(_COORD_BITS * (rank - 1 - i) for i in range(rank))
    deg_shift = _COORD_BITS * rank
    key0 = (_DEG_OFF << deg_shift) + sum(_COORD_OFF << s for s in shifts)
    mask = (1 << _COORD_BITS) - 1
    return shifts, deg_shift, key0, mask


def _pack(rank: int, coords) -> int:
    if len(coords) != rank:
        raise ValueError(f"exponent {tuple(coords)} does not have length {rank}, the rank")
    shifts, deg_shift, _, _ = _codec(rank)
    key = (sum(coords) + _DEG_OFF) << deg_shift
    for c, s in zip(coords, shifts):
        if not -_COORD_OFF <= c < _COORD_OFF:
            raise ValueError(f"exponent {tuple(coords)} has a coordinate outside [-2**23, 2**23)")
        key += (c + _COORD_OFF) << s
    return key


def _unpack(rank: int, key: int) -> tuple[int, ...]:
    shifts, _, _, mask = _codec(rank)
    return tuple(((key >> s) & mask) - _COORD_OFF for s in shifts)


class RingElt:
    """An element of the group ring; immutable and hashable once shared."""

    __slots__ = ("rank", "_terms", "_bound")

    def __init__(self, rank: int, _terms: dict[int, int], _bound: int):
        # _terms maps packed exponent -> nonzero coefficient; owned by self.
        # _bound is at least every |coordinate| of every exponent in _terms.
        self.rank = rank
        self._terms = _terms
        self._bound = _bound

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(rank: int) -> "RingElt":
        return RingElt(rank, {}, 0)

    @staticmethod
    def one(rank: int) -> "RingElt":
        return RingElt.monomial(rank, (0,) * rank)

    @staticmethod
    def monomial(rank: int, coords, coeff: int = 1) -> "RingElt":
        key = _pack(rank, tuple(coords))
        coeff = rootsys.as_int(coeff)
        if coeff == 0:
            return RingElt(rank, {}, 0)
        return RingElt(rank, {key: coeff}, max(map(abs, coords), default=0))

    @staticmethod
    def from_terms(rank: int, items) -> "RingElt":
        terms: dict[int, int] = {}
        bound = 0
        for coords, coeff in items:
            accumulate(terms, _pack(rank, tuple(coords)), rootsys.as_int(coeff))
            bound = max(bound, max(map(abs, coords), default=0))
        return RingElt(rank, terms, bound)

    # -- inspection -----------------------------------------------------------

    def terms(self):
        """Pairs (exponent tuple, coefficient), graded-lex descending."""
        return [(_unpack(self.rank, k), c) for k, c in sorted(self._terms.items(), reverse=True)]

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, RingElt):
            return self.rank == other.rank and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "RingElt(0)"
        bits = [f"{c}*e{_unpack(self.rank, k)}" for k, c in sorted(self._terms.items(), reverse=True)]
        return "RingElt(" + " + ".join(bits) + ")"

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "RingElt"):
        if self.rank != other.rank:
            raise ValueError("rank mismatch between ring elements")

    def __add__(self, other):
        if isinstance(other, int):
            other = RingElt.monomial(self.rank, (0,) * self.rank, other)
        if not isinstance(other, RingElt):
            return NotImplemented
        self._check(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return RingElt(self.rank, out, max(self._bound, other._bound))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RingElt(self.rank, {k: -c for k, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        if isinstance(other, (int, RingElt)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (self.__neg__()).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return RingElt(self.rank, {}, 0)
            return RingElt(self.rank, {k: c * other for k, c in self._terms.items()}, self._bound)
        if not isinstance(other, RingElt):
            return NotImplemented
        out = RingElt(self.rank, {}, 0)
        subtract_product(out, self, other, 1)
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- specializations ---------------------------------------------------------

    def specialize_to_one(self) -> int:
        """Sum of coefficients: the nonequivariant specialization e^lam -> 1."""
        return sum(self._terms.values())

    def map_exponents(self, fn) -> "RingElt":
        """Apply a lattice map to every exponent (must be injective on the
        support, as for any group automorphism)."""
        return RingElt.from_terms(self.rank, ((fn(_unpack(self.rank, k)), c) for k, c in self._terms.items()))


def _axis_ranges(a: RingElt):
    """(lowest, highest) coordinate of the exponents of ``a`` on each axis."""
    coords = [_unpack(a.rank, k) for k in a._terms]
    return [(min(col), max(col)) for col in zip(*coords)]


def _edge_bound(a: RingElt, b: RingElt, sign: int) -> int:
    """For ``a * b`` (sign 1) or the exact quotient ``a / b`` (sign -1) when
    the sum of the operands' bounds reaches the edge of a packed field: the
    exact bound on |coordinate| over the result's exponents, or ValueError
    when one leaves ``[-2**23, 2**23)``.  On each axis the result's range is
    the sum (for a quotient, the difference) of the operands' ranges, since
    its Newton polytope is their Minkowski sum (difference)."""
    if not a or not b:
        return 0
    lo = hi = 0
    for (lo_a, hi_a), (lo_b, hi_b) in zip(_axis_ranges(a), _axis_ranges(b)):
        lo = min(lo, lo_a + sign * lo_b)
        hi = max(hi, hi_a + sign * hi_b)
    if lo < -_COORD_OFF or hi >= _COORD_OFF:
        op = "product" if sign > 0 else "quotient"
        raise ValueError(f"the {op} has an exponent with a coordinate outside [-2**23, 2**23)")
    return max(-lo, hi)


def subtract_product(acc: RingElt, a: RingElt, b: RingElt, sign: int = -1) -> None:
    """``acc -= a * b`` in place (``+=`` for sign 1), with no temporary product;
    a ValueError from the bound check leaves ``acc`` as it was.  Callers own
    ``acc``: a fresh zero in ``__mul__`` and in ``qklines._pairing_row``, a
    residual in ``KTEngine.expand``."""
    a._check(b)
    acc._check(a)
    bound = a._bound + b._bound
    if bound >= _COORD_OFF:
        bound = _edge_bound(a, b, 1)
    x, y = sorted((a._terms, b._terms), key=len)  # the shorter outside
    key0, out = _codec(acc.rank)[2], acc._terms
    get = out.get
    for k1, c1 in x.items():
        base, c1 = k1 - key0, sign * c1
        for k2, c2 in y.items():
            k = base + k2
            v = get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]
    acc._bound = max(acc._bound, bound)


def accumulate(acc: dict, key, val) -> None:
    """``acc[key] += val``, dropping the entry when it cancels to zero; the
    values are ring elements or integers."""
    prev = acc.get(key)
    nxt = val if prev is None else prev + val
    if nxt:
        acc[key] = nxt
    else:
        acc.pop(key, None)


def weyl_act(w, a: RingElt) -> RingElt:
    """e^lam -> e^{w lam}: the simple reflections of w's word, right to left."""
    datum = w.group.datum
    if a.rank != datum.rank:  # the identity's empty word reaches no simple_reflection
        raise ValueError("rank mismatch between ring element and root datum")
    for k in reversed(w.word):
        a = simple_reflection(a, datum, k)
    return a


def simple_reflection(a: RingElt, datum: CartanDatum, k: int, bound: int | None = None) -> RingElt:
    """``weyl_act(s_k, a)``: ``s_k lam = lam - lam_k alpha_k``, the move along alpha_k (column k
    of A) at field k - 1.  The result's bound is ``a``'s times ``1 + max |alpha_k|``, or a smaller
    ``bound`` that the caller has proved; at the edge of a field the moved tuples go through the
    checked packing, raising ValueError."""
    if a.rank != datum.rank:
        raise ValueError("rank mismatch between ring element and root datum")
    rootsys.check_index(datum, k)
    alpha = tuple(row[k - 1] for row in datum.cartan)
    move = _root_move(a.rank, alpha, k - 1)
    bound = min(a._bound * move[1], math.inf if bound is None else bound)
    if bound < _COORD_OFF:  # a bijection on keys: nothing cancels
        return RingElt(a.rank, _move_into({}, a, alpha, move, 1, True), bound)
    return RingElt.from_terms(a.rank, _move_into({}, a, alpha, move, 1, False).items())


def _move_into(out: dict, a: RingElt, beta: tuple[int, ...], move, d: int, packed: bool, sign: int = 1) -> dict:
    """``out[m] += sign * c`` per term ``c e^lam`` of ``a``, at ``m = lam - floor(lam_j / d) beta``
    with j, shift j and packed(beta) - key0 from ``move`` (``_root_move``): a packed key when
    ``packed`` (the caller has bounded every moved coordinate inside its field), else an
    exponent tuple, so no key is formed past a field's edge."""
    j, _, shift, step = move
    get = out.get
    if packed:
        mask = (1 << _COORD_BITS) - 1
        for key, c in a._terms.items():
            m = key - ((((key >> shift) & mask) - _COORD_OFF) // d) * step
            out[m] = get(m, 0) + sign * c
        return out
    for lam, c in ((_unpack(a.rank, key), c) for key, c in a._terms.items()):
        m = tuple(x - lam[j] // d * y for x, y in zip(lam, beta))
        out[m] = get(m, 0) + sign * c
    return out


def exact_divide(a: RingElt, b: RingElt) -> RingElt:
    """The exact quotient q with a == b*q, when it exists in the ring."""
    a._check(b)
    if not b:
        raise ZeroDivisionError("division by the zero ring element")
    if not a:
        return RingElt.zero(a.rank)
    bound = a._bound + b._bound
    if bound >= _COORD_OFF:
        bound = _edge_bound(a, b, -1)
    key0 = _codec(a.rank)[2]
    bterms = b._terms
    lead_b = max(bterms)
    lead_bc = bterms[lead_b]
    floor = min(a._terms) - min(bterms)  # packed key of trail(a)/trail(b), off by key0
    safe = (_COORD_OFF - 1 - a._bound) // (2 * b._bound) if b._bound else math.inf
    check_at = min(64, safe)
    box = None  # the Newton box of any exact quotient, once step check_at is reached
    rem = dict(a._terms)
    quo: dict[int, int] = {}
    while rem:
        lead_r = max(rem)
        t = lead_r - lead_b  # off by key0
        if t < floor:
            raise NotDivisible("leading term fell below the trailing bound")
        if len(quo) >= check_at:
            if box is None:
                box = [(la - lb, ha - hb) for (la, ha), (lb, hb) in zip(_axis_ranges(a), _axis_ranges(b))]
            if not all(lo <= x <= hi for x, (lo, hi) in zip(_unpack(a.rank, t + key0), box)):
                raise NotDivisible("a quotient term lies outside the Newton polytope of any exact quotient")
        c, r = divmod(rem[lead_r], lead_bc)
        if r:
            raise NotDivisible("leading coefficient does not divide")
        quo[t + key0] = c
        for k, bc in bterms.items():
            kk = t + k
            v = rem.get(kk, 0) - c * bc
            if v:
                rem[kk] = v
            else:
                rem.pop(kk, None)
    return RingElt(a.rank, quo, bound)


def divides_one_minus_e(a: RingElt, beta_weight_coords, b: RingElt | None = None) -> bool:
    """Whether ``a - b`` (``a`` when ``b`` is None) is divisible by 1 - e^beta: the
    coefficient sums over every coset modulo Z*beta vanish.  The terms of both operands,
    +c for ``a`` and -c for ``b``, make two moves into one dict of coset sums, to the member
    whose coordinate j, the first nonzero one of beta, lies between 0 and beta_j: packed keys
    while every moved coordinate fits its field, else tuples.  A non-integer beta raises TypeError."""
    beta = tuple(map(rootsys.as_int, beta_weight_coords))
    if b is not None:
        a._check(b)
    move = _root_move(a.rank, beta)
    if a._terms == ({} if b is None else b._terms):
        return True
    j, reach = move[:2]
    packed = max(a._bound, 0 if b is None else b._bound) * reach < _COORD_OFF
    sums = _move_into({}, a, beta, move, beta[j], packed)
    if b is not None:
        _move_into(sums, b, beta, move, beta[j], packed, -1)
    return not any(sums.values())


@lru_cache(maxsize=256)  # more than the 120 positive and 8 simple roots of E8, the most of any finite root system
def _root_move(rank: int, beta: tuple[int, ...], j: int | None = None):
    """The one step along beta: j, by default the first nonzero coordinate of beta; 1 + max |beta|,
    which times an operand's bound bounds every moved coordinate; shift j; packed(beta) - key0."""
    if len(beta) != rank:
        raise ValueError(f"root {beta} does not have length {rank}, the rank")
    if not any(beta):
        raise ZeroDivisionError("division by the zero ring element")
    j = next(i for i, x in enumerate(beta) if x) if j is None else j
    shifts, _, key0, _ = _codec(rank)
    reach = 1 + max(map(abs, beta))
    step = _pack(rank, beta) - key0 if reach <= _COORD_OFF else 0  # else only bound 0 (no key moves) is packed
    return j, reach, shifts[j], step


def rewrite_in_shifted_basis(a: RingElt, datum: CartanDatum) -> dict[tuple[int, ...], int]:
    """Write ``a`` as an integer polynomial in the shifted variables
    ``y_i = e^{-alpha_i} - 1``.

    The result maps exponent tuples (the multiset of y's) to coefficients.
    Raises :class:`NotInSubring` when some exponent of ``a`` is not a
    nonpositive integer combination of simple roots.
    """
    out: dict[tuple[int, ...], int] = {}
    for alpha, lam, coeff in _root_terms(a, datum):
        if alpha is None or any(x > 0 for x in alpha):
            raise NotInSubring(f"exponent {lam} is not in the nonpositive root cone")
        m = tuple(-x for x in alpha)
        # e^{-alpha_i}^{m_i} = (1+y_i)^{m_i}; expand binomially
        for ks in itertools.product(*(range(x + 1) for x in m)):
            mult = 1
            for mi, ki in zip(m, ks):
                mult *= math.comb(mi, ki)
            accumulate(out, ks, coeff * mult)
    return out


# -- serialization and printing ------------------------------------------------


def _root_terms(a: RingElt, datum: CartanDatum):
    """(simple-root coordinates, or None off the root lattice, exponent,
    coefficient) for each term of ``a``, graded-lex descending."""
    if a.rank != datum.rank:  # the memo reads every key at the datum's rank
        raise ValueError("rank mismatch between ring element and root datum")
    for key, coeff in sorted(a._terms.items(), reverse=True):
        yield *_exponent(datum, key), coeff


@lru_cache(maxsize=None)
def _exponent(datum: CartanDatum, key: int):
    """(simple-root coordinates, or None off the root lattice, exponent) of a packed key."""
    lam = _unpack(datum.rank, key)
    return rootsys.omega_to_alpha(datum, lam), lam


def to_pairs(a: RingElt, datum: CartanDatum):
    """Canonical serialization: a list of [exponent-vector, coefficient]
    pairs sorted lexicographically, exponents in simple-root coordinates
    when the whole element lies in the root lattice (else in
    fundamental-weight coordinates)."""
    rows = []
    for alpha, lam, coeff in _root_terms(a, datum):
        if alpha is None:
            rows = a.terms()
            break
        rows.append((alpha, coeff))
    return [[list(exp), coeff] for exp, coeff in sorted(rows)]


def from_pairs(datum: CartanDatum, pairs, basis: str = "alpha") -> RingElt:
    if basis not in ("alpha", "omega"):
        raise ValueError(f"basis must be 'alpha' or 'omega', got {basis!r}")
    items = []
    for exp, coeff in pairs:
        exp = tuple(map(rootsys.as_int, exp))
        if basis == "alpha":
            exp = rootsys.alpha_to_omega(datum, exp)
        items.append((exp, coeff))
    return RingElt.from_terms(datum.rank, items)


def format_elt(a: RingElt, datum: CartanDatum) -> str:
    """Human-readable form, e.g. ``1 - e^{-a1} + 2e^{-a1-a2}``."""
    if not a:
        return "0"
    bits = []
    for alpha, lam, coeff in sorted(_root_terms(a, datum), key=_display_key):
        if alpha is not None:
            mono = _format_exponent(alpha, "a")
        else:
            mono = _format_exponent(lam, "w")
        if mono == "":
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}{mono}"
        sign = "-" if coeff < 0 else "+"
        bits.append((sign, body))
    first_sign, first_body = bits[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in bits[1:]:
        text += f" {sign} {body}"
    return text


def _display_key(term):
    """Print order of ``_root_terms``: descending root-lattice height, so the
    constant term leads, then the exponents off the root lattice."""
    alpha, lam, _ = term
    if alpha is None:
        return (1, lam)
    return (0, tuple(-x for x in (sum(alpha),) + alpha))


def _format_exponent(coords, var: str) -> str:
    parts = []
    for i, c in enumerate(coords, start=1):
        if c == 0:
            continue
        mag = f"{abs(c)}" if abs(c) != 1 else ""
        parts.append(("-" if c < 0 else "+") + mag + f"{var}{i}")
    if not parts:
        return ""
    body = "".join(parts)
    if body.startswith("+"):
        body = body[1:]
    return "e^{" + body + "}"


# -- tiny expression parser (fixtures, tests) -----------------------------------


def parse_expression(datum: CartanDatum, text: str) -> RingElt:
    """Parse expressions like ``(1-e(-a1))*(1+e(-a1-2a2))`` or ``-e(-2a1-a2)``.

    Grammar: integers, ``e(<linear form in a1..ar>)``, ``+ - *`` and
    parentheses.  Used to keep transcribed table data readable.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"parse error in {text!r} at token {tok!r}")
        pos[0] += 1
        return tok

    def parse_expr():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        val = parse_term() * sign
        while peek() in ("+", "-"):
            op = take()
            val = val + parse_term() * (1 if op == "+" else -1)
        return val

    def parse_term():
        val = parse_factor()
        while peek() == "*":
            take()
            val = val * parse_factor()
        return val

    def parse_factor():
        tok = peek()
        if tok == "(":
            take()
            val = parse_expr()
            take(")")
            return val
        if tok == "e":
            take()
            take("(")
            coords = parse_linear()
            take(")")
            return RingElt.monomial(datum.rank, rootsys.alpha_to_omega(datum, coords))
        if isinstance(tok, int):
            take()
            return RingElt.monomial(datum.rank, (0,) * datum.rank, tok)
        if tok == "-":
            take()
            return -parse_factor()
        raise ValueError(f"parse error in {text!r} at token {tok!r}")

    def parse_linear():
        coords = [0] * datum.rank
        while peek() != ")":
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            mult = 1
            if isinstance(peek(), int):
                mult = take()
                if peek() == "*":
                    take()
            name = take()
            if not (isinstance(name, str) and name.startswith("a") and name[1:].isdigit()):
                raise ValueError(f"expected a simple-root symbol in {text!r}, got {name!r}")
            idx = int(name[1:])
            if not 1 <= idx <= datum.rank:
                raise ValueError(f"root index {idx} out of range in {text!r}")
            coords[idx - 1] += sign * mult
        return tuple(coords)

    val = parse_expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return val


def _tokenize(text: str):
    """Integers and symbols are ASCII; any other character, a non-ASCII
    digit included, is unexpected."""
    out = []
    for tok in re.findall(r"[0-9]+|[^\W_]+|\S", text):
        bad = next((ch for ch in tok if not ch.isascii()), None)
        if bad is not None:
            raise ValueError(f"unexpected character {bad!r} in {text!r}")
        if tok.isdigit():
            out.append(int(tok))
        elif tok in ("e", "+", "-", "*", "(", ")") or (tok[0] == "a" and tok[1:].isdigit()):
            out.append(tok)
        elif tok[0].isalpha():
            raise ValueError(f"unknown symbol {tok!r} in {text!r}")
        else:
            raise ValueError(f"unexpected character {tok!r} in {text!r}")
    return out
