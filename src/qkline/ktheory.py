"""Equivariant K-theory of G/B and G/P in the fixed-point model.

A class is a function from Weyl group elements (the torus-fixed points) to
the coefficient ring, subject to the divisibility condition along the
moment-graph edges: for every point ``w`` and positive root ``beta``, the
difference of values at ``w`` and ``s_beta w`` is divisible by
``1 - e^beta``.  Products are pointwise.

Schubert classes are built on ``W^P`` by the K-theoretic Billey formula
(Graham 2002, Willems 2004), which has no division: for a reduced word
``w = s_{i_1} ... s_{i_l}`` and ``beta_j = s_{i_1} ... s_{i_{j-1}} alpha_{i_j}``,

    O^v|_w = sum_J (-1)^{|J| - l(v)} prod_{j in J} (1 - e^{-beta_j}),

over the subwords J whose Demazure (0-Hecke) product is v.  Peeling the
first letter, ``w = s_k w'``, gives a left recursion: the column
``x -> O^x|_w`` is the column of ``w'`` twisted by ``s_k``, with the twist at
``x`` times ``e^{-alpha_k}`` when ``s_k x < x``, and the twist times
``1 - e^{-alpha_k}`` added at ``s_k x`` when ``s_k x > x``.  It never leaves
``W^P``: ``w'`` is in ``W^P`` with ``w``, and a point ``x`` outside ``W^P``
has a descent in ``P`` that ``s_k x`` keeps, so it is dropped.  One pass
over ``W^P`` by length fills every class of the parabolic.  The classes
satisfy

* triangularity: ``O^v|_w = 0`` unless ``v <= w`` in Bruhat order,
* the diagonal formula ``O^v|_v = prod (1 - e^{-beta})`` over the positive
  roots sent negative by ``v^{-1}``,
* ``O^id = 1``,
* ``D_k O^v = O^{v_k}`` for the moment-graph Demazure operator

    (D_k f)(w) = (f(w) - e^{w(alpha_k)} f(w s_k)) / (1 - e^{w(alpha_k)}).

A class on a parabolic quotient ``G/P`` is stored by its values at the
fixed points of ``G/P``, the minimal representatives ``W^P``; as a function
on W it is constant on every coset ``w W_P``.  A class and an expansion each
carry their datum and are checked once when built, by one helper (the quotient
normalised to a frozenset of integer nodes, each point in the datum's Weyl
group, then in ``W^P``), read-only after.  Operations check a value by its datum
and quotient (``_require_on``), and a class moves between quotients only through
its Schubert expansion (``pullback``, ``pushforward``).

Structure constants for a parabolic quotient are computed on G/P: the
pointwise product of ``O^u`` and ``O^v`` and the triangular solve against
the diagonal values visit the ``W^P`` points, every point a class has, so a
class that divides at each of them is in the span; on the Borel quotient
(``P`` empty) nothing is restricted.  The pushforward to a point is the sum
of expansion coefficients: every Schubert class has sheaf Euler characteristic 1.

All caches are append-only with value-identical recomputation, and the solve
mutates only residuals it created: the engine may be shared across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from . import repring, rootsys, weyl
from .repring import RingElt, accumulate, exact_divide, subtract_product
from .rootsys import CartanDatum
from .weyl import WeylElement, WeylGroup


class ExpansionError(ValueError):
    """Input class is not in the span of the Schubert basis of its quotient."""


def _seal(cls, datum: CartanDatum, points, parabolic):
    """A value checked once, when built: its mapping of points copied read-only, its quotient normalised, each point in its W^P."""
    points = MappingProxyType(dict(points))
    p = weyl.normalize_parabolic(datum, parabolic)
    WeylGroup.for_datum(datum).require(*points, parabolic=p)
    return tuple.__new__(cls, (datum, points, p))


class KClass(rootsys.record("KClass", "datum restrictions parabolic")):
    """A coefficient-ring-valued function on the fixed points (sparse) of G/P, the points
    of W^P; checked once when built by ``_seal``, read-only.  It cannot be pickled or
    deep-copied: a Weyl element is its interned object."""

    __slots__ = ()

    def __new__(cls, datum: CartanDatum, restrictions: Mapping[WeylElement, RingElt], parabolic=frozenset()):
        return _seal(cls, datum, restrictions, parabolic)

    def value(self, w: WeylElement) -> RingElt:
        """The value at any point of W: a class on G/P is read at the
        minimal representative of w W_P.  GroupMismatchError for a point of
        another group than the Weyl group of the datum."""
        WeylGroup.for_datum(self.datum).require(w)
        got = self.restrictions.get(weyl.min_coset_rep(w, self.parabolic))
        return RingElt.zero(self.datum.rank) if got is None else got


class SchubertExpansion(rootsys.record("SchubertExpansion", "datum coeffs parabolic")):
    """A finite Schubert-basis expansion over W^P of one datum, without zero coefficients;
    checked once when built by ``_seal``, an empty one too, read-only.  It cannot be
    pickled or deep-copied: a Weyl element is its interned object."""

    __slots__ = ()

    def __new__(cls, datum: CartanDatum, coeffs: Mapping[WeylElement, RingElt], parabolic=frozenset()):
        return _seal(cls, datum, coeffs, parabolic)

    def coeff(self, w: WeylElement) -> RingElt:
        """The coefficient of O^w, zero off the support; GroupMismatchError for a w of
        another group, ValueError for one outside W^P of the quotient, where no O^w exists."""
        WeylGroup.for_datum(self.datum).require(w, parabolic=self.parabolic)
        got = self.coeffs.get(w)
        return RingElt.zero(self.datum.rank) if got is None else got

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key)


class KTEngine:
    """Shared, memoizing computation engine for one root system."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.W = WeylGroup.for_datum(datum)
        self._schubert: dict[tuple, KClass] = {}
        self._constants: dict[tuple, SchubertExpansion] = {}
        self._edges: dict[WeylElement, list[tuple]] | None = None

    # -- ring helpers ---------------------------------------------------------

    def ring_zero(self) -> RingElt:
        return RingElt.zero(self.rank)

    def ring_one(self) -> RingElt:
        return RingElt.one(self.rank)

    def _one_minus_e(self, beta) -> RingElt:
        """1 - e^{-beta} for a root beta in simple-root coordinates."""
        return self.ring_one() - RingElt.monomial(self.rank, tuple(-x for x in rootsys.alpha_to_omega(self.datum, beta)))

    # -- Schubert classes -------------------------------------------------------

    def diagonal_value(self, v: WeylElement) -> RingElt:
        """prod (1 - e^{-beta}) over inversions; the value O^v|_v."""
        self.W.require(v)
        out = self.ring_one()
        for beta in v.inversions:
            out = out * self._one_minus_e(beta)
        return out

    def schubert_class(self, v: WeylElement, parabolic=()) -> KClass:
        """O^v on G/P (G/B for P empty), v in W^P; the first call for a
        parabolic builds all of its classes at once."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        got = self._schubert.get((v, p))
        if got is None:
            self.W.require(v, parabolic=p)
            self._build_classes(p)
            got = self._schubert[(v, p)]
        return got

    def _build_classes(self, p: frozenset[int]) -> None:
        """Every O^v, v in W^P, on G/P by the left recursion of the module
        docstring, in one pass over W^P by length; the classes are stored
        with setdefault.  Every exponent of a value is minus a sum of
        distinct positive roots, so ``bound`` bounds every twist."""
        W, datum = self.W, self.datum
        reps = weyl.enumerate_wp(W, p)  # refuses a group too large to enumerate
        weights = [rootsys.alpha_to_omega(datum, beta) for beta in W.positive_root_coords]
        bound = max(sum(abs(lam[i]) for lam in weights) for i in range(self.rank))
        cols = {W.identity: {W.identity: self.ring_one()}}
        for w in reps[1:]:
            k = w.word[0]
            one_minus_e = self._one_minus_e(rootsys.simple_root(datum, k))
            e = self.ring_one() - one_minus_e  # e^{-alpha_k}
            col: dict[WeylElement, RingElt] = {}
            for x, val in cols[w.left_mult_gen(k)].items():
                # keep ``bound``: without it 737 of B4's moves take the tuple path (2.15-2.76 s against
                # 1.56-2.00 s, Python 3.11 on 2 vCPUs), and re-bounding at the field edge instead leaves loose
                # bounds that start exact_divide's Newton-box check early (table D4/{1,3,4}: 10.29 s, not 9.32 s)
                t = repring.simple_reflection(val, datum, k, bound)
                if x.has_left_descent(k):
                    accumulate(col, x, e * t)
                    continue
                accumulate(col, x, t)
                y = x.left_mult_gen(k)
                if weyl.in_wp(y, p):
                    accumulate(col, y, one_minus_e * t)
            cols[w] = col
        rows: dict[WeylElement, dict[WeylElement, RingElt]] = {v: {} for v in reps}
        for w, col in cols.items():
            for x, val in col.items():
                rows[x][w] = val
        for v, vals in rows.items():
            self._schubert.setdefault((v, p), KClass(datum, vals, p))

    def opposite_schubert_class(self, w: WeylElement) -> KClass:
        """O_w, defined from O^{w_0 w} by the symmetry twisting both the point
        and the coefficients by w_0."""
        w0 = self.W.longest()
        up = self.schubert_class(w0 * w)
        return KClass(self.datum, {w0 * x: repring.weyl_act(w0, val) for x, val in up.restrictions.items()})

    def demazure(self, c: KClass, k: int) -> KClass:
        """The moment-graph form of the degree-lowering operator along edges
        (w, w s_k); sends O^v to O^{v_k} and is idempotent.  Acts on G/B."""
        rootsys.check_index(self.datum, k)
        self._require_on(c, "demazure", frozenset())
        pts = dict.fromkeys(c.restrictions)  # insertion-ordered, so the output never follows addresses
        pts.update(dict.fromkeys(w.right_mult_gen(k) for w in c.restrictions))
        out = {}
        one, zero, vals = self.ring_one(), self.ring_zero(), c.restrictions
        for w in pts:
            t = RingElt.monomial(self.rank, rootsys.alpha_to_omega(self.datum, w.table[k - 1]))  # e^{w(alpha_k)}
            num = vals.get(w, zero) - t * vals.get(w.right_mult_gen(k), zero)
            if num:
                out[w] = exact_divide(num, one - t)
        return KClass(self.datum, out)

    def multiply(self, c1: KClass, c2: KClass) -> KClass:
        """Pointwise product of two classes on one quotient."""
        for c in (c1, c2):
            self._require_on(c, "multiply", c1.parabolic)
        small, big = c1.restrictions, c2.restrictions
        if len(small) > len(big):
            small, big = big, small
        out = {}
        for w, a in small.items():
            b = big.get(w)
            if b is not None:
                prod = a * b
                if prod:
                    out[w] = prod
        return KClass(self.datum, out, c1.parabolic)

    # -- expansion and structure constants -----------------------------------------

    def expand(self, c: KClass) -> SchubertExpansion:
        """Triangular solve for the coefficients of ``c`` in the Schubert
        basis of its own quotient G/P; the solve visits W^P only."""
        self._require_on(c, "expand")
        reps = weyl.enumerate_wp(self.W, c.parabolic)
        # the solve's own residuals, one per point: subtract_product mutates them, never c or a memoised class
        resid = {w: RingElt(self.rank, {}, 0) for w in reps}
        resid.update((w, RingElt(self.rank, dict(val._terms), val._bound)) for w, val in c.restrictions.items())
        coeffs: dict[WeylElement, RingElt] = {}
        for v in reps:
            val = resid.pop(v)
            if not val:
                continue
            cls = self.schubert_class(v, c.parabolic)
            try:
                cv = exact_divide(val, cls.restrictions[v])  # the diagonal value O^v|_v
            except repring.NotDivisible:
                raise ExpansionError(
                    f"restriction at {v.word_str} is not divisible by the diagonal value"
                ) from None
            coeffs[v] = cv
            for w, ov in cls.restrictions.items():
                if w is not v:  # exact_divide returned, so the residual at v is exactly 0
                    subtract_product(resid[w], cv, ov)
        return SchubertExpansion(self.datum, coeffs, c.parabolic)

    def schubert_class_of_expansion(self, e: SchubertExpansion) -> KClass:
        """Linear combination sum c_w O^w as a fixed-point function on the
        expansion's quotient."""
        self._require_on(e, "schubert_class_of_expansion")
        acc: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            for u, val in self.schubert_class(w, e.parabolic).restrictions.items():
                accumulate(acc, u, cw * val)
        return KClass(self.datum, acc, e.parabolic)

    def structure_constants(self, u: WeylElement, v: WeylElement, parabolic=()) -> SchubertExpansion:
        """All coefficients of O^u . O^v over the given quotient at once,
        memoised per unordered pair {u, v}: the product is commutative."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        key = (frozenset((u, v)), p)
        got = self._constants.get(key)
        if got is None:
            prod = self.multiply(self.schubert_class(u, p), self.schubert_class(v, p))
            got = self._constants.setdefault(key, self.expand(prod))
        return got

    # -- functoriality ------------------------------------------------------------

    def divided_difference(self, e: SchubertExpansion, k: int) -> SchubertExpansion:
        """Coefficientwise Hecke move of the basis indices: O^w -> O^{w_k}."""
        self._require_on(e, "divided_difference")
        if not weyl.is_k_free(self.datum, e.parabolic, k):
            raise ValueError(f"divided difference needs a k-free parabolic (k={k})")
        out: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            accumulate(out, weyl.hecke_down(w, k), cw)
        return SchubertExpansion(self.datum, out, e.parabolic)

    def pushforward(self, e: SchubertExpansion, bigger) -> SchubertExpansion:
        """Along the projection to a bigger parabolic: reindex by minimal
        coset representatives."""
        self._require_on(e, "pushforward")
        q = weyl.normalize_parabolic(self.datum, bigger)
        if not e.parabolic <= q:
            raise ValueError("pushforward needs a containing parabolic")
        out: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            accumulate(out, weyl.min_coset_rep(w, q), cw)
        return SchubertExpansion(self.datum, out, q)

    def pullback(self, e: SchubertExpansion, smaller) -> SchubertExpansion:
        """Along the projection from a smaller parabolic quotient: indices are
        unchanged (the basis index set only grows)."""
        self._require_on(e, "pullback")
        p = weyl.normalize_parabolic(self.datum, smaller)
        if not p <= e.parabolic:
            raise ValueError("pullback needs a contained parabolic")
        return SchubertExpansion(self.datum, e.coeffs, p)

    def euler_characteristic(self, e: SchubertExpansion) -> RingElt:
        """Pushforward to the point: every basis class integrates to 1."""
        self._require_on(e, "euler_characteristic")
        return sum(e.coeffs.values(), self.ring_zero())

    # -- moment-graph checks --------------------------------------------------------

    def _moment_graph(self) -> dict[WeylElement, list[tuple]]:
        """For each point w of W, its edges ``(s_beta w, beta, beta in weight
        coordinates)`` over the positive roots in root order; built whole
        before it is stored, so a concurrent reader never sees a part."""
        if self._edges is None:
            datum, W = self.datum, self.W
            roots = [(beta, rootsys.alpha_to_omega(datum, beta)) for beta in W.positive_root_coords]

            def reflect(beta, gamma):  # s_beta on simple-root coordinates
                pair = rootsys.root_pairing(datum, gamma, beta)
                return tuple(g - pair * b for g, b in zip(gamma, beta))

            self._edges = {
                w: [(W.intern(tuple(reflect(beta, col) for col in w.table)), beta, lam) for beta, lam in roots]
                for w in W.elements()
            }
        return self._edges

    def gkm_violations(self, c: KClass):
        """Edge-divisibility failures as (point, root) pairs, at most four;
        empty means the class satisfies the moment-graph condition.  Each
        edge with a value at either end is tested once on its two end values,
        from its shorter end when both carry values.  Checks classes on G/B."""
        self._require_on(c, "gkm_violations", frozenset())
        vals, graph = c.restrictions, self._moment_graph()
        bad = []
        for w, val in vals.items():
            for other, beta, lam in graph[w]:
                if other in vals and other.length < w.length:
                    continue
                if not repring.divides_one_minus_e(val, lam, vals.get(other)):
                    bad.append((w, beta))
                    if len(bad) >= 4:
                        return bad
        return bad

    def _require_on(self, c: KClass | SchubertExpansion, op: str, p: frozenset[int] | None = None) -> None:
        """The one check of a class or an expansion that ``op`` takes: GroupMismatchError unless it
        is of this engine's datum, then, when ``p`` is given, ValueError unless it is on G/P (P empty
        for the moment-graph operations, which walk G/B); its points were checked when it was built."""
        if c.datum != self.datum:
            raise weyl.GroupMismatchError(f"{op} on {self.datum} takes classes of {self.datum}, not of {c.datum}")
        if p is not None and c.parabolic != p:
            want, got = (f"G/P for P = {sorted(q)}" if q else "G/B" for q in (p, c.parabolic))
            raise ValueError(f"{op} acts on classes on {want}, not on {got}")
