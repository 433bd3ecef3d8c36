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
on W it is constant on every coset ``w W_P``.  ``descend`` restates a class
on G/P: going to a bigger parabolic it first checks, at every point of the
class's own quotient (zeros included), that the class is constant on the
cosets of the new parabolic, and raises :class:`ExpansionError` otherwise,
since such a class is not in the span of the ``W^P`` Schubert classes.

Structure constants for a parabolic quotient are computed on G/P: the
pointwise product of ``O^u`` and ``O^v`` and the triangular solve against
the diagonal values visit the ``W^P`` points only.  The final leftover check
loses nothing by that: every class in a product or a solve is a class on
G/P (a Schubert class is built there; any other class has passed the coset
check), so the leftover is constant on cosets, and zero at ``W^P`` means
zero on all of W.  The Borel quotient (``P`` empty) is the case in
which nothing is restricted.  The pushforward to a point is the sum of
expansion coefficients, because every Schubert class has sheaf Euler
characteristic 1.

All caches are append-only with value-identical recomputation, so the engine
may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import repring, rootsys, weyl
from .repring import RingElt, accumulate, exact_divide
from .rootsys import CartanDatum
from .weyl import WeylElement, WeylGroup


class ExpansionError(ValueError):
    """Input class is not in the span of the requested Schubert basis."""


@dataclass(frozen=True)
class KClass:
    """A coefficient-ring-valued function on the fixed points (sparse) of
    G/P: its restrictions are the values at the points of W^P."""

    datum: CartanDatum
    restrictions: dict[WeylElement, RingElt]
    parabolic: frozenset[int] = field(default_factory=frozenset)

    def value(self, w: WeylElement) -> RingElt:
        """The value at any point of W: a class on G/P is read at the
        minimal representative of w W_P."""
        if self.parabolic:
            w = weyl.min_coset_rep(w, self.parabolic)
        got = self.restrictions.get(w)
        return got if got is not None else RingElt.zero(self.datum.rank)


@dataclass(frozen=True)
class SchubertExpansion:
    """A finite Schubert-basis expansion over the minimal representatives of
    a parabolic quotient; zero coefficients are never stored."""

    coeffs: dict[WeylElement, RingElt]
    parabolic: frozenset[int] = field(default_factory=frozenset)

    def coeff(self, w: WeylElement) -> RingElt:
        got = self.coeffs.get(w)
        return got if got is not None else RingElt.zero(w.group.rank)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key)


class KTEngine:
    """Shared, memoizing computation engine for one root system."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.W = WeylGroup.for_datum(datum)
        self._schubert: dict[tuple, KClass] = {}
        self._opposite: dict[WeylElement, KClass] = {}
        self._constants: dict[tuple, SchubertExpansion] = {}
        self._cosets: dict[tuple, tuple] = {}
        self._pos_roots = tuple(r.coords for r in rootsys.positive_roots(datum))
        self._reflections: tuple[WeylElement, ...] | None = None

    # -- ring helpers ---------------------------------------------------------

    def ring_zero(self) -> RingElt:
        return RingElt.zero(self.rank)

    def ring_one(self) -> RingElt:
        return RingElt.one(self.rank)

    def _one_minus_e(self, weight_coords) -> RingElt:
        return self.ring_one() - RingElt.monomial(self.rank, weight_coords)

    # -- Schubert classes -------------------------------------------------------

    def diagonal_value(self, v: WeylElement) -> RingElt:
        """prod (1 - e^{-beta}) over inversions; the value O^v|_v."""
        out = self.ring_one()
        for beta in v.inversions:
            out = out * self._one_minus_e(tuple(-x for x in rootsys.alpha_to_omega(self.datum, beta)))
        return out

    def schubert_class(self, v: WeylElement, parabolic=()) -> KClass:
        """O^v on G/P (G/B for P empty), v in W^P; the first call for a
        parabolic builds all of its classes at once."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        got = self._schubert.get((v, p))
        if got is None:
            weyl.require_wp(v, p)
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
        weights = [rootsys.alpha_to_omega(datum, beta) for beta in self._pos_roots]
        bound = max(sum(abs(lam[i]) for lam in weights) for i in range(self.rank))
        cols = {W.identity: {W.identity: self.ring_one()}}
        for w in reps[1:]:
            k = w.word[0]
            alpha = rootsys.alpha_to_omega(datum, rootsys.simple_root(datum, k).coords)
            one_minus_e = self._one_minus_e(tuple(-x for x in alpha))
            e = self.ring_one() - one_minus_e  # e^{-alpha_k}
            col: dict[WeylElement, RingElt] = {}
            for x, val in cols[W.left_mult_gen(k, w)].items():
                t = repring.simple_reflection(val, datum, k, bound)
                if x.has_left_descent(k):
                    accumulate(col, x, e * t)
                    continue
                accumulate(col, x, t)
                y = W.left_mult_gen(k, x)
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
        got = self._opposite.get(w)
        if got is not None:
            return got
        w0 = self.W.longest()
        up = self.schubert_class(w0 * w)
        vals = {}
        for u in self.W.elements():
            raw = up.restrictions.get(w0 * u)
            if raw:
                vals[u] = repring.weyl_act(w0, raw)
        cls = KClass(self.datum, vals)
        self._opposite[w] = cls
        return cls

    def demazure(self, c: KClass, k: int) -> KClass:
        """The moment-graph form of the degree-lowering operator along edges
        (w, w s_k); sends O^v to O^{v_k} and is idempotent.  Acts on G/B."""
        _require_borel(c, "demazure")
        W = self.W
        pts = set(c.restrictions)
        pts |= {W.right_mult_gen(w, k) for w in pts}
        out = {}
        one = self.ring_one()
        for w in pts:
            t = RingElt.monomial(self.rank, rootsys.alpha_to_omega(self.datum, w.table[k - 1]))  # e^{w(alpha_k)}
            num = c.value(w) - t * c.value(W.right_mult_gen(w, k))
            if num:
                out[w] = exact_divide(num, one - t)
        return KClass(self.datum, out)

    def multiply(self, c1: KClass, c2: KClass) -> KClass:
        """Pointwise product of restriction functions, on the intersection of
        the two parabolics (the product of a class on G/P and one on G/B is
        a class on G/B)."""
        p = c1.parabolic & c2.parabolic
        small, big = (self.descend(c1, p).restrictions, self.descend(c2, p).restrictions)
        if len(small) > len(big):
            small, big = big, small
        out = {}
        for w, a in small.items():
            b = big.get(w)
            if b is not None:
                prod = a * b
                if prod:
                    out[w] = prod
        return KClass(self.datum, out, p)

    def descend(self, c: KClass, parabolic) -> KClass:
        """``c`` as a class on G/P, keeping only its values at the points of
        W^P.  It must be constant on every coset w W_P; that is checked at
        every point of c's own quotient, zeros included, and a class that
        fails is not in the span of the W^P Schubert classes.  To a smaller
        parabolic this is the pullback, which always exists."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        q = c.parabolic
        if q == p:
            return c
        check, keep = self._coset_map(q, p)
        vals = c.restrictions
        zero = self.ring_zero()
        for a, b in check:
            if (vals.get(a) or zero) != (vals.get(b) or zero):
                raise ExpansionError(
                    f"class is not constant on the cosets of W_P for P = {sorted(p)}: "
                    f"its values at {a.word_str} and {b.word_str} differ"
                )
        return KClass(self.datum, {x: vals[xq] for x, xq in keep if xq in vals}, p)

    def _coset_map(self, q: frozenset[int], p: frozenset[int]) -> tuple:
        """What restating a class on G/Q as one on G/P reads, memoised per
        (Q, P).  ``check``: the pairs of G/Q points (x W_Q, x' W_Q), x' the
        minimal representative of x W_P, for x in W^{Q & P}; a class is
        constant on the cosets of W_P exactly when it agrees on each pair.
        ``keep``: (x, minimal representative of x W_Q) for x in W^P."""
        got = self._cosets.get((q, p))
        if got is None:

            def rep(x, r):
                return weyl.min_coset_rep(x, r) if r else x

            pairs = ((rep(x, q), rep(rep(x, p), q)) for x in weyl.enumerate_wp(self.W, q & p))
            check = tuple((a, b) for a, b in pairs if a is not b)
            keep = tuple((x, rep(x, q)) for x in weyl.enumerate_wp(self.W, p))
            got = self._cosets.setdefault((q, p), (check, keep))
        return got

    # -- expansion and structure constants -----------------------------------------

    def expand(self, c: KClass, parabolic=()) -> SchubertExpansion:
        """Triangular solve for the coefficients of ``c`` in the Schubert
        basis indexed by the minimal representatives of the parabolic; the
        class is first descended to G/P, so the solve visits W^P only."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        resid = dict(self.descend(c, p).restrictions)
        coeffs: dict[WeylElement, RingElt] = {}
        for v in weyl.enumerate_wp(self.W, p):
            val = resid.get(v)
            if not val:
                continue
            cls = self.schubert_class(v, p)
            try:
                cv = exact_divide(val, cls.restrictions[v])  # the diagonal value O^v|_v
            except repring.NotDivisible:
                raise ExpansionError(
                    f"restriction at {v.word_str} is not divisible by the diagonal value"
                ) from None
            coeffs[v] = cv
            neg_cv = -cv
            for w, ov in cls.restrictions.items():
                accumulate(resid, w, neg_cv * ov)
        if resid:
            bad = sorted(resid, key=lambda w: w.sort_key)
            raise ExpansionError(
                "class is not in the requested Schubert span; leftover support at "
                + ", ".join(w.word_str for w in bad[:4])
            )
        return SchubertExpansion(coeffs, p)

    def schubert_class_of_expansion(self, e: SchubertExpansion) -> KClass:
        """Linear combination sum c_w O^w as a fixed-point function on the
        expansion's quotient."""
        acc: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            for u, val in self.schubert_class(w, e.parabolic).restrictions.items():
                accumulate(acc, u, cw * val)
        return KClass(self.datum, acc, e.parabolic)

    def structure_constants(self, u: WeylElement, v: WeylElement, parabolic=()) -> SchubertExpansion:
        """All coefficients of O^u . O^v over the given quotient at once."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        weyl.require_wp(u, p)
        weyl.require_wp(v, p)
        if v.sort_key < u.sort_key:
            u, v = v, u
        key = (u, v, p)
        got = self._constants.get(key)
        if got is None:
            prod = self.multiply(self.schubert_class(u, p), self.schubert_class(v, p))
            got = self._constants.setdefault(key, self.expand(prod, p))
        return got

    # -- functoriality ------------------------------------------------------------

    def divided_difference(self, e: SchubertExpansion, k: int, opposite: bool = False) -> SchubertExpansion:
        """Coefficientwise Hecke move of the basis indices: O^w -> O^{w_k}
        (or O_w -> O_{w^k} on the opposite basis)."""
        if not weyl.is_k_free(self.datum, e.parabolic, k):
            raise ValueError(f"divided difference needs a k-free parabolic (k={k})")
        move = weyl.hecke_up if opposite else weyl.hecke_down
        out: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            accumulate(out, move(w, k), cw)
        return SchubertExpansion(out, e.parabolic)

    def pushforward(self, e: SchubertExpansion, bigger) -> SchubertExpansion:
        """Along the projection to a bigger parabolic: reindex by minimal
        coset representatives."""
        q = weyl.normalize_parabolic(self.datum, bigger)
        if not e.parabolic <= q:
            raise ValueError("pushforward needs a containing parabolic")
        out: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            accumulate(out, weyl.min_coset_rep(w, q), cw)
        return SchubertExpansion(out, q)

    def pullback(self, e: SchubertExpansion, smaller) -> SchubertExpansion:
        """Along the projection from a smaller parabolic quotient: indices are
        unchanged (the basis index set only grows)."""
        p = weyl.normalize_parabolic(self.datum, smaller)
        if not p <= e.parabolic:
            raise ValueError("pullback needs a contained parabolic")
        return SchubertExpansion(dict(e.coeffs), p)

    def euler_characteristic(self, e: SchubertExpansion) -> RingElt:
        """Pushforward to the point: every basis class integrates to 1."""
        total = self.ring_zero()
        for cw in e.coeffs.values():
            total = total + cw
        return total

    # -- moment-graph checks --------------------------------------------------------

    def reflections(self) -> tuple[WeylElement, ...]:
        """The reflection s_beta for each positive root, in root order."""
        if self._reflections is None:
            datum = self.datum
            refs = []
            for beta in self._pos_roots:
                cols = []
                for j in range(self.rank):
                    gamma = tuple(1 if i == j else 0 for i in range(self.rank))
                    pair = rootsys.root_pairing(datum, gamma, beta)
                    cols.append(tuple(g - pair * b for g, b in zip(gamma, beta)))
                refs.append(self.W.intern(tuple(cols)))
            self._reflections = tuple(refs)
        return self._reflections

    def gkm_violations(self, c: KClass):
        """Edge-divisibility failures as (point, root) pairs, at most four;
        empty means the class satisfies the moment-graph condition.  Checks
        classes on G/B."""
        _require_borel(c, "gkm_violations")
        bad = []
        refs = self.reflections()
        seen_pairs = set()
        pts = list(c.restrictions)
        for w in pts:
            for beta, sbeta in zip(self._pos_roots, refs):
                other = sbeta * w
                pair = (w, other) if w.sort_key <= other.sort_key else (other, w)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                diff = c.value(w) - c.value(other)
                if diff and not repring.divides_one_minus_e(diff, rootsys.alpha_to_omega(self.datum, beta)):
                    bad.append((w, rootsys.Root(beta)))
                    if len(bad) >= 4:
                        return bad
        return bad


def _require_borel(c: KClass, op: str) -> None:
    """Raise ValueError unless ``c`` is a class on G/B: the moment-graph
    operations walk the edges of G/B."""
    if c.parabolic:
        raise ValueError(f"{op} acts on classes on G/B, not on G/P for P = {sorted(c.parabolic)}")
