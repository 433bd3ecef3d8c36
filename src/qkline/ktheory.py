"""Equivariant K-theory of the full flag manifold in the fixed-point model.

A class is a function from Weyl group elements (the torus-fixed points) to
the coefficient ring, subject to the divisibility condition along the
moment-graph edges: for every point ``w`` and positive root ``beta``, the
difference of values at ``w`` and ``s_beta w`` is divisible by
``1 - e^beta``.  Products are pointwise.

Schubert classes are built by a descending Demazure recursion from the point
class at the longest element,

    basis seed:  O^{w_0}|_w = [w == w_0] * prod_{beta > 0} (1 - e^{-beta}),
    step:        (D_k f)(w) = (f(w) - e^{w(alpha_k)} f(w s_k)) / (1 - e^{w(alpha_k)}),

so that ``D_k O^v = O^{v_k}`` (Hecke lowering of the basis index).  The
resulting classes satisfy

* triangularity: ``O^v|_w = 0`` unless ``v <= w`` in Bruhat order,
* the diagonal formula ``O^v|_v = prod (1 - e^{-beta})`` over the positive
  roots sent negative by ``v^{-1}``,
* ``O^id = 1``.

Structure constants for any parabolic quotient are computed inside this one
engine: for minimal representatives ``u, v`` the product ``O^u . O^v``
expands with support in the minimal representatives again, and pullback
along the projection is injective, so those coefficients *are* the quotient
constants.  Expansion is a triangular solve against the diagonal values; the
pushforward to a point is the sum of expansion coefficients, because every
Schubert class has sheaf Euler characteristic 1.

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
    """A coefficient-ring-valued function on the fixed points (sparse)."""

    datum: CartanDatum
    restrictions: dict[WeylElement, RingElt]

    def value(self, w: WeylElement) -> RingElt:
        got = self.restrictions.get(w)
        return got if got is not None else RingElt.zero(self.datum.rank)

    def support(self):
        return self.restrictions.keys()


@dataclass(frozen=True)
class SchubertExpansion:
    """A finite Schubert-basis expansion over the minimal representatives of
    a parabolic quotient; zero coefficients are never stored."""

    coeffs: dict[WeylElement, RingElt]
    parabolic: frozenset[int] = field(default_factory=frozenset)

    def coeff(self, w: WeylElement) -> RingElt:
        got = self.coeffs.get(w)
        if got is not None:
            return got
        rank = w.group.rank
        return RingElt.zero(rank)

    def support(self):
        return self.coeffs.keys()

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key)


class KTEngine:
    """Shared, memoizing computation engine for one root system."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.W = WeylGroup.for_datum(datum)
        self._schubert: dict[WeylElement, KClass] = {}
        self._opposite: dict[WeylElement, KClass] = {}
        self._constants: dict[tuple, SchubertExpansion] = {}
        self._pos_roots = tuple(r.coords for r in rootsys.positive_roots(datum))
        self._reflections: tuple[WeylElement, ...] | None = None

    # -- ring helpers ---------------------------------------------------------

    def ring_zero(self) -> RingElt:
        return RingElt.zero(self.rank)

    def ring_one(self) -> RingElt:
        return RingElt.one(self.rank)

    def _one_minus_e(self, weight_coords) -> RingElt:
        return self.ring_one() - RingElt.monomial(self.rank, weight_coords)

    def root_monomial(self, alpha_coords, negate=False) -> RingElt:
        w = rootsys.alpha_to_omega(self.datum, alpha_coords)
        if negate:
            w = tuple(-x for x in w)
        return RingElt.monomial(self.rank, w)

    # -- Schubert classes -------------------------------------------------------

    def diagonal_value(self, v: WeylElement) -> RingElt:
        """prod (1 - e^{-beta}) over inversions; the value O^v|_v."""
        out = self.ring_one()
        for beta in v.inversions:
            out = out * self._one_minus_e(tuple(-x for x in rootsys.alpha_to_omega(self.datum, beta)))
        return out

    def schubert_class(self, v: WeylElement) -> KClass:
        got = self._schubert.get(v)
        if got is not None:
            return got
        w0 = self.W.longest()
        if v is w0:
            self.W.elements()  # refuses a group too large to enumerate before any class is built
            cls = KClass(self.datum, {w0: self.diagonal_value(w0)})
        else:
            k = next(i for i in range(1, self.rank + 1) if not v.has_right_descent(i))
            cls = self.demazure(self.schubert_class(self.W.right_mult_gen(v, k)), k)
        self._schubert[v] = cls
        return cls

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
        (w, w s_k); sends O^v to O^{v_k} and is idempotent."""
        W = self.W
        pts = set(c.restrictions)
        pts |= {W.right_mult_gen(w, k) for w in pts}
        out = {}
        one = self.ring_one()
        for w in pts:
            t = self.root_monomial(w.table[k - 1])  # e^{w(alpha_k)}
            num = c.value(w) - t * c.value(W.right_mult_gen(w, k))
            if num:
                out[w] = exact_divide(num, one - t)
        return KClass(self.datum, out)

    def multiply(self, c1: KClass, c2: KClass) -> KClass:
        """Pointwise product of restriction functions."""
        small, big = (c1.restrictions, c2.restrictions)
        if len(small) > len(big):
            small, big = big, small
        out = {}
        for w, a in small.items():
            b = big.get(w)
            if b is not None:
                prod = a * b
                if prod:
                    out[w] = prod
        return KClass(self.datum, out)

    # -- expansion and structure constants -----------------------------------------

    def expand(self, c: KClass, parabolic=()) -> SchubertExpansion:
        """Triangular solve for the coefficients of ``c`` in the Schubert
        basis indexed by the minimal representatives of the parabolic."""
        p = weyl.normalize_parabolic(self.datum, parabolic)
        basis = weyl.enumerate_wp(self.W, p)
        resid = dict(c.restrictions)
        coeffs: dict[WeylElement, RingElt] = {}
        for v in basis:
            val = resid.get(v)
            if not val:
                continue
            cls = self.schubert_class(v)
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
        """Linear combination sum c_w O^w as a fixed-point function."""
        acc: dict[WeylElement, RingElt] = {}
        for w, cw in e.coeffs.items():
            for u, val in self.schubert_class(w).restrictions.items():
                accumulate(acc, u, cw * val)
        return KClass(self.datum, acc)

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
            prod = self.multiply(self.schubert_class(u), self.schubert_class(v))
            got = self.expand(prod, p)
            self._constants[key] = got
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

    def gkm_violations(self, c: KClass, max_report: int = 4):
        """Edge-divisibility failures as (point, root) pairs; empty means the
        class satisfies the moment-graph condition."""
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
                    if len(bad) >= max_report:
                        return bad
        return bad
