"""Degree-one quantum K-theory: invariants of lines, structure constants,
and the structural checks.

Everything here reduces to the classical engine.  For a k-free parabolic the
moduli of pointed lines of the simple-coroot degree is the flag manifold
itself, so the three-point invariant collapses to an ordinary integral after
one Hecke move on two of the indices.  The integral is linear and every
Schubert class integrates to 1, so for F = sum_w f_w O^w it is a pairing of
memoised classical structure constants:

    <O^u, O^v, [F]>_k  =  sum_x c_{u_k,v_k}^x  sum_w f_w  sum_y c_{x,w}^y.

For an admissible but not k-free pair the computation is pulled back to the
k-free reduction P_k, and the quantum structure constant becomes a
difference of two coset-fibre sums of classical constants

    N_{u,v}^{w,k}  =  sum_a c_{u_k,v_k}^a  -  sum_b c_{u,v}^b,

with a in W^{P_k} and b in W^P whose classes (respectively, the classes of
b_k) project onto w.  Pullback to G/P_k is a ring map sending O^b to O^b, so
the c_{u,v}^b are the constants of G/P itself.  When P is k-free both sums
collapse and the constant is also the O^w-coefficient of

    d_k(O^u) . d_k(O^v) - d_k(O^u . O^v),

which this module exposes as an independent route for cross-checking.

Admissibility is a hard gate: outside the admissible class the reduction to
P_k fails (the comparison map of moduli spaces is not surjective), so every
operation below refuses such input rather than extrapolate.  The gate reads
P_k and admissibility from ``weyl.degree_one_decision``, which decides them once
per (datum, P, k); the suites and ``qk_product_degree1`` read it there too.
The gate then checks that every point the operation takes is in the engine's
own Weyl group and in W^P: each statement holds only for minimal coset
representatives.  kgw3's F is an expansion, checked when built: the engine's
value check ``_require_on`` takes it on the gate's datum and quotient.  A public
operation gates once, then calls ``_pairing_row`` or ``_fibre_sums``, unchecked.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator

from . import repring, weyl
from .ktheory import KTEngine, SchubertExpansion
from .repring import RingElt
from .rootsys import record
from .weyl import WeylElement, bruhat_leq, hecke_down, hecke_up, min_coset_rep


class GateError(ValueError):
    """A quantum operation was invoked outside its proven hypotheses."""


def _gate(engine: KTEngine, p, k, *points, k_free=False):
    """(P, P_k) once (P, alpha_k) is admissible, or k-free if ``k_free`` (then P_k = P):
    a GateError for the hypothesis, then ``WeylGroup.require`` of the points in W^P."""
    p = weyl.normalize_parabolic(engine.datum, p)
    pk, admissible = weyl.degree_one_decision(engine.datum, p, k)
    if k_free and pk != p:
        raise GateError(
            f"parabolic {sorted(p)} is not {k}-free: it contains a node adjacent to "
            f"alpha_{k}, so the space of degree-eps_{k} pointed lines is not the flag "
            "manifold itself"
        )
    if not k_free and not admissible:
        raise GateError(
            f"pair (P={sorted(p)}, alpha_{k}) is not admissible: alpha_{k} is short and "
            f"its component inside Delta_P + {{alpha_{k}}} is not simply laced; the "
            "reduction to the k-free quotient fails for such pairs"
        )
    engine.W.require(*points, parabolic=p)
    return p, pk


def _pairing_row(engine: KTEngine, u, v, k, pk, ws, chi: dict) -> Iterator[RingElt]:
    """For each w of ws, the pairing against O^w: sum_x c_{u_k,v_k}^x chi(O^x . O^w)
    on G/P_k, chi read from the caller's table by (x, w, P_k), filled on a miss."""
    up = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), pk).coeffs
    for w in ws:
        total = engine.ring_zero()  # owned here: the products are added into it in place
        for x, cx in up.items():
            c = chi.get((x, w, pk))
            if c is None:
                c = chi[(x, w, pk)] = engine.euler_characteristic(engine.structure_constants(x, w, pk))
            repring.subtract_product(total, cx, c, 1)
        yield total


def _fibre_sums(engine: KTEngine, u, v, k, p, pk) -> dict[WeylElement, RingElt]:
    """quantum_coefficients' two coset-fibre sums, for (P, P_k) from a gate."""
    acc: dict[WeylElement, RingElt] = {}
    for z, cf in engine.structure_constants(hecke_down(u, k), hecke_down(v, k), pk).coeffs.items():
        repring.accumulate(acc, min_coset_rep(z, p), cf)
    for b, cf in engine.structure_constants(u, v, p).coeffs.items():
        repring.accumulate(acc, min_coset_rep(hecke_down(b, k), p), -cf)
    return acc


# -- line neighborhoods and Richardson descriptors ------------------------------


class RichardsonDescriptor(record("RichardsonDescriptor", "top bottom")):
    """Intersection of a lower and an opposite Schubert variety, described
    combinatorially: nonempty iff bottom <= top, of dimension l(top)-l(bottom)."""

    __slots__ = ()

    @property
    def nonempty(self) -> bool:
        return bruhat_leq(self.bottom, self.top)

    @property
    def dimension(self) -> int:
        return self.top.length - self.bottom.length if self.nonempty else -1


def curve_neighborhood(engine: KTEngine, side: str, u: WeylElement, k: int, p=()) -> WeylElement:
    """Index of the union of degree-eps_k lines through a Schubert variety:
    one Hecke move up (lower variety) or down (opposite variety)."""
    _gate(engine, p, k, u, k_free=True)
    side = side.upper()
    if side == "X":
        return hecke_up(u, k)
    if side == "Y":
        return hecke_down(u, k)
    raise ValueError(f"side must be 'X' or 'Y', got {side!r}")


def projected_gw(engine: KTEngine, u: WeylElement, v: WeylElement, k: int, p=()) -> RichardsonDescriptor:
    """The image of the two-pointed line locus: top u^k against bottom v_k.
    The nonempty flag doubles as the test for existence of such lines."""
    _gate(engine, p, k, u, v, k_free=True)
    return RichardsonDescriptor(hecke_up(u, k), hecke_down(v, k))


class BoundaryBounds(record("BoundaryBounds", "inner outer boundary_dimension")):
    """Inner and outer Richardson bounds for the boundary line locus, plus
    its dimension (outer dimension in the degenerate case, one above the
    inner dimension otherwise)."""

    __slots__ = ()


def boundary_projected_gw(engine: KTEngine, u: WeylElement, v: WeylElement, k: int, p=()) -> BoundaryBounds:
    outer = projected_gw(engine, u, v, k, p)
    inner = RichardsonDescriptor(u, v)
    if outer.top is u or outer.bottom is v:
        dim = outer.dimension
    else:
        dim = u.length - v.length + 1
    return BoundaryBounds(inner, outer, dim)


# -- invariants of lines ----------------------------------------------------------


def kgw3(engine: KTEngine, u: WeylElement, v: WeylElement, f: SchubertExpansion, k: int, p=()) -> RingElt:
    """Three-point degree-eps_k invariant against F = sum_w f_w O^w on the
    same quotient (u and v gated, F checked by its datum and quotient): sum_w f_w times
    the pairing row over F's indices on the k-free reduction G/P_k, where F's pullback has them."""
    p, pk = _gate(engine, p, k, u, v)
    engine._require_on(f, "kgw3", p)
    row = _pairing_row(engine, u, v, k, pk, f.coeffs, {})
    return sum((fw * val for fw, val in zip(f.coeffs.values(), row)), engine.ring_zero())


def kgw2(engine: KTEngine, z: WeylElement, w: WeylElement, k: int, p=()) -> RingElt:
    """Two-point invariant against the dual class: 1 exactly when z_k == w."""
    _gate(engine, p, k, z, w, k_free=True)
    return engine.ring_one() if hecke_down(z, k) is w else engine.ring_zero()


# -- quantum structure constants ----------------------------------------------------


def qk_constant_kfree(engine: KTEngine, u, v, w, k, p=()) -> RingElt:
    """The closed formula for k-free parabolics:
    c_{u_k,v_k}^w - [w has no descent at k] (c_{u,v}^{w s_k} + c_{u,v}^w)."""
    p, _ = _gate(engine, p, k, u, v, w, k_free=True)
    val = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), p).coeff(w)
    if not w.has_right_descent(k):
        cl = engine.structure_constants(u, v, p)
        val = val - cl.coeff(hecke_up(w, k)) - cl.coeff(w)
    return val


def qk_constant_divided_difference(engine: KTEngine, u, v, w, k, p=()) -> RingElt:
    """Same constant via the operator route: the O^w-coefficient of
    d_k(O^u) . d_k(O^v) - d_k(O^u . O^v)."""
    p, _ = _gate(engine, p, k, u, v, w, k_free=True)
    first = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), p)
    second = engine.divided_difference(engine.structure_constants(u, v, p), k)
    return first.coeff(w) - second.coeff(w)


def quantum_coefficients(engine: KTEngine, u, v, k, p=()) -> dict[WeylElement, RingElt]:
    """All degree-eps_k constants N_{u,v}^{.,k} at once, by the two
    coset-fibre sums: a over W^{P_k}, b over the constants of G/P."""
    p, pk = _gate(engine, p, k, u, v)
    return _fibre_sums(engine, u, v, k, p, pk)


def qk_constant_general(engine: KTEngine, u, v, w, k, p=()) -> RingElt:
    """Quantum constant for any admissible pair; agrees with the k-free
    formula whenever that one applies."""
    p, pk = _gate(engine, p, k, u, v, w)
    return _fibre_sums(engine, u, v, k, p, pk).get(w, engine.ring_zero())


class QKProduct(record("QKProduct", "u v classical quantum skipped", ((),))):
    """A product truncated after the linear terms in each quantum parameter
    (mixed and higher powers are dropped by the truncation contract): u, v, the
    classical expansion, {k: q_k-linear expansion} and the skipped nodes."""

    __slots__ = ()


def qk_product_degree1(engine: KTEngine, u, v, p=()) -> QKProduct:
    """Classical expansion plus, for every admissible node k outside the
    parabolic, the q_k-linear coefficients.  Nodes whose pair is not admissible
    are skipped and recorded; the classical call checks u and v."""
    p = weyl.normalize_parabolic(engine.datum, p)
    classical = engine.structure_constants(u, v, p)
    admissible = {k: weyl.degree_one_decision(engine.datum, p, k)[1] for k in range(1, engine.rank + 1) if k not in p}
    quantum = {k: SchubertExpansion(engine.datum, quantum_coefficients(engine, u, v, k, p), p) for k, ok in admissible.items() if ok}
    return QKProduct(u, v, classical, quantum, tuple(k for k, ok in admissible.items() if not ok))


def cor_xi_sum(engine: KTEngine, u, v, w, k, p, q) -> RingElt:
    """Invariant against a dual class, as a coset-fibre sum of classical
    constants over any k-free refinement q of the parabolic p."""
    p, _ = _gate(engine, p, k, u, v, w)
    q, _ = _gate(engine, q, k, k_free=True)
    if not q <= p:
        raise ValueError("the refinement must be contained in the parabolic")
    consts = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), q).coeffs
    return sum((c for z, c in consts.items() if min_coset_rep(z, p) is w), engine.ring_zero())


# -- check reports ------------------------------------------------------------------


class CheckReport(record("CheckReport", "check group parabolic k status witnesses details")):
    """One check's outcome; status is "pass", "fail" or "diagnostic", and details
    default to a fresh dict."""

    __slots__ = ()

    def __new__(cls, check, group, parabolic, k, status, witnesses=(), details=None):
        return super().__new__(cls, check, group, parabolic, k, status, witnesses, {} if details is None else details)

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> str:
        out = self._asdict()
        out["witnesses"] = [list(map(str, w)) for w in self.witnesses]
        if not self.details:
            del out["details"]
        return json.dumps(out, sort_keys=True)


def _report(check, engine: KTEngine, p, k, witnesses, details, status=None) -> CheckReport:
    """Every sweep's report: the witnesses sorted and the first eight kept; unless
    ``status`` is given, it fails exactly when a witness exists."""
    witnesses = sorted(witnesses)
    status = status or ("fail" if witnesses else "pass")
    return CheckReport(check, str(engine.datum), tuple(sorted(p)), k, status, tuple(witnesses[:8]), details)


def vanishing_check(engine: KTEngine, p, k) -> CheckReport:
    """All constants N_{u,v}^{.,k} vanish when u or v is already Hecke-fixed
    at k; sweeps every such pair of minimal representatives."""
    p, pk = _gate(engine, p, k)
    reps = weyl.enumerate_wp(engine.W, p)
    pairs = [(u, v) for u in reps for v in reps if hecke_down(u, k) is u or hecke_down(v, k) is v]
    witnesses = [
        (u.word_str, v.word_str, w.word_str, repr(val))
        for u, v in pairs
        for w, val in _fibre_sums(engine, u, v, k, p, pk).items()
    ]
    return _report("vanishing", engine, p, k, witnesses, {"pairs_checked": len(pairs)})


def _signed_constants(engine: KTEngine, k, p, pk):
    """(u, v, w, N_{u,v}^{w,k}, (-1)^{l(u)+l(v)-l(w)}) for every pair u <= v
    of minimal representatives and every w in the support."""
    reps = weyl.enumerate_wp(engine.W, p)
    for i, u in enumerate(reps):
        for v in reps[i:]:
            for w, val in _fibre_sums(engine, u, v, k, p, pk).items():
                yield u, v, w, val, -1 if (u.length + v.length - w.length) % 2 else 1


def sign_check(engine: KTEngine, p, k) -> CheckReport:
    """Alternation of the nonequivariant constants for a k-free parabolic,
    with the quantum-parameter degree equal to 2."""
    p, pk = _gate(engine, p, k, k_free=True)
    n = len(weyl.enumerate_wp(engine.W, p))
    witnesses = [
        (u.word_str, v.word_str, w.word_str, str(val.specialize_to_one()))
        for u, v, w, val, sign in _signed_constants(engine, k, p, pk)
        if sign * val.specialize_to_one() < 0
    ]
    return _report("sign", engine, p, k, witnesses, {"pairs_checked": n * (n + 1) // 2})


def equivariant_positivity_diagnostic(engine: KTEngine, p, k) -> CheckReport:
    """Conjectural refinement: sign-adjusted constants should have
    nonnegative coefficients in the shifted variables e^{-alpha_i} - 1
    restricted to nodes outside the parabolic.  Reported, never failed."""
    p, pk = _gate(engine, p, k, k_free=True)
    conforming = 0
    nonconforming = []
    for u, v, w, val, sign in _signed_constants(engine, k, p, pk):
        try:
            poly = repring.rewrite_in_shifted_basis(val * sign, engine.datum)
        except repring.NotInSubring:
            nonconforming.append((u.word_str, v.word_str, w.word_str, "not in subring"))
            continue
        uses_inside = any(e and i + 1 in p for ks in poly for i, e in enumerate(ks))
        if uses_inside or any(c < 0 for c in poly.values()):
            nonconforming.append((u.word_str, v.word_str, w.word_str, repr(val)))
        else:
            conforming += 1
    details = {"conforming": conforming, "nonconforming": len(nonconforming)}
    return _report("equivariant-positivity", engine, p, k, nonconforming, details, "diagnostic")  # reported, never failed


def _peterson_failures(engine: KTEngine, u, v, k, pk, ws, chi: dict) -> dict:
    """{w: (lhs, mid)} where the rows against O^w on G/P_k and on G/B disagree.
    With P_k empty the two rows are one sum, so nothing is computed."""
    if not pk:
        return {}
    lhs = _pairing_row(engine, u, v, k, pk, ws, chi)
    mid = _pairing_row(engine, u, v, k, frozenset(), ws, chi)  # G/B is its own k-free reduction
    return {w: (a, b) for w, a, b in zip(ws, lhs, mid) if a != b}


def _peterson_report(engine: KTEngine, p, k, u, v, w, failure) -> CheckReport:
    """One triple's report: failing, with (u, v, w, lhs, mid), when ``failure`` holds the values."""
    witnesses = [(u.word_str, v.word_str, w.word_str, *map(repr, failure))] if failure else []
    return _report("peterson", engine, p, k, witnesses, {"u": u.word_str, "v": v.word_str, "w": w.word_str})


def peterson_check(engine: KTEngine, p, k, u, v, w) -> CheckReport:
    """Quotient-to-full-flag comparison of kgw3 against O^w: one gate, then the
    pairing rows on G/P_k and on G/B over the one index w.  With P_k empty the
    two are one sum and nothing is computed: every full flag, A3/{1,3} at k = 2,
    A3/{2} at both nodes."""
    p, pk = _gate(engine, p, k, u, v, w)
    return _peterson_report(engine, p, k, u, v, w, _peterson_failures(engine, u, v, k, pk, [w], {}).get(w))


def peterson_sweep(engine: KTEngine, p, k) -> list[CheckReport]:
    """peterson_check on every triple of minimal representatives: the reports
    of the failing triples in (u, v, w) order, then one summary counting the
    triples.  One gate; the values depend on u, v only through {u_k, v_k}, so
    each distinct pair gets one pair of rows over W^P, with one chi table per sweep."""
    p, pk = _gate(engine, p, k)
    reps = weyl.enumerate_wp(engine.W, p)
    chi, failures, reports = {}, {}, []
    for u, v in itertools.product(reps, repeat=2):
        key = frozenset((hecke_down(u, k), hecke_down(v, k)))  # c_{u_k,v_k} = c_{v_k,u_k}
        if key not in failures:  # only the row's failures are kept
            failures[key] = _peterson_failures(engine, u, v, k, pk, reps, chi)
        reports.extend(_peterson_report(engine, p, k, u, v, w, failure) for w, failure in failures[key].items())
    reports.append(_report("peterson", engine, p, k, (), {"triples_checked": len(reps) ** 3}))
    return reports


def gkm_check(engine: KTEngine) -> CheckReport:
    """The moment-graph property of the full flag manifold: edge divisibility,
    triangularity and the diagonal formula of every Schubert class, then edge
    divisibility of every product of two classes until nine witnesses."""
    bad = []
    elements = engine.W.elements()
    for v in elements:
        cls = engine.schubert_class(v)
        for w, beta in engine.gkm_violations(cls):
            bad.append((v.word_str, "class", w.word_str, str(beta)))
        for w in cls.restrictions:
            if not bruhat_leq(v, w):
                bad.append((v.word_str, "triangularity", w.word_str, ""))
        if cls.value(v) != engine.diagonal_value(v):
            bad.append((v.word_str, "diagonal", v.word_str, ""))
    for u, v in itertools.combinations_with_replacement(elements, 2):
        prod = engine.multiply(engine.schubert_class(u), engine.schubert_class(v))
        for w, beta in engine.gkm_violations(prod):
            bad.append((u.word_str, v.word_str, w.word_str, str(beta)))
        if len(bad) > 8:
            break
    return _report("gkm", engine, (), None, bad, {"classes": len(elements)})


def run_suite(engine: KTEngine, p, suite: str) -> list[CheckReport]:
    """The reports of one suite on one group and parabolic: vanishing, sign
    and peterson once per admissible node k (sign only where P is k-free),
    gkm once; "all" runs the four in that order."""
    p = weyl.normalize_parabolic(engine.datum, p)
    decided = {k: weyl.degree_one_decision(engine.datum, p, k) for k in range(1, engine.rank + 1) if k not in p}
    nodes = [k for k, (_, admissible) in decided.items() if admissible]
    per_node = {
        "vanishing": lambda k: [vanishing_check(engine, p, k)],
        "sign": lambda k: [sign_check(engine, p, k)] if decided[k][0] == p else [],
        "peterson": lambda k: peterson_sweep(engine, p, k),
    }
    names = (*per_node, "gkm", "all")
    if suite not in names:
        raise ValueError(f"unknown suite {suite!r}; the suites are {', '.join(names)}")
    reports = [
        rep for name, run in per_node.items() if suite in (name, "all") for k in nodes for rep in run(k)
    ]
    if suite in ("gkm", "all"):
        reports.append(gkm_check(engine))
    return reports
