"""Degree-one quantum K-theory: invariants of lines, structure constants,
and the structural checks.

Everything here reduces to the classical engine.  For a k-free parabolic the
moduli of pointed lines of the simple-coroot degree is the flag manifold
itself, so the three-point invariant collapses to an ordinary integral after
one Hecke move on two of the indices:

    <O^u, O^v, [F]>_k  =  integral of O^{u_k} . O^{v_k} . [F].

For an admissible but not k-free pair the computation is pulled back to the
k-free reduction P_k, and the quantum structure constant becomes a
difference of two coset-fibre sums of classical constants

    N_{u,v}^{w,k}  =  sum_a c_{u_k,v_k}^a  -  sum_b c_{u,v}^b,

with a, b minimal representatives for P_k whose classes (respectively, the
classes of b_k) project onto w.  When P is k-free both sums collapse and the
constant is also the O^w-coefficient of

    d_k(O^u) . d_k(O^v) - d_k(O^u . O^v),

which this module exposes as an independent route for cross-checking.

Admissibility is a hard gate: outside the admissible class the reduction to
P_k fails (the comparison map of moduli spaces is not surjective), so every
operation below refuses such input rather than extrapolate.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from . import repring, weyl
from .ktheory import KTEngine, SchubertExpansion
from .repring import RingElt
from .weyl import WeylElement, bruhat_leq, hecke_down, hecke_up, min_coset_rep, require_wp


class GateError(ValueError):
    """A quantum operation was invoked outside its proven hypotheses."""


def require_k_free(datum, p, k):
    p = weyl.normalize_parabolic(datum, p)
    if not weyl.is_k_free(datum, p, k):
        raise GateError(
            f"parabolic {sorted(p)} is not {k}-free: it contains a node adjacent to "
            f"alpha_{k}, so the space of degree-eps_{k} pointed lines is not the flag "
            "manifold itself"
        )
    return p


def require_admissible(datum, p, k):
    p = weyl.normalize_parabolic(datum, p)
    if not weyl.in_class_P(datum, p, k):
        raise GateError(
            f"pair (P={sorted(p)}, alpha_{k}) is not admissible: alpha_{k} is short and "
            f"its component inside Delta_P + {{alpha_{k}}} is not simply laced; the "
            "reduction to the k-free quotient fails for such pairs"
        )
    return p


# -- line neighborhoods and Richardson descriptors ------------------------------


@dataclass(frozen=True)
class RichardsonDescriptor:
    """Intersection of a lower and an opposite Schubert variety, described
    combinatorially: nonempty iff bottom <= top, of dimension l(top)-l(bottom)."""

    top: WeylElement
    bottom: WeylElement

    @property
    def nonempty(self) -> bool:
        return bruhat_leq(self.bottom, self.top)

    @property
    def dimension(self) -> int:
        return self.top.length - self.bottom.length if self.nonempty else -1


def curve_neighborhood(engine: KTEngine, side: str, u: WeylElement, k: int, p=()) -> WeylElement:
    """Index of the union of degree-eps_k lines through a Schubert variety:
    one Hecke move up (lower variety) or down (opposite variety)."""
    p = require_k_free(engine.datum, p, k)
    require_wp(u, p)
    side = side.upper()
    if side == "X":
        return hecke_up(u, k)
    if side == "Y":
        return hecke_down(u, k)
    raise ValueError(f"side must be 'X' or 'Y', got {side!r}")


def projected_gw(engine: KTEngine, u: WeylElement, v: WeylElement, k: int, p=()) -> RichardsonDescriptor:
    """The image of the two-pointed line locus: top u^k against bottom v_k.
    The nonempty flag doubles as the test for existence of such lines."""
    p = require_k_free(engine.datum, p, k)
    require_wp(u, p)
    require_wp(v, p)
    return RichardsonDescriptor(hecke_up(u, k), hecke_down(v, k))


@dataclass(frozen=True)
class BoundaryBounds:
    """Inner and outer Richardson bounds for the boundary line locus, plus
    its dimension (outer dimension in the degenerate case, one above the
    inner dimension otherwise)."""

    inner: RichardsonDescriptor
    outer: RichardsonDescriptor
    boundary_dimension: int


def boundary_projected_gw(engine: KTEngine, u: WeylElement, v: WeylElement, k: int, p=()) -> BoundaryBounds:
    p = require_k_free(engine.datum, p, k)
    require_wp(u, p)
    require_wp(v, p)
    inner = RichardsonDescriptor(u, v)
    outer = RichardsonDescriptor(hecke_up(u, k), hecke_down(v, k))
    if outer.top is u or outer.bottom is v:
        dim = outer.dimension
    else:
        dim = u.length - v.length + 1
    return BoundaryBounds(inner, outer, dim)


# -- invariants of lines ----------------------------------------------------------


def kgw3(engine: KTEngine, u: WeylElement, v: WeylElement, f: SchubertExpansion, k: int, p=()) -> RingElt:
    """Three-point degree-eps_k invariant against an arbitrary class given by
    its Schubert expansion over the same quotient."""
    p = require_admissible(engine.datum, p, k)
    require_wp(u, p)
    require_wp(v, p)
    if not weyl.is_k_free(engine.datum, p, k):
        pk = weyl.build_Pk(engine.datum, p, k)
        return kgw3(engine, u, v, engine.pullback(f, pk), k, pk)
    cls = engine.multiply(
        engine.schubert_class(hecke_down(u, k)),
        engine.schubert_class(hecke_down(v, k)),
    )
    cls = engine.multiply(cls, engine.schubert_class_of_expansion(f))
    return engine.euler_characteristic(engine.expand(cls, p))


def kgw2(engine: KTEngine, z: WeylElement, w: WeylElement, k: int, p=()) -> RingElt:
    """Two-point invariant against the dual class: 1 exactly when z_k == w."""
    p = require_k_free(engine.datum, p, k)
    require_wp(z, p)
    require_wp(w, p)
    return engine.ring_one() if hecke_down(z, k) is w else engine.ring_zero()


# -- quantum structure constants ----------------------------------------------------


@dataclass(frozen=True)
class QKConstant:
    u: WeylElement
    v: WeylElement
    w: WeylElement
    k: int
    value: RingElt


def qk_constant_kfree(engine: KTEngine, u, v, w, k, p=()) -> QKConstant:
    """The closed formula for k-free parabolics:
    c_{u_k,v_k}^w - [w has no descent at k] (c_{u,v}^{w s_k} + c_{u,v}^w)."""
    p = require_k_free(engine.datum, p, k)
    for x in (u, v, w):
        require_wp(x, p)
    val = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), p).coeff(w)
    if not w.has_right_descent(k):
        cl = engine.structure_constants(u, v, p)
        val = val - cl.coeff(hecke_up(w, k)) - cl.coeff(w)
    return QKConstant(u, v, w, k, val)


def qk_constant_divided_difference(engine: KTEngine, u, v, w, k, p=()) -> QKConstant:
    """Same constant via the operator route: the O^w-coefficient of
    d_k(O^u) . d_k(O^v) - d_k(O^u . O^v)."""
    p = require_k_free(engine.datum, p, k)
    for x in (u, v, w):
        require_wp(x, p)
    first = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), p)
    second = engine.divided_difference(engine.structure_constants(u, v, p), k)
    return QKConstant(u, v, w, k, first.coeff(w) - second.coeff(w))


def quantum_coefficients(engine: KTEngine, u, v, k, p=()) -> dict[WeylElement, RingElt]:
    """All degree-eps_k constants N_{u,v}^{.,k} at once, by the two
    coset-fibre sums over the k-free reduction."""
    p = require_admissible(engine.datum, p, k)
    require_wp(u, p)
    require_wp(v, p)
    pk = weyl.build_Pk(engine.datum, p, k)
    acc: dict[WeylElement, RingElt] = {}
    up = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), pk)
    for a, cf in up.coeffs.items():
        repring.accumulate(acc, min_coset_rep(a, p), cf)
    cl = engine.structure_constants(u, v, pk)
    for b, cf in cl.coeffs.items():
        repring.accumulate(acc, min_coset_rep(hecke_down(b, k), p), -cf)
    return acc


def qk_constant_general(engine: KTEngine, u, v, w, k, p=()) -> QKConstant:
    """Quantum constant for any admissible pair; agrees with the k-free
    formula whenever that one applies."""
    p = require_admissible(engine.datum, p, k)
    require_wp(w, p)
    coeffs = quantum_coefficients(engine, u, v, k, p)
    return QKConstant(u, v, w, k, coeffs.get(w, engine.ring_zero()))


@dataclass(frozen=True)
class QKProduct:
    """A product truncated after the linear terms in each quantum parameter
    (mixed and higher powers are dropped by the truncation contract)."""

    u: WeylElement
    v: WeylElement
    classical: SchubertExpansion
    quantum: dict[int, SchubertExpansion]
    skipped: tuple[int, ...] = ()


def qk_product_degree1(engine: KTEngine, u, v, p=()) -> QKProduct:
    """Classical expansion plus, for every admissible node k outside the
    parabolic, the q_k-linear coefficients.  Non-admissible nodes are
    skipped and recorded."""
    p = weyl.normalize_parabolic(engine.datum, p)
    require_wp(u, p)
    require_wp(v, p)
    classical = engine.structure_constants(u, v, p)
    quantum: dict[int, SchubertExpansion] = {}
    skipped = []
    for k in range(1, engine.rank + 1):
        if k in p:
            continue
        if not weyl.in_class_P(engine.datum, p, k):
            skipped.append(k)
            continue
        quantum[k] = SchubertExpansion(quantum_coefficients(engine, u, v, k, p), p)
    return QKProduct(u, v, classical, quantum, tuple(skipped))


def cor_xi_sum(engine: KTEngine, u, v, w, k, p, q) -> RingElt:
    """Invariant against a dual class, as a coset-fibre sum of classical
    constants over any k-free refinement q of the parabolic p."""
    p = require_admissible(engine.datum, p, k)
    q = require_k_free(engine.datum, q, k)
    if not q <= p:
        raise ValueError("the refinement must be contained in the parabolic")
    for x in (u, v, w):
        require_wp(x, p)
    consts = engine.structure_constants(hecke_down(u, k), hecke_down(v, k), q)
    total = engine.ring_zero()
    for z, cf in consts.coeffs.items():
        if min_coset_rep(z, p) is w:
            total = total + cf
    return total


# -- check reports ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    check: str
    group: str
    parabolic: tuple[int, ...]
    k: int | None
    status: str  # "pass" | "fail" | "diagnostic"
    witnesses: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "group": self.group,
                "parabolic": list(self.parabolic),
                "k": self.k,
                "status": self.status,
                "witnesses": [list(map(str, w)) for w in self.witnesses],
                **({"details": self.details} if self.details else {}),
            },
            sort_keys=True,
        )


def _report(check, engine: KTEngine, p, k, witnesses, details) -> CheckReport:
    """Every sweep's report: the witnesses sorted and the first eight kept; it
    fails exactly when a witness exists."""
    witnesses = sorted(witnesses)
    status = "fail" if witnesses else "pass"
    return CheckReport(check, str(engine.datum), tuple(sorted(p)), k, status, tuple(witnesses[:8]), details)


def vanishing_check(engine: KTEngine, p, k) -> CheckReport:
    """All constants N_{u,v}^{.,k} vanish when u or v is already Hecke-fixed
    at k; sweeps every such pair of minimal representatives."""
    p = require_admissible(engine.datum, p, k)
    reps = weyl.enumerate_wp(engine.W, p)
    pairs = [
        (u, v)
        for u in reps
        for v in reps
        if hecke_down(u, k) is u or hecke_down(v, k) is v
    ]
    witnesses = [
        (u.word_str, v.word_str, w.word_str, repr(val))
        for u, v in pairs
        for w, val in quantum_coefficients(engine, u, v, k, p).items()
    ]
    return _report("vanishing", engine, p, k, witnesses, {"pairs_checked": len(pairs)})


def _signed_constants(engine: KTEngine, p, k):
    """(u, v, w, N_{u,v}^{w,k}, (-1)^{l(u)+l(v)-l(w)}) for every pair u <= v
    of minimal representatives and every w in the support."""
    reps = weyl.enumerate_wp(engine.W, p)
    for i, u in enumerate(reps):
        for v in reps[i:]:
            for w, val in quantum_coefficients(engine, u, v, k, p).items():
                yield u, v, w, val, -1 if (u.length + v.length - w.length) % 2 else 1


def sign_check(engine: KTEngine, p, k) -> CheckReport:
    """Alternation of the nonequivariant constants for a k-free parabolic,
    with the quantum-parameter degree equal to 2."""
    p = require_k_free(engine.datum, p, k)
    n = len(weyl.enumerate_wp(engine.W, p))
    witnesses = [
        (u.word_str, v.word_str, w.word_str, str(val.specialize_to_one()))
        for u, v, w, val, sign in _signed_constants(engine, p, k)
        if sign * val.specialize_to_one() < 0
    ]
    return _report("sign", engine, p, k, witnesses, {"pairs_checked": n * (n + 1) // 2})


def equivariant_positivity_diagnostic(engine: KTEngine, p, k) -> CheckReport:
    """Conjectural refinement: sign-adjusted constants should have
    nonnegative coefficients in the shifted variables e^{-alpha_i} - 1
    restricted to nodes outside the parabolic.  Reported, never failed."""
    p = require_k_free(engine.datum, p, k)
    conforming = 0
    nonconforming = []
    for u, v, w, val, sign in _signed_constants(engine, p, k):
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
    report = _report("equivariant-positivity", engine, p, k, nonconforming, details)
    return replace(report, status="diagnostic")  # reported, never failed


def peterson_check(engine: KTEngine, p, k, u, v, w) -> CheckReport:
    """Quotient-to-full-flag comparison through independent code paths: the
    reduction route on the quotient against the full-flag route, both plain
    and with the longest-element twist of the third index."""
    p = require_admissible(engine.datum, p, k)
    for x in (u, v, w):
        require_wp(x, p)
    one = engine.ring_one()
    lhs = kgw3(engine, u, v, SchubertExpansion({w: one}, p), k, p)
    borel = frozenset()
    mid = kgw3(engine, u, v, SchubertExpansion({w: one}, borel), k, borel)
    pk = weyl.build_Pk(engine.datum, p, k)
    twisted = w * weyl.longest_element(engine.W, pk)
    rhs = kgw3(engine, u, v, SchubertExpansion({twisted: one}, borel), k, borel)
    ok = lhs == mid == rhs
    witnesses = [] if ok else [(u.word_str, v.word_str, w.word_str, repr(lhs), repr(mid), repr(rhs))]
    return _report("peterson", engine, p, k, witnesses, {"u": u.word_str, "v": v.word_str, "w": w.word_str})


def peterson_sweep(engine: KTEngine, p, k) -> list[CheckReport]:
    """peterson_check on every triple of minimal representatives: the reports
    of the failing triples, then one summary counting the triples."""
    p = require_admissible(engine.datum, p, k)
    reps = weyl.enumerate_wp(engine.W, p)
    reports = []
    for u, v, w in itertools.product(reps, repeat=3):
        rep = peterson_check(engine, p, k, u, v, w)
        if not rep.passed:
            reports.append(rep)
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
            bad.append((v.word_str, "class", w.word_str, str(beta.coords)))
        for w in cls.restrictions:
            if not bruhat_leq(v, w):
                bad.append((v.word_str, "triangularity", w.word_str, ""))
        if cls.value(v) != engine.diagonal_value(v):
            bad.append((v.word_str, "diagonal", v.word_str, ""))
    for u, v in itertools.combinations_with_replacement(elements, 2):
        prod = engine.multiply(engine.schubert_class(u), engine.schubert_class(v))
        for w, beta in engine.gkm_violations(prod):
            bad.append((u.word_str, v.word_str, w.word_str, str(beta.coords)))
        if len(bad) > 8:
            break
    return _report("gkm", engine, (), None, bad, {"classes": len(elements)})


def run_suite(engine: KTEngine, p, suite: str) -> list[CheckReport]:
    """The reports of one suite on one group and parabolic: vanishing, sign
    and peterson once per admissible node k (sign only where P is k-free),
    gkm once; "all" runs the four in that order."""
    p = weyl.normalize_parabolic(engine.datum, p)
    nodes = [k for k in range(1, engine.rank + 1) if k not in p and weyl.in_class_P(engine.datum, p, k)]
    per_node = {
        "vanishing": lambda k: [vanishing_check(engine, p, k)],
        "sign": lambda k: [sign_check(engine, p, k)] if weyl.is_k_free(engine.datum, p, k) else [],
        "peterson": lambda k: peterson_sweep(engine, p, k),
    }
    reports = [
        rep for name, run in per_node.items() if suite in (name, "all") for k in nodes for rep in run(k)
    ]
    if suite in ("gkm", "all"):
        reports.append(gkm_check(engine))
    return reports
