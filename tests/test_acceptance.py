"""Acceptance criteria, one test per criterion.

Every tolerance is zero (exact symbolic equality); the golden and
route-equivalence criteria also carry the stated wall-clock budgets.  Each
test prints one CRITERION line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them inline.
"""

import itertools
import time

import pytest

from qkline import repring, weyl
from qkline.golden import check_classical_fixture, check_golden_fixture
from qkline.ktheory import SchubertExpansion
from qkline.qklines import (
    CheckReport,
    GateError,
    cor_xi_sum,
    curve_neighborhood,
    kgw2,
    kgw3,
    peterson_check,
    peterson_sweep,
    projected_gw,
    qk_constant_divided_difference,
    qk_constant_general,
    qk_constant_kfree,
    qk_product_degree1,
    quantum_coefficients,
    sign_check,
    vanishing_check,
)
from qkline.repring import parse_expression

RANK_LE_3 = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3")


def report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:>2} ({name}): {status}"
    if extra:
        line += f"  [{extra}]"
    print(line, flush=True)
    assert ok, line


def admissible_configs(datum):
    n = datum.rank
    for r in range(n):
        for p in itertools.combinations(range(1, n + 1), r):
            for k in range(1, n + 1):
                if k in p:
                    continue
                if weyl.in_class_P(datum, p, k):
                    yield frozenset(p), k


def test_criterion_01_golden_sl3():
    t0 = time.perf_counter()
    res = check_golden_fixture("A2")
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.rows_checked == 15 and elapsed < 1.0
    report(1, "golden SL3 table", ok, f"{res.rows_checked} rows, {elapsed:.2f}s, "
           f"{len(res.corrections_used)} documented misprint correction(s)")


def test_criterion_02_golden_sp4():
    t0 = time.perf_counter()
    res = check_golden_fixture("C2")
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.rows_checked == 28 and elapsed < 5.0
    report(2, "golden Sp4 table", ok, f"{res.rows_checked} rows, {elapsed:.2f}s")


def test_criterion_03_classical_cross_check():
    bad = []
    for label in ("A2", "C2"):
        res = check_classical_fixture(label)
        if not res.passed:
            bad.append((label, res.mismatches[:2]))
    report(3, "classical q^0 cross-check", not bad, "both tables, quantum layer bypassed")


def test_criterion_04_route_equivalence(engine):
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for label in ("A1", "A2", "A3", "B2", "C2", "B3"):
        e = engine(label)
        els = e.W.elements()
        zero = e.ring_zero()
        for u in els:
            for v in els:
                for k in range(1, e.rank + 1):
                    general = quantum_coefficients(e, u, v, k)
                    support = set(general)
                    first = e.structure_constants(weyl.hecke_down(u, k), weyl.hecke_down(v, k))
                    second = e.divided_difference(e.structure_constants(u, v), k)
                    support |= set(first.coeffs) | set(second.coeffs)
                    for w in support:
                        a = qk_constant_kfree(e, u, v, w, k)
                        b = first.coeff(w) - second.coeff(w)
                        c = general.get(w, zero)
                        checked += 1
                        if not (a == b == c):
                            bad.append((label, u.word_str, v.word_str, w.word_str, k))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(4, "route equivalence", ok, f"{checked} constants, {elapsed:.1f}s")


def test_criterion_05_vanishing_theorem(engine):
    t0 = time.perf_counter()
    bad = []
    configs = 0
    for label in RANK_LE_3:
        e = engine(label)
        for p, k in admissible_configs(e.datum):
            rep = vanishing_check(e, p, k)
            configs += 1
            if not rep.passed:
                bad.append((label, sorted(p), k, rep.witnesses[:2]))
    report(5, "vanishing theorem", not bad,
           f"{configs} admissible (P,k) configs, {time.perf_counter() - t0:.1f}s")


def test_criterion_06_sign_theorem(engine):
    t0 = time.perf_counter()
    bad = []
    configs = 0
    for label in RANK_LE_3:
        e = engine(label)
        for p, k in admissible_configs(e.datum):
            if not weyl.is_k_free(e.datum, p, k):
                continue
            rep = sign_check(e, p, k)
            configs += 1
            if not rep.passed:
                bad.append((label, sorted(p), k, rep.witnesses[:2]))
    report(6, "sign alternation", not bad,
           f"{configs} k-free configs, {time.perf_counter() - t0:.1f}s")


def test_criterion_07_gkm_property_suite(engine):
    t0 = time.perf_counter()
    bad = []
    classes = products = 0
    for label in RANK_LE_3:
        e = engine(label)
        els = e.W.elements()
        for v in els:
            cls = e.schubert_class(v)
            classes += 1
            if e.gkm_violations(cls):
                bad.append((label, v.word_str, "edge"))
            for w, val in cls.restrictions.items():
                if not weyl.bruhat_leq(v, w):
                    bad.append((label, v.word_str, "triangularity"))
            if cls.value(v) != e.diagonal_value(v):
                bad.append((label, v.word_str, "diagonal"))
        for u, v in itertools.combinations_with_replacement(els, 2):
            prod = e.multiply(e.schubert_class(u), e.schubert_class(v))
            products += 1
            if e.gkm_violations(prod):
                bad.append((label, u.word_str, v.word_str, "product edge"))
        # expansion inverts linear combinations exactly
        coeffs = {}
        for i, w in enumerate(els[: min(6, len(els))]):
            c = parse_expression(e.datum, f"{i + 1}-e(-a1)" if i % 2 else f"{i + 1}")
            coeffs[w] = c
        combo = e.schubert_class_of_expansion(SchubertExpansion(e.datum, coeffs))
        if e.expand(combo).coeffs != coeffs:
            bad.append((label, "expand-roundtrip"))
    report(7, "GKM property suite", not bad,
           f"{classes} classes, {products} products, {time.perf_counter() - t0:.1f}s")


def test_criterion_08_peterson_and_dual_sum(engine, dual_sum_refinement_mismatches):
    e = engine("A2")
    p = frozenset({2})
    k = 1
    pk = weyl.build_Pk(e.datum, p, k)
    reps = weyl.enumerate_wp(e.W, p)
    bad = []
    for u in reps:
        for v in reps:
            up = e.structure_constants(weyl.hecke_down(u, k), weyl.hecke_down(v, k), pk)
            for w in reps:
                if not peterson_check(e, p, k, u, v, w).passed:
                    bad.append(("peterson", u.word_str, v.word_str, w.word_str))
                expected = e.ring_zero()
                for z, c in up.coeffs.items():
                    if weyl.min_coset_rep(z, p) is w:
                        expected = expected + c
                if cor_xi_sum(e, u, v, w, k, p, pk) != expected:
                    bad.append(("dual-sum", u.word_str, v.word_str, w.word_str))
    # P_k is empty above, so its Peterson half compares one sum with itself;
    # on A3/{3} at k = 1, P_k = {3} and the quotient side is computed apart from G/B
    a3 = engine("A3")
    assert weyl.build_Pk(a3.datum, {3}, 1) == {3}
    n = len(weyl.enumerate_wp(a3.W, {3}))
    summary = CheckReport("peterson", "A3", (3,), 1, "pass", (), {"triples_checked": n ** 3})
    if peterson_sweep(a3, {3}, 1) != [summary]:
        bad.append(("peterson-sweep", "A3", "{3}", "k=1"))
    # the A2 dual sum above is checked against a copy of itself; the sum over the
    # k-free refinement P_k = {3} must equal the one over the full flag
    bad += [("dual-sum-refinement", *t) for t in dual_sum_refinement_mismatches(a3, frozenset({3}), 1)]
    report(8, "parabolic comparison and dual-class sum", not bad,
           f"{len(reps) ** 3} + {n ** 3} + {n ** 3} triples, three identities")


def test_criterion_09_brion_sign_property(engine):
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for label in RANK_LE_3:
        e = engine(label)
        els = e.W.elements()
        for u, v in itertools.combinations_with_replacement(els, 2):
            for w, c in e.structure_constants(u, v).coeffs.items():
                sign = 1 if (u.length + v.length - w.length) % 2 == 0 else -1
                checked += 1
                if sign * c.specialize_to_one() < 0:
                    bad.append((label, u.word_str, v.word_str, w.word_str))
    report(9, "classical sign alternation", not bad,
           f"{checked} coefficients, {time.perf_counter() - t0:.1f}s")


def test_criterion_10_gate_behavior(engine):
    e = engine("B2")
    p = frozenset({1})  # alpha_1 long; k = 2 is the short node
    k = 2
    W = e.W
    u = W.simple(2)
    f = SchubertExpansion(e.datum, {u: e.ring_one()}, p)
    ok = not weyl.in_class_P(e.datum, p, k)
    gated = []
    for call in (
        lambda: kgw3(e, u, u, f, k, p),
        lambda: qk_constant_general(e, u, u, u, k, p),
        lambda: quantum_coefficients(e, u, u, k, p),
        lambda: vanishing_check(e, p, k),
        lambda: peterson_check(e, p, k, u, u, u),
        lambda: cor_xi_sum(e, u, u, u, k, p, frozenset()),
        lambda: sign_check(e, p, k),
        lambda: kgw2(e, u, u, k, p),
        lambda: curve_neighborhood(e, "X", u, k, p),
        lambda: projected_gw(e, u, u, k, p),
        lambda: qk_constant_kfree(e, u, u, u, k, p),
        lambda: qk_constant_divided_difference(e, u, u, u, k, p),
    ):
        try:
            call()
            gated.append(False)
        except GateError as exc:
            gated.append("admissible" in str(exc) or "-free" in str(exc))
    prod = qk_product_degree1(e, u, u, p)
    skip_ok = prod.skipped == (2,) and prod.quantum == {}
    report(10, "gate behavior outside the admissible class", ok and all(gated) and skip_ok,
           f"{len(gated)} operations rejected with cited hypothesis; product records skip")
