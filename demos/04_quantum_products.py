"""The quantum layer: line neighborhoods, degree-one invariants and quantum
structure constants, on the full flag manifolds of types A2 and C2."""

from qkline.ktheory import KTEngine
from qkline.qklines import (
    curve_neighborhood,
    kgw3,
    projected_gw,
    qk_constant_divided_difference,
    qk_constant_kfree,
    qk_product_degree1,
)
from qkline.ktheory import SchubertExpansion
from qkline.repring import format_elt
from qkline.rootsys import named_datum


def print_product(engine, u, v):
    datum = engine.datum
    prod = qk_product_degree1(engine, u, v)
    bits = [
        f"({format_elt(c, datum)}) O^{w.word_str}"
        for w, c in prod.classical.items_sorted()
    ]
    for k, exp in sorted(prod.quantum.items()):
        for w, c in exp.items_sorted():
            bits.append(f"({format_elt(c, datum)}) q{k} O^{w.word_str}")
    print(f"O^{u.word_str} * O^{v.word_str} = " + " + ".join(bits))


a2 = KTEngine(named_datum("A2"))
W = a2.W
s1, s2 = W.simple(1), W.simple(2)

print("line neighborhoods in A2 (degree of the first simple coroot):")
print("  through X(2):", curve_neighborhood(a2, "X", s2, 1).word_str)
print("  through Y(1):", curve_neighborhood(a2, "Y", s1, 1).word_str)
d = projected_gw(a2, s1, s1, 1)
print(f"  two-pointed locus for (1,1): top {d.top.word_str}, bottom {d.bottom.word_str},"
      f" nonempty {d.nonempty}, dim {d.dimension}")

print("\nthree-point invariant <O^1, O^1, O^21> of degree eps_1:",
      format_elt(kgw3(a2, s1, s1, SchubertExpansion(a2.datum, {W.parse_word('21'): a2.ring_one()}), 1), a2.datum))

print("\none quantum constant two ways (closed formula vs operator route):")
n1 = qk_constant_kfree(a2, s1, s1, W.identity, 1)
n2 = qk_constant_divided_difference(a2, s1, s1, W.identity, 1)
print("  N_{1,1}^{e, eps_1} =", format_elt(n1, a2.datum), "=", format_elt(n2, a2.datum))

print("\nfull multiplication table of A2 modulo higher quantum degrees:")
nontrivial = [w for w in W.elements() if w is not W.identity]
for i, u in enumerate(nontrivial):
    for v in nontrivial[i:]:
        print_product(a2, u, v)

print("\nselected rows for C2 (alpha_1 short):")
c2 = KTEngine(named_datum("C2"))
for uw, vw in (("2", "2"), ("12", "12"), ("1212", "1212")):
    print_product(c2, c2.W.parse_word(uw), c2.W.parse_word(vw))
