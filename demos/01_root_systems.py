"""Root systems from Cartan data.

Walks through the basic queries: positive roots, Dynkin adjacency, root
lengths, and simple reflections on the weight lattice.
"""

from qkline.rootsys import (
    adjacent,
    is_long,
    named_datum,
    parse_cartan_file,
    positive_roots,
    reflect,
)


def show(datum):
    print(f"== {datum} (rank {datum.rank}) ==")
    print("Cartan matrix rows:", list(datum.cartan))
    print("symmetrizer:", datum.symmetrizer)
    roots = positive_roots(datum)
    print(f"{len(roots)} positive roots (simple-root coordinates):")
    print("  ", list(roots))
    long_nodes = [i for i in range(1, datum.rank + 1) if is_long(datum, i)]
    print("long simple roots:", long_nodes)
    print()


for label in ("A2", "C2", "B3", "G2"):
    show(named_datum(label))

print("Adjacency in A3: 1~2:", adjacent(named_datum("A3"), 1, 2),
      " 1~3:", adjacent(named_datum("A3"), 1, 3))

# s_1 reflects the first fundamental weight across its wall
a2 = named_datum("A2")
lam = (1, 0)
print("s_1(omega_1) in A2:", reflect(a2, 1, lam))
print("s_1(s_1(omega_1)):", reflect(a2, 1, reflect(a2, 1, lam)))

# the same data can come from a plain-text matrix file
text = "2\n2 -2\n-1 2\n"
print("\nfrom file text (C2):", parse_cartan_file(text).symmetrizer)
