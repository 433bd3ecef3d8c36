"""Structural checks at desk scale: the vanishing and sign properties of the
quantum constants, the parabolic comparison identity, the conjectural
equivariant positivity, and the golden-table comparison."""

from qkline.golden import check_golden_fixture
from qkline.ktheory import KTEngine
from qkline.qklines import (
    equivariant_positivity_diagnostic,
    peterson_sweep,
    sign_check,
    vanishing_check,
)
from qkline.rootsys import named_datum

for label in ("A2", "C2"):
    engine = KTEngine(named_datum(label))
    for k in (1, 2):
        rep = vanishing_check(engine, (), k)
        print(rep.to_json())
        rep = sign_check(engine, (), k)
        print(rep.to_json())

print("\nconjectural equivariant positivity (diagnostic only):")
print(equivariant_positivity_diagnostic(KTEngine(named_datum("C2")), (), 2).to_json())

print("\nparabolic comparison on A3/P for P = {3} at k = 1, where P_k = {3} is not empty:")
*failures, summary = peterson_sweep(KTEngine(named_datum("A3")), {3}, 1)
n = summary.details["triples_checked"]
print(f"  {n - len(failures)}/{n} triples pass")

print("\ngolden tables:")
for group in ("A2", "C2"):
    res = check_golden_fixture(group)
    print(f"  {group}: {'PASS' if res.passed else 'FAIL'} ({res.rows_checked} rows)")
    for used in res.corrections_used:
        print(f"     documented misprint correction honored: {used}")
