"""Comparison of engine output against the hand-transcribed reference tables.

The fixture files are data, never regenerated by the code under test.  A
fixture may list rows only up to a diagram symmetry; the comparator then
completes the table by applying the symmetry *to the fixture data*, not to
engine output, and cross-checks rows that the symmetry maps to themselves.

A fixture may carry documented misprint corrections: entries whose printed
coefficient is provably inconsistent with the rest of the same table.  The
comparator checks the corrected value and reports every correction it used,
so nothing is silently patched.
"""

from __future__ import annotations

import json
from importlib import resources

from . import repring, rootsys, weyl
from .ktheory import KTEngine
from .qklines import CheckReport, qk_product_degree1
from .repring import RingElt
from .rootsys import record

_FIXTURES = {"A2": "sl3_table.json", "C2": "sp4_table.json"}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def load_fixture(group: str) -> dict:
    name = _FIXTURES.get(group.strip().upper())  # case-blind, as rootsys.named_datum is
    if name is None:
        raise ValueError(f"no golden fixture for {group!r}; available: {', '.join(fixture_names())}")
    text = resources.files("qkline.fixtures").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


class GoldenRow(record("GoldenRow", "u v classical quantum corrections")):
    """One fixture row: the words u and v, {w: coefficient} classically and per
    quantum node k, and the (k, w) misprint corrections applied to it."""

    __slots__ = ()


class GoldenResult(record("GoldenResult", "group rows_checked mismatches corrections_used")):
    """A fixture's comparison: rows checked, mismatches and the corrections used."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _parse_rows(datum, fixture) -> list[GoldenRow]:
    corrections = {}
    for m in fixture.get("misprints", ()):
        key = (m["u"], m["v"], int(m["q"]), m["w"])
        printed = repring.parse_expression(datum, m["printed"])
        consistent = repring.parse_expression(datum, m["consistent"])
        if printed == consistent:
            raise ValueError("misprint entry does not change the value; remove it")
        corrections[key] = (printed, consistent)
    rows = []
    for raw in fixture["rows"]:
        u, v = raw["u"], raw["v"]
        classical = {w: repring.parse_expression(datum, s) for w, s in raw["classical"].items()}
        quantum = {}
        applied = []
        for kstr, terms in raw.get("quantum", {}).items():
            k = int(kstr)
            coeffs = {}
            for w, s in terms.items():
                val = repring.parse_expression(datum, s)
                fix = corrections.get((u, v, k, w))
                if fix is not None:
                    printed, consistent = fix
                    if val != printed:
                        raise ValueError(f"misprint entry does not match the stored row for ({u},{v})")
                    val = consistent
                    applied.append((k, w))
                coeffs[w] = val
            quantum[k] = coeffs
        rows.append(GoldenRow(u, v, classical, quantum, tuple(applied)))
    return rows


def _mirror_word(word: str, perm: dict[int, int], group) -> str:
    """Letterwise image of the word's reduced word, re-emitted in canonical form
    (the letterwise image need not be the lex-minimal reduced word)."""
    return group.from_word([perm[k] for k in group.parse_word(word).word]).word_str


def _mirror_elt(val: RingElt, perm: dict[int, int]) -> RingElt:
    idx = [perm[i + 1] - 1 for i in range(val.rank)]

    def move(coords):
        out = [0] * len(coords)
        for i, c in enumerate(coords):
            out[idx[i]] = c
        return tuple(out)

    return val.map_exponents(move)


def _mirror_row(row: GoldenRow, perm: dict[int, int], group) -> GoldenRow:
    return GoldenRow(
        _mirror_word(row.u, perm, group),
        _mirror_word(row.v, perm, group),
        {_mirror_word(w, perm, group): _mirror_elt(c, perm) for w, c in row.classical.items()},
        {
            perm[k]: {_mirror_word(w, perm, group): _mirror_elt(c, perm) for w, c in terms.items()}
            for k, terms in row.quantum.items()
        },
        row.corrections,
    )


def _complete_by_symmetry(rows: list[GoldenRow], perm: dict[int, int], group) -> list[GoldenRow]:
    """Add mirrored rows; when the mirror lands on a stored unordered pair,
    assert consistency of the fixture instead."""
    def pair_key(r):
        return frozenset((r.u, r.v))

    stored = {pair_key(r): r for r in rows}
    out = list(rows)
    for row in rows:
        mirrored = _mirror_row(row, perm, group)
        existing = stored.get(pair_key(mirrored))
        if existing is None:
            out.append(mirrored)
            stored[pair_key(mirrored)] = mirrored
        else:
            if (existing.classical, existing.quantum) != (mirrored.classical, mirrored.quantum):
                raise ValueError(
                    f"fixture is not symmetry-consistent at row ({row.u}, {row.v})"
                )
    return out


def _prepare(group: str):
    """Load, parse and symmetry-complete a fixture: (an engine on the fixture's
    own datum, rows, parabolic, the fixture's own group label)."""
    fixture = load_fixture(group)
    datum = rootsys.named_datum(fixture["group"])
    engine = KTEngine(datum)
    rows = _parse_rows(datum, fixture)
    symmetry = fixture.get("mirror_symmetry")
    if symmetry:
        perm = {i + 1: s for i, s in enumerate(symmetry)}
        rows = _complete_by_symmetry(rows, perm, engine.W)
    return engine, rows, weyl.normalize_parabolic(datum, fixture["parabolic"]), str(datum)


def check_golden_fixture(group: str) -> GoldenResult:
    engine, rows, p, label = _prepare(group)
    mismatches, corrections = [], []
    for row in rows:
        u = engine.W.parse_word(row.u)
        v = engine.W.parse_word(row.v)
        product = qk_product_degree1(engine, u, v, p)
        got_classical = {w.word_str: c for w, c in product.classical.coeffs.items()}
        _compare_part(mismatches, row, "classical", row.classical, got_classical)
        for k, exp in product.quantum.items():
            expected = row.quantum.get(k, {})
            got = {w.word_str: c for w, c in exp.coeffs.items()}
            _compare_part(mismatches, row, f"q{k}", expected, got)
        for k in row.quantum:
            if k not in product.quantum:
                mismatches.append((row.u, row.v, f"q{k}", "*", "expected terms", "node skipped"))
        corrections.extend((row.u, row.v) + c for c in row.corrections)
    return GoldenResult(label, len(rows), mismatches, corrections)


def golden_report(group: str) -> CheckReport:
    """check_golden_fixture as a check report: the first eight mismatches,
    and every misprint correction that was applied."""
    res = check_golden_fixture(group)
    details = {"rows": res.rows_checked}
    if res.corrections_used:
        details["misprint_corrections"] = [list(map(str, c)) for c in res.corrections_used]
    status = "pass" if res.passed else "fail"
    return CheckReport("golden", res.group, (), None, status, tuple(res.mismatches[:8]), details)


def _compare_part(mismatches, row, part, expected, got):
    for w in sorted(set(expected) | set(got)):
        e = expected.get(w)
        g = got.get(w)
        if e != g:
            mismatches.append((row.u, row.v, part, w, repr(e), repr(g)))


def check_classical_fixture(group: str) -> GoldenResult:
    """The q^0 part of the table against the classical engine alone (no
    quantum-layer code in the loop)."""
    engine, rows, p, label = _prepare(group)
    mismatches = []
    for row in rows:
        u = engine.W.parse_word(row.u)
        v = engine.W.parse_word(row.v)
        exp = engine.structure_constants(u, v, p)
        got = {w.word_str: c for w, c in exp.coeffs.items()}
        _compare_part(mismatches, row, "classical", row.classical, got)
    return GoldenResult(label, len(rows), mismatches, [])
