"""Command-line frontend.

Subcommands::

    qkline table        --group A2 --parabolic "" [--u 1 --v 1] [--format text|json|latex]
    qkline constant     --group A2 --parabolic "" --u 1 --v 1 --w e --k 1
    qkline check        --suite golden|vanishing|sign|peterson|gkm|all [--group ...] [--parabolic ...]
    qkline neighborhood X|Y --group A2 --parabolic "" --u 2 --k 1

Exit codes: 0 on success, 1 when a check fails, 2 for usage or gate errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import golden, qklines, repring, rootsys, weyl
from .ktheory import KTEngine
from .qklines import GateError
from .repring import RingElt


@dataclass(frozen=True)
class TableRequest:
    group: str
    parabolic: tuple[int, ...]
    pairs: tuple[tuple[str, str], ...] | None  # None means every nontrivial pair
    format: str = "text"


def _parse_parabolic(text: str) -> tuple[int, ...]:
    text = (text or "").strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise GateError(f"cannot parse parabolic node list {text!r}") from None


def _engine(group: str) -> KTEngine:
    return KTEngine(rootsys.resolve_group(group))


def _latex_elt(value: RingElt, datum) -> str:
    text = repring.format_elt(value, datum)
    return text.replace("a", "\\alpha_").replace("w", "\\omega_")


def _latex_class(word: str) -> str:
    if word == "e":
        return "{\\mathcal O}^{id}"
    return "{\\mathcal O}^{s_" + "s_".join(word) + "}"


def _coeff_wrap(text: str) -> str:
    if "+" in text or (" - " in text) or text.startswith("-"):
        return f"({text})"
    return text


def cmd_table(req: TableRequest, out=None) -> int:
    out = out or sys.stdout
    engine = _engine(req.group)
    p = weyl.normalize_parabolic(engine.datum, req.parabolic)
    reps = [w for w in weyl.enumerate_wp(engine.W, p) if w is not engine.W.identity]
    if req.pairs is None:
        pairs = [(u, v) for i, u in enumerate(reps) for v in reps[i:]]
    else:
        pairs = []
        for us, vs in req.pairs:
            u, v = engine.W.parse_word(us), engine.W.parse_word(vs)
            weyl.require_wp(u, p)
            weyl.require_wp(v, p)
            pairs.append((u, v))
    products = [qklines.qk_product_degree1(engine, u, v, p) for u, v in pairs]
    skipped = sorted({k for prod in products for k in prod.skipped})
    if skipped:
        print(
            "note: skipped non-admissible quantum nodes " + ", ".join(map(str, skipped)),
            file=sys.stderr,
        )
    if req.format == "json":
        out.write(_table_json(engine, req, products) + "\n")
    elif req.format == "latex":
        out.write(_table_latex(engine, products))
    else:
        out.write(_table_text(engine, products))
    return 0


def _table_json(engine, req, products) -> str:
    datum = engine.datum
    payload = {
        "group": str(datum),
        "parabolic": sorted(req.parabolic),
        "rows": [
            {
                "u": prod.u.word_str,
                "v": prod.v.word_str,
                "classical": [[w.word_str, repring.to_pairs(c, datum)] for w, c in prod.classical.items_sorted()],
                "quantum": {
                    str(k): [[w.word_str, repring.to_pairs(c, datum)] for w, c in exp.items_sorted()]
                    for k, exp in sorted(prod.quantum.items())
                },
            }
            for prod in products
        ],
    }
    return json.dumps(payload, sort_keys=True)


def _table_text(engine, products) -> str:
    datum = engine.datum
    lines = []
    for prod in products:
        bits = [
            f"{_coeff_wrap(repring.format_elt(c, datum))} O^{{{w.word_str}}}"
            for w, c in prod.classical.items_sorted()
        ]
        for k, exp in sorted(prod.quantum.items()):
            for w, c in exp.items_sorted():
                bits.append(f"{_coeff_wrap(repring.format_elt(c, datum))} q{k} O^{{{w.word_str}}}")
        rhs = " + ".join(bits) if bits else "0"
        lines.append(f"O^{{{prod.u.word_str}}} * O^{{{prod.v.word_str}}} = {rhs}")
    return "\n".join(lines) + "\n"


def _table_latex(engine, products) -> str:
    datum = engine.datum
    rows = []
    for prod in products:
        terms = []
        for w, c in prod.classical.items_sorted():
            terms.append(_coeff_wrap(_latex_elt(c, datum)) + _latex_class(w.word_str))
        for k, exp in sorted(prod.quantum.items()):
            for w, c in exp.items_sorted():
                cls = "" if w is engine.W.identity else _latex_class(w.word_str)
                terms.append(_coeff_wrap(_latex_elt(c, datum)) + f"q_{k}" + cls)
        rhs = "+".join(terms) if terms else "0"
        rows.append(
            f"  {_latex_class(prod.u.word_str)}\\circ {_latex_class(prod.v.word_str)} &\\equiv {rhs}\\\\"
        )
    return "\\begin{align*}\n" + "\n".join(rows) + "\n\\end{align*}\n"


def cmd_constant(args, out=None) -> int:
    out = out or sys.stdout
    engine = _engine(args.group)
    p = _parse_parabolic(args.parabolic)
    u = engine.W.parse_word(args.u)
    v = engine.W.parse_word(args.v)
    w = engine.W.parse_word(args.w)
    const = qklines.qk_constant_general(engine, u, v, w, args.k, p)
    out.write(f"{repring.format_elt(const.value, engine.datum)}\n")
    out.write(f"nonequivariant: {const.value.specialize_to_one()}\n")
    return 0


def cmd_neighborhood(args, out=None) -> int:
    out = out or sys.stdout
    engine = _engine(args.group)
    p = _parse_parabolic(args.parabolic)
    u = engine.W.parse_word(args.u)
    image = qklines.curve_neighborhood(engine, args.side, u, args.k, p)
    side = args.side.upper()
    out.write(f"{image.word_str}\n")
    out.write(
        f"degree-eps_{args.k} line neighborhood of {side}({u.word_str}) is {side}({image.word_str})\n"
    )
    return 0


def _iter_admissible(engine, p):
    for k in range(1, engine.rank + 1):
        if k in p:
            continue
        if weyl.in_class_P(engine.datum, p, k):
            yield k


def cmd_check(args, out=None) -> int:
    out = out or sys.stdout
    suite = args.suite
    failures = 0
    reports = []

    def run_group_suites(group: str, parabolic, which: str):
        nonlocal failures
        engine = _engine(group)
        p = weyl.normalize_parabolic(engine.datum, parabolic)
        if which in ("vanishing", "all"):
            for k in _iter_admissible(engine, p):
                reports.append(qklines.vanishing_check(engine, p, k))
        if which in ("sign", "all"):
            for k in _iter_admissible(engine, p):
                if weyl.is_k_free(engine.datum, p, k):
                    reports.append(qklines.sign_check(engine, p, k))
        if which in ("peterson", "all"):
            reps = weyl.enumerate_wp(engine.W, p)
            for k in _iter_admissible(engine, p):
                for u in reps:
                    for v in reps:
                        for w in reps:
                            rep = qklines.peterson_check(engine, p, k, u, v, w)
                            if not rep.passed:
                                reports.append(rep)
                reports.append(
                    qklines.CheckReport(
                        "peterson", str(engine.datum), tuple(sorted(p)), k, "pass", (),
                        {"triples_checked": len(reps) ** 3},
                    )
                )
        if which in ("gkm", "all"):
            reports.append(_gkm_report(engine))

    if suite in ("golden", "all"):
        groups = [args.group] if args.group and suite == "golden" else list(golden.fixture_names())
        for g in groups:
            res = golden.check_golden_fixture(g)
            status = "pass" if res.passed else "fail"
            details = {"rows": res.rows_checked}
            if res.corrections_used:
                details["misprint_corrections"] = [list(map(str, c)) for c in res.corrections_used]
            reports.append(
                qklines.CheckReport(
                    "golden", g, (), None, status,
                    tuple(tuple(map(str, m)) for m in res.mismatches[:8]), details,
                )
            )

    if suite != "golden":
        if not args.group:
            if suite == "all":
                for g in ("A2", "C2"):
                    run_group_suites(g, _parse_parabolic(args.parabolic), "all")
            else:
                raise GateError(f"suite {suite!r} needs --group")
        else:
            run_group_suites(args.group, _parse_parabolic(args.parabolic), suite)

    for rep in reports:
        if not rep.passed:
            failures += 1
        out.write(rep.to_json() + "\n")
    return 1 if failures else 0


def _gkm_report(engine) -> qklines.CheckReport:
    bad = []
    elements = engine.W.elements()
    for v in elements:
        cls = engine.schubert_class(v)
        for w, beta in engine.gkm_violations(cls):
            bad.append((v.word_str, "class", w.word_str, str(beta.coords)))
        for w, val in cls.restrictions.items():
            if not weyl.bruhat_leq(v, w):
                bad.append((v.word_str, "triangularity", w.word_str, ""))
        if cls.value(v) != engine.diagonal_value(v):
            bad.append((v.word_str, "diagonal", v.word_str, ""))
    for i, u in enumerate(elements):
        for v in elements[i:]:
            prod = engine.multiply(engine.schubert_class(u), engine.schubert_class(v))
            for w, beta in engine.gkm_violations(prod):
                bad.append((u.word_str, v.word_str, w.word_str, str(beta.coords)))
            if len(bad) > 8:
                break
        if len(bad) > 8:
            break
    return qklines.CheckReport(
        "gkm", str(engine.datum), (), None,
        "pass" if not bad else "fail", tuple(bad[:8]),
        {"classes": len(elements)},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_k=False, need_words=()):
        p.add_argument("--group", required=True, help="type label (A2, C2, B3, ...) or Cartan-matrix file")
        p.add_argument("--parabolic", default="", help="comma list of node indices; empty string is the Borel")
        for word in need_words:
            p.add_argument(f"--{word}", required=True, help=f"Weyl word for {word} (digits, 'e' for identity)")
        if need_k:
            p.add_argument("--k", type=int, required=True, help="simple-root node index")

    t = sub.add_parser("table", help="multiplication table, truncated after the q-linear terms")
    common(t)
    t.add_argument("--u", default=None)
    t.add_argument("--v", default=None)
    t.add_argument("--format", choices=("text", "json", "latex"), default="text")

    c = sub.add_parser("constant", help="one quantum structure constant")
    common(c, need_k=True, need_words=("u", "v", "w"))

    ch = sub.add_parser("check", help="verification sweeps")
    ch.add_argument("--suite", required=True, choices=("vanishing", "sign", "peterson", "golden", "gkm", "all"))
    ch.add_argument("--group", default=None)
    ch.add_argument("--parabolic", default="")

    n = sub.add_parser("neighborhood", help="line neighborhood of a Schubert variety")
    n.add_argument("side", choices=("X", "Y", "x", "y"))
    common(n, need_k=True, need_words=("u",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            pairs = None
            if args.u is not None or args.v is not None:
                if args.u is None or args.v is None:
                    raise GateError("--u and --v must be given together")
                pairs = ((args.u, args.v),)
            req = TableRequest(args.group, _parse_parabolic(args.parabolic), pairs, args.format)
            return cmd_table(req)
        if args.command == "constant":
            return cmd_constant(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "neighborhood":
            return cmd_neighborhood(args)
    except (GateError, rootsys.CartanError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
