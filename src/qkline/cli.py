"""Command-line frontend: parses arguments and prints what the library
returns.  Every check report is built by :mod:`qkline.qklines` (the sweeps)
or :mod:`qkline.golden` (the transcribed tables).

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

from . import golden, qklines, repring, rootsys, weyl
from .ktheory import KTEngine
from .qklines import GateError
from .repring import RingElt


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


def cmd_table(args) -> int:
    if (args.u is None) != (args.v is None):
        raise GateError("--u and --v must be given together")
    parabolic = _parse_parabolic(args.parabolic)
    engine = _engine(args.group)
    p = weyl.normalize_parabolic(engine.datum, parabolic)
    if args.u is None:
        reps = [w for w in weyl.enumerate_wp(engine.W, p) if w is not engine.W.identity]
        pairs = [(u, v) for i, u in enumerate(reps) for v in reps[i:]]
    else:
        pairs = [(engine.W.parse_word(args.u), engine.W.parse_word(args.v))]
        for w in pairs[0]:
            weyl.require_wp(w, p)
    products = [qklines.qk_product_degree1(engine, u, v, p) for u, v in pairs]
    skipped = sorted({k for prod in products for k in prod.skipped})
    if skipped:
        print(
            "note: skipped non-admissible quantum nodes " + ", ".join(map(str, skipped)),
            file=sys.stderr,
        )
    if args.format == "json":
        sys.stdout.write(_table_json(engine, parabolic, products) + "\n")
    elif args.format == "latex":
        sys.stdout.write(_table_latex(engine, products))
    else:
        sys.stdout.write(_table_text(engine, products))
    return 0


def _table_json(engine, parabolic, products) -> str:
    datum = engine.datum
    payload = {
        "group": str(datum),
        "parabolic": sorted(parabolic),
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


def _terms(prod):
    """(k, w, coefficient) for every term of a product: the classical terms
    first (k is None), then the q_k-linear terms by increasing k."""
    for w, c in prod.classical.items_sorted():
        yield None, w, c
    for k, exp in sorted(prod.quantum.items()):
        for w, c in exp.items_sorted():
            yield k, w, c


def _table_text(engine, products) -> str:
    datum = engine.datum
    lines = []
    for prod in products:
        bits = []
        for k, w, c in _terms(prod):
            q = "" if k is None else f"q{k} "
            bits.append(f"{_coeff_wrap(repring.format_elt(c, datum))} {q}O^{{{w.word_str}}}")
        rhs = " + ".join(bits) if bits else "0"
        lines.append(f"O^{{{prod.u.word_str}}} * O^{{{prod.v.word_str}}} = {rhs}")
    return "\n".join(lines) + "\n"


def _table_latex(engine, products) -> str:
    datum = engine.datum
    rows = []
    for prod in products:
        terms = []
        for k, w, c in _terms(prod):
            q = "" if k is None else f"q_{k}"
            cls = "" if q and w is engine.W.identity else _latex_class(w.word_str)  # a bare q_k for O^{id}
            terms.append(_coeff_wrap(_latex_elt(c, datum)) + q + cls)
        rhs = "+".join(terms) if terms else "0"
        rows.append(
            f"  {_latex_class(prod.u.word_str)}\\circ {_latex_class(prod.v.word_str)} &\\equiv {rhs}\\\\"
        )
    return "\\begin{align*}\n" + "\n".join(rows) + "\n\\end{align*}\n"


def cmd_constant(args) -> int:
    engine = _engine(args.group)
    p = _parse_parabolic(args.parabolic)
    u = engine.W.parse_word(args.u)
    v = engine.W.parse_word(args.v)
    w = engine.W.parse_word(args.w)
    const = qklines.qk_constant_general(engine, u, v, w, args.k, p)
    print(repring.format_elt(const.value, engine.datum))
    print(f"nonequivariant: {const.value.specialize_to_one()}")
    return 0


def cmd_neighborhood(args) -> int:
    engine = _engine(args.group)
    p = _parse_parabolic(args.parabolic)
    u = engine.W.parse_word(args.u)
    image = qklines.curve_neighborhood(engine, args.side, u, args.k, p)
    side = args.side.upper()
    print(image.word_str)
    print(f"degree-eps_{args.k} line neighborhood of {side}({u.word_str}) is {side}({image.word_str})")
    return 0


def cmd_check(args) -> int:
    suite = args.suite
    reports = []
    if suite in ("golden", "all"):
        labels = [args.group] if args.group and suite == "golden" else golden.fixture_names()
        reports += [golden.golden_report(g) for g in labels]
    if suite != "golden":
        if not args.group and suite != "all":
            raise GateError(f"suite {suite!r} needs --group")
        parabolic = _parse_parabolic(args.parabolic)
        for g in [args.group] if args.group else golden.fixture_names():
            reports += qklines.run_suite(_engine(g), parabolic, suite)
    for rep in reports:
        print(rep.to_json())
    return 0 if all(rep.passed for rep in reports) else 1


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
    t.set_defaults(run=cmd_table)

    c = sub.add_parser("constant", help="one quantum structure constant")
    common(c, need_k=True, need_words=("u", "v", "w"))
    c.set_defaults(run=cmd_constant)

    ch = sub.add_parser("check", help="verification sweeps")
    ch.add_argument("--suite", required=True, choices=("vanishing", "sign", "peterson", "golden", "gkm", "all"))
    ch.add_argument("--group", default=None)
    ch.add_argument("--parabolic", default="")
    ch.set_defaults(run=cmd_check)

    n = sub.add_parser("neighborhood", help="line neighborhood of a Schubert variety")
    n.add_argument("side", choices=("X", "Y", "x", "y"))
    common(n, need_k=True, need_words=("u",))
    n.set_defaults(run=cmd_neighborhood)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GateError, rootsys.CartanError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
