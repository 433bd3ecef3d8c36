"""Run one ``qkline`` CLI invocation with per-layer spans.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py [--record] -- <qkline argv...>

The program's stdout is left exactly as the CLI writes it.  After the CLI
returns, one line ``@@perfbench-trace <json>`` is written to stderr with the
per-layer aggregates (and, with ``--record``, every span).

Wrappers are installed from this file around public entry points of the
``rootsys``, ``weyl``, ``repring``, ``ktheory``, ``qklines`` and ``cli``
modules; nothing under ``src/`` is edited.  A call made directly under a
span of the same layer (recursion, or ``__sub__`` delegating to
``__add__``/``__neg__``) belongs to that outer span, so counts are
top-level calls per layer.  Times are integer nanoseconds, so a span's self
time (its duration minus its direct children's durations) is exact and the
self times of a tree sum to its root's duration.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "@@perfbench-trace "

MODULES = ("rootsys", "weyl", "repring", "ktheory", "qklines", "golden", "cli")

# Layers whose per-call durations are kept for percentiles.
PERCENTILE_LAYERS = ("qklines.qk_product_degree1", "qklines.peterson_check")


def _pairs(args, result):
    a, b = args[0], args[1]
    return len(a) * (len(b) if hasattr(b, "_terms") else 1)


def _terms(args, result):
    return sum(len(x) for x in args if hasattr(x, "_terms"))


def _steps(args, result):
    return len(result)


def _first_len(args, result):
    return len(args[0])


def _class_size(args, result):
    return len(result.restrictions), sum(len(v) for v in result.restrictions.values())


def _points(args, result):
    return len(args[1].restrictions)


# (layer, module, attribute path, unit counter).  A counter returns one int
# (added to "units") or, for demazure, a (points, terms) pair.
SPANS = (
    ("rootsys.omega_to_alpha", "rootsys", "omega_to_alpha", None),
    ("weyl.elements", "weyl", "WeylGroup.elements", None),
    ("weyl.bruhat_leq", "weyl", "bruhat_leq", None),
    ("weyl.min_coset_rep", "weyl", "min_coset_rep", None),
    ("repring.mul", "repring", "RingElt.__mul__", _pairs),
    ("repring.mul", "repring", "RingElt.__rmul__", _pairs),
    ("repring.add", "repring", "RingElt.__add__", _terms),
    ("repring.add", "repring", "RingElt.__radd__", _terms),
    ("repring.add", "repring", "RingElt.__sub__", _terms),
    ("repring.add", "repring", "RingElt.__rsub__", _terms),
    ("repring.add", "repring", "RingElt.__neg__", _terms),
    ("repring.exact_divide", "repring", "exact_divide", _steps),
    ("repring.divides_one_minus_e", "repring", "divides_one_minus_e", _first_len),
    ("repring.to_pairs", "repring", "to_pairs", None),
    ("ktheory.schubert_class", "ktheory", "KTEngine.schubert_class", None),
    ("ktheory.demazure", "ktheory", "KTEngine.demazure", _class_size),
    ("ktheory.multiply", "ktheory", "KTEngine.multiply", None),
    ("ktheory.expand", "ktheory", "KTEngine.expand", _points),
    ("ktheory.diagonal_value", "ktheory", "KTEngine.diagonal_value", None),
    ("ktheory.structure_constants", "ktheory", "KTEngine.structure_constants", None),
    ("ktheory.gkm_violations", "ktheory", "KTEngine.gkm_violations", None),
    ("qklines.quantum_coefficients", "qklines", "quantum_coefficients", None),
    ("qklines.kgw3", "qklines", "kgw3", None),
    ("qklines.qk_product_degree1", "qklines", "qk_product_degree1", None),
    ("qklines.peterson_check", "qklines", "peterson_check", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Installs span wrappers and aggregates them per layer.

    ``stats[layer]`` holds calls, self_ns, total_ns, units, hits (spans with
    no child span, i.e. answered without doing any traced work), and for
    :data:`PERCENTILE_LAYERS` the list of span durations.
    """

    def __init__(self, record: bool = False):
        self.stats: dict[str, dict] = {}
        self.spans: list[list] | None = [] if record else None
        self._stack: list[list] = []  # frames: [layer, child_ns, n_children, span index]
        self._undo: list[tuple[object, str, object]] = []

    def _stat(self, layer: str) -> dict:
        stat = self.stats.get(layer)
        if stat is None:
            stat = {"calls": 0, "self_ns": 0, "total_ns": 0, "units": 0, "hits": 0}
            if layer in PERCENTILE_LAYERS:
                stat["durations_ns"] = []
            if layer == "ktheory.demazure":
                stat["class_points"] = stat["class_terms"] = 0
            self.stats[layer] = stat
        return stat

    def wrap(self, layer: str, fn, counter=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        stat = self._stat(layer)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0, 0, -1]
            if spans is not None:
                frame[3] = len(spans)
                spans.append([layer, 0, 0, parent[3] if parent is not None else -1, 0])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns = dur - frame[1]
                stat["calls"] += 1
                stat["total_ns"] += dur
                stat["self_ns"] += self_ns
                if not frame[2]:
                    stat["hits"] += 1
                if "durations_ns" in stat:
                    stat["durations_ns"].append(dur)
                if parent is not None:
                    parent[1] += dur
                    parent[2] += 1
                if spans is not None:
                    spans[frame[3]][1:3] = [start, end]
                    spans[frame[3]][4] = self_ns
            if counter is not None:
                got = counter(args, result)
                if isinstance(got, tuple):
                    stat["class_points"] += got[0]
                    stat["class_terms"] += got[1]
                else:
                    stat["units"] += got
            return result

        return traced

    def install(self):
        """Wrap every entry point in :data:`SPANS`, including the names other
        qkline modules imported it under (``from .weyl import bruhat_leq``)."""
        import importlib

        modules = [importlib.import_module(f"qkline.{m}") for m in MODULES]
        for layer, mod_name, path, counter in SPANS:
            owner = importlib.import_module(f"qkline.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(layer, original, counter)
            targets = [owner] if outer else [m for m in modules if m.__dict__.get(attr) is original]
            for target in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def payload(self) -> dict:
        out = {"layers": self.stats}
        if self.spans is not None:
            out["spans"] = self.spans
        return out


def _group_sizes(argv):
    """|W| and |W^P| for the --group/--parabolic of the traced argv."""
    from qkline import rootsys, weyl
    from qkline.cli import _parse_parabolic, build_parser

    args = build_parser().parse_args(argv)
    if not getattr(args, "group", None):
        return {}
    W = weyl.WeylGroup.for_datum(rootsys.resolve_group(args.group))
    p = _parse_parabolic(getattr(args, "parabolic", ""))
    return {"order": W.order, "basis_size": len(weyl.enumerate_wp(W, p))}


def main(argv) -> int:
    record = False
    if argv and argv[0] == "--record":
        record, argv = True, argv[1:]
    if not argv or argv[0] != "--":
        print("usage: tracer.py [--record] -- <qkline argv...>", file=sys.stderr)
        return 2
    argv = argv[1:]

    from qkline import cli

    tracer = Tracer(record)
    tracer.install()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = tracer.payload()
    payload["exit_code"] = rc
    payload["sizes"] = _group_sizes(argv) if rc == 0 else {}
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(payload) + "\n")
    sys.stderr.flush()
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
