"""End-to-end and per-layer benchmark for the qkline CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table-A3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Every sample is one ``qkline`` CLI invocation in a fresh interpreter
(``python3 -m qkline.cli`` with ``PYTHONPATH=src``), run one at a time: a
closed loop with a single client.  Each invocation's exit code and stdout
sha256 are checked against ``references.json``, recorded on the seed
commit; a mismatch counts as a failed invocation.

A run is a sequence of blocks, each holding one child of every kind in an
order drawn from the seed; the inputs themselves are fixed groups.
``--trace 0`` blocks hold an invocation, a set-up probe (a fresh interpreter
that only imports qkline and builds the engine, the Weyl group and W^P) and
the calibration kernel; the run reports end-to-end metrics.  ``--trace 1``
blocks hold an untraced invocation, a traced one (``tracer.py``, whose
stdout must hash the same) and the calibration kernel; the run reports the
per-layer metrics.  Both keep adding blocks for ``--seconds`` seconds.

Human-readable lines (environment, every metric with its unit) come first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MODULES, TRACE_MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qkline"
REFERENCES = BENCH / "references.json"
TRACER = BENCH / "tracer.py"

MIN_SAMPLES = 3  # blocks per untraced run, whatever --seconds says
MIN_TRACED = 2  # blocks per traced run
RUN_DEADLINE_S = 170.0  # a run stops starting children and kills a stuck one after this

SETUP_CODE = """\
import sys
from qkline import rootsys, weyl
from qkline.ktheory import KTEngine
engine = KTEngine(rootsys.resolve_group(sys.argv[1]))
engine.W.elements()
weyl.enumerate_wp(engine.W, [int(x) for x in sys.argv[2].split(",") if x])
"""

# The shared machine's speed drifts by tens of percent, over seconds and
# over minutes, for every process alike.  So each block also times this
# fixed stdlib kernel (tuple keys, dict updates, a sort: the interpreter
# work the engine does), and every time is reported in reference seconds:
# a child's seconds * CAL_REF_S / the kernel's seconds in the same block,
# then the median over blocks.  The raw medians are printed as well.
CAL_CODE = """\
acc = {}
for i in range(60000):
    key = (i % 97, i % 89, i & 255)
    acc[key] = acc.get(key, 0) + i * 3
total = sum(v for _, v in sorted(acc.items()))
"""
CAL_REF_S = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    group: str
    parabolic: str
    items: int


# Why each workload exists is in BENCHMARK.json.  The groups are the
# smallest with the same layer profile as B3 / B4 / A3-peterson / B3-gkm,
# whose single invocations (10-25 s) leave no room for several samples per
# run.  items: products, checks, or classes + products.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-A3", ("table", "--group", "A3", "--format", "json"), "A3", "", 276),
        Workload("quotient-D4-P234", ("table", "--group", "D4", "--parabolic", "2,3,4", "--format", "json"),
                 "D4", "2,3,4", 28),
        Workload("peterson-A3-P13", ("check", "--suite", "peterson", "--group", "A3", "--parabolic", "1,3"),
                 "A3", "1,3", 216),
        Workload("gkm-A3", ("check", "--suite", "gkm", "--group", "A3"), "A3", "", 24 + 300),
    )
}


# -- child processes -----------------------------------------------------------


@dataclass
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Hash randomisation stays on: the stdout hash check is what shows the
    # output does not depend on it.
    env.pop("PYTHONHASHSEED", None)
    return env


def run_child(cmd: list[str], timeout_s: float) -> ChildResult:
    """Run one child to completion; wall time is spawn to exit, peak RSS is
    the child's own ``ru_maxrss`` from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda n=n, f=f: chunks.__setitem__(n, f.read()), daemon=True)
        for n, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        for r in readers:
            r.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(proc.returncode, chunks.get("out", b""), chunks.get("err", b""),
                       wall, usage.ru_maxrss / 1024.0)


def plain_cmd(w: Workload) -> list[str]:
    return [sys.executable, "-m", "qkline.cli", *w.argv]


def traced_cmd(argv, record: bool = False) -> list[str]:
    return [sys.executable, str(TRACER), *(["--record"] if record else []), "--", *argv]


def setup_cmd(w: Workload) -> list[str]:
    return [sys.executable, "-c", SETUP_CODE, w.group, w.parabolic]


def calibration_cmd() -> list[str]:
    return [sys.executable, "-c", CAL_CODE]


def trace_payload(res: ChildResult) -> dict:
    text = res.stderr.decode("utf-8", "replace")
    idx = text.rfind(TRACE_MARK)
    if idx < 0:
        raise ValueError("traced child wrote no trace")
    return json.loads(text[idx + len(TRACE_MARK):].splitlines()[0])


# -- environment and static counts ------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, never run git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_files():
    return sorted(p for p in PACKAGE.rglob("*") if p.is_file() and "__pycache__" not in p.parts)


def environment(seed: int, workload: str, trace: int) -> dict:
    digest = hashlib.sha256()
    for p in _src_files():
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def src_lines() -> dict[str, int]:
    """Lines per module, and the total over every ``src/qkline/*.py``."""
    counts = {m: (PACKAGE / f"{m}.py").read_text().count("\n") for m in MODULES}
    counts["total"] = sum(p.read_text().count("\n") for p in PACKAGE.glob("*.py"))
    return counts


# -- statistics -------------------------------------------------------------------


def percentiles_ms(durations_ns: list[int]) -> tuple[float, float, float]:
    """(p50, p_hi, hi) in ms by nearest rank, where p_hi is the highest of
    p50/p90/p99/p99.9 with at least ten samples above it (p50 if none is)."""
    xs = sorted(durations_ns)
    n = len(xs)
    if not n:
        return 0.0, 0.0, 0.0

    def rank(permille):
        return max(0, -(-permille * n // 1000) - 1)

    hi = 500
    for permille in (900, 990, 999):
        if n - 1 - rank(permille) >= 10:
            hi = permille
    return xs[rank(500)] / 1e6, xs[rank(hi)] / 1e6, hi / 10


class Tally:
    """Counts every child run and the ones that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, res: ChildResult, what: str, exit_code: int = 0, sha256: str | None = None) -> bool:
        self.attempted += 1
        ok = res.exit_code == exit_code and (sha256 is None or res.sha256 == sha256)
        if not ok:
            self.failed += 1
            tail = res.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            self.problems.append(f"{what}: exit {res.exit_code}, sha256 {res.sha256[:16]}: {tail[0][:200]}")
        return ok


# -- the two kinds of run -----------------------------------------------------------


def _timeout(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 1.0:
        raise TimeoutError("run deadline reached")
    return left


def run_blocks(kinds: dict, tally: Tally, seconds: float, rng: random.Random, deadline: float,
               min_blocks: int) -> list[dict[str, ChildResult]]:
    """Run blocks of one child per kind, in seed-shuffled order, for
    ``seconds`` and at least ``min_blocks`` blocks; stop at the first failed
    check.  ``kinds`` maps a name to (cmd, expected exit code, expected
    sha256 or None)."""
    blocks = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(blocks) < min_blocks:
        order = list(kinds)
        rng.shuffle(order)
        block = {}
        for kind in order:
            cmd, exit_code, sha256 = kinds[kind]
            res = run_child(cmd, _timeout(deadline))
            if not tally.check(res, kind, exit_code, sha256):
                return blocks
            block[kind] = res
        blocks.append(block)
    return blocks


def _ref_median(blocks, kind: str) -> float:
    """Median over blocks of a child's wall time in reference seconds, each
    scaled by the calibration kernel of its own block."""
    return statistics.median(b[kind].wall_s * CAL_REF_S / b["calibration"].wall_s for b in blocks)


def _raw_median(blocks, kind: str) -> float:
    return statistics.median(b[kind].wall_s for b in blocks)


def _invocation(w: Workload, ref: dict, traced: bool = False):
    return (traced_cmd(w.argv) if traced else plain_cmd(w), ref["exit_code"], ref["sha256"])


def _warm_up(w: Workload, ref: dict, tally: Tally, deadline: float):
    """Untimed; writes the .pyc files so the first sample does not."""
    tally.check(run_child(plain_cmd(w), _timeout(deadline)), "warm-up", ref["exit_code"], ref["sha256"])


def run_untraced(w: Workload, ref: dict, tally: Tally, seconds: float, rng: random.Random, deadline: float):
    _warm_up(w, ref, tally, deadline)
    kinds = {
        "invocation": _invocation(w, ref),
        "set-up probe": (setup_cmd(w), 0, None),
        "calibration": (calibration_cmd(), 0, None),
    }
    blocks = run_blocks(kinds, tally, seconds, rng, deadline, MIN_SAMPLES)
    if tally.failed:
        return {}, {}
    wall = _ref_median(blocks, "invocation")
    raw = {k: _raw_median(blocks, name) for k, name in
           (("wall_s", "invocation"), ("setup_s", "set-up probe"), ("calibration_s", "calibration"))}
    raw["blocks"] = len(blocks)
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (w.items / wall, "1/s"),
        "peak_rss_mb": (statistics.median(b["invocation"].rss_mb for b in blocks), "MB"),
        "setup_s": (_ref_median(blocks, "set-up probe"), "s"),
    }, raw


COUNT_KEYS = ("calls", "units", "hits", "class_points", "class_terms")

# layer -> the metrics reported for it (as "<layer>.<suffix>")
LAYER_METRICS = {
    "rootsys.omega_to_alpha": ("calls", "self_s"),
    "weyl.elements": ("self_s",),
    "weyl.bruhat_leq": ("calls", "self_s"),
    "weyl.min_coset_rep": ("calls",),
    "repring.mul": ("calls", "pairs", "self_s"),
    "repring.add": ("calls", "terms", "self_s"),
    "repring.exact_divide": ("calls", "steps", "self_s"),
    "repring.divides_one_minus_e": ("calls", "terms", "self_s"),
    "repring.to_pairs": ("calls", "self_s"),
    "ktheory.schubert_class": ("calls", "hit_ratio"),
    "ktheory.demazure": ("calls", "self_s"),
    "ktheory.multiply": ("calls", "self_s"),
    "ktheory.expand": ("calls", "points", "self_s"),
    "ktheory.diagonal_value": ("calls", "self_s"),
    "ktheory.structure_constants": ("calls", "hit_ratio"),
    "ktheory.gkm_violations": ("calls", "self_s"),
    "qklines.quantum_coefficients": ("calls", "self_s"),
    "qklines.kgw3": ("calls", "self_s"),
    "qklines.qk_product_degree1": ("calls", "p50_ms", "p_hi_ms", "p_hi_pct"),
    "qklines.peterson_check": ("calls", "p50_ms", "p_hi_ms", "p_hi_pct"),
}
UNITS = {"calls": "count", "pairs": "count", "terms": "count", "steps": "count", "points": "count",
         "self_s": "s", "hit_ratio": "ratio", "p50_ms": "ms", "p_hi_ms": "ms", "p_hi_pct": "%"}


def layer_metrics(payloads: list[dict], scales: list[float]) -> dict:
    """Per-layer metrics from the traced runs: counts from the first (they
    must repeat exactly), times as medians over all of them, each scaled to
    reference seconds by its own block's factor."""
    first = payloads[0]["layers"]

    def time_median(get):
        return statistics.median(get(p) * s for p, s in zip(payloads, scales))

    out = {}
    for layer, fields in LAYER_METRICS.items():
        stat = first[layer]
        for f in fields:
            if f == "calls":
                value = stat["calls"]
            elif f in ("pairs", "terms", "steps", "points"):
                value = stat["units"]
            elif f == "self_s":
                value = time_median(lambda p: p["layers"][layer]["self_ns"]) / 1e9
            elif f == "hit_ratio":
                value = stat["hits"] / stat["calls"] if stat["calls"] else 0.0
            elif f == "p_hi_pct":
                value = percentiles_ms(stat["durations_ns"])[2]
            else:
                col = 0 if f == "p50_ms" else 1
                value = time_median(lambda p: percentiles_ms(p["layers"][layer]["durations_ns"])[col])
            out[f"{layer}.{f}"] = (value, UNITS[f])
    demazure = first["ktheory.demazure"]
    out["ktheory.class_points"] = (demazure["class_points"], "count")
    out["ktheory.class_terms"] = (demazure["class_terms"], "count")
    sizes = payloads[0]["sizes"]
    out["weyl.order"] = (sizes["order"], "count")
    out["weyl.basis_size"] = (sizes["basis_size"], "count")
    out["cli.main.s"] = (time_median(lambda p: p["layers"]["cli.main"]["total_ns"]) / 1e9, "s")
    out["cli.self_s"] = (time_median(lambda p: p["layers"]["cli.main"]["self_ns"]) / 1e9, "s")
    return out


def counts_repeat(payloads: list[dict]) -> bool:
    def counts(p):
        return {(layer, k): v for layer, s in p["layers"].items() for k, v in s.items() if k in COUNT_KEYS}

    first = counts(payloads[0])
    return all(counts(p) == first for p in payloads[1:])


def run_traced(w: Workload, ref: dict, tally: Tally, seconds: float, rng: random.Random, deadline: float):
    _warm_up(w, ref, tally, deadline)
    kinds = {
        "untraced invocation": _invocation(w, ref),
        # the wrappers must not change a single output byte
        "traced invocation": _invocation(w, ref, traced=True),
        "calibration": (calibration_cmd(), 0, None),
    }
    blocks = run_blocks(kinds, tally, seconds, rng, deadline, MIN_TRACED)
    if tally.failed:
        return {}, {}
    payloads = [trace_payload(b["traced invocation"]) for b in blocks]
    if not counts_repeat(payloads):
        tally.problems.append("per-layer counts differ between traced invocations")
        tally.failed += 1
        return {}, {}
    out = layer_metrics(payloads, [CAL_REF_S / b["calibration"].wall_s for b in blocks])
    overhead = statistics.median(b["traced invocation"].wall_s / b["untraced invocation"].wall_s for b in blocks)
    out["trace_overhead_ratio"] = (overhead, "ratio")
    for module, n in src_lines().items():
        out[f"src_lines.{module}"] = (n, "lines")
    raw = {"calibration_s": _raw_median(blocks, "calibration"), "blocks": len(blocks),
           "traced_wall_s": _raw_median(blocks, "traced invocation")}
    return out, raw


# -- entry point -----------------------------------------------------------------------


def preflight() -> dict:
    """The reference table, or exit 2 when the checkout has no program to run."""
    missing = [p for p in (PACKAGE / "cli.py", REFERENCES, TRACER) if not p.is_file()]
    if missing:
        print("error: not a qkline checkout; missing " + ", ".join(str(p.relative_to(ROOT)) for p in missing),
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(REFERENCES.read_text())


def run_workload(w: Workload, ref: dict, seed: int, seconds: float, trace: int, deadline: float):
    if list(ref["argv"]) != list(w.argv):
        raise SystemExit(f"error: references.json argv for {w.name} does not match the workload")
    tally = Tally()
    rng = random.Random(f"{seed}:{w.name}:{trace}")
    runner = run_traced if trace else run_untraced
    try:
        metrics, raw = runner(w, ref, tally, seconds, rng, deadline)
    except TimeoutError:
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append("run deadline reached")
        metrics, raw = {}, {}
    return tally, metrics, raw


def emit_lines(prefix: str, w: Workload, trace: int, tally: Tally, metrics: dict, raw: dict):
    print(f"workload {w.name} (trace {trace}): qkline {' '.join(w.argv)} ({w.items} items)")
    print("raw " + json.dumps(raw, sort_keys=True) + "  (medians in seconds; metrics below are in reference seconds)")
    for name, (value, unit) in metrics.items():
        print(f"metric {prefix}{name} {value:.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"check {prefix}fail_ratio {ratio:.6g} ({tally.failed}/{tally.attempted} child runs failed)")
    for p in tally.problems[:10]:
        print(f"problem {p}")


def _terminate(signum, frame):
    # Raised inside run_child's wait, which then kills and reaps its child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    refs = preflight()

    if args.workload == "all":
        names = list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
        plan = [(n, t) for n in names for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]

    print("env " + json.dumps(environment(args.seed, args.workload, args.trace), sort_keys=True))
    attempted = failed = 0
    result: dict[str, dict] = {}
    for name, trace in plan:
        w = WORKLOADS[name]
        deadline = time.perf_counter() + RUN_DEADLINE_S
        tally, metrics, raw = run_workload(w, refs[name], args.seed, args.seconds, trace, deadline)
        prefix = f"{name}." if args.workload == "all" else ""
        emit_lines(prefix, w, trace, tally, metrics, raw)
        attempted += tally.attempted
        failed += tally.failed
        for metric, (value, unit) in metrics.items():
            result[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
