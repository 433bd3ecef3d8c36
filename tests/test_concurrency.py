"""The engine contract: shared across threads, results identical to serial
recomputation (caches are append-only with value-identical entries)."""

import itertools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from qkline import KTEngine, RingElt, WeylGroup, named_datum, qklines, repring, rootsys, weyl
from qkline.ktheory import KClass


def test_shared_engine_concurrent_reads_match_serial():
    # on a quotient the threads also race on the memoised W^P classes that
    # the W^P solve reads
    for label, p in (("C2", ()), ("A3", (2,))):
        _concurrent_reads_match_serial(label, p)


def _reads(engine, u, v, p):
    """structure_constants and qk_product_degree1 of (u, v) on G/P, by words and to_pairs."""
    def pairs(exp):
        return {w.word_str: repring.to_pairs(c, engine.datum) for w, c in exp.coeffs.items()}

    prod = qklines.qk_product_degree1(engine, u, v, p)
    quantum = {k: pairs(exp) for k, exp in prod.quantum.items()}
    return pairs(engine.structure_constants(u, v, p)), pairs(prod.classical), quantum, prod.skipped


def _concurrent_reads_match_serial(label, p):
    serial = KTEngine(named_datum(label))
    pairs = list(itertools.combinations_with_replacement(weyl.enumerate_wp(serial.W, p), 2))
    expected = {(u.word_str, v.word_str): _reads(serial, u, v, p) for u, v in pairs}

    # the same matrix under a label no other test uses: its Weyl group, its
    # elements' neighbour caches and its gate and exponent memo entries are
    # all cold, and the threads fill them, parsing their own words
    cold = rootsys.cartan_datum(named_datum(label).cartan, label=f"{label} raced cold")
    shared = KTEngine(cold)
    jobs = list(expected) * 3
    random.Random(7).shuffle(jobs)

    def work(job):
        u, v = (shared.W.parse_word(word) for word in job)
        return job, _reads(shared, u, v, p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for job, got in pool.map(work, jobs, timeout=120):
                assert got == expected[job]
    finally:
        sys.setswitchinterval(interval)


def test_shared_engine_concurrent_gkm_checks_match_serial():
    # the first gkm_violations call builds the engine's moment graph while other threads already ask for it
    datum = named_datum("A3")
    bumps = [KClass(datum, {w: RingElt.one(3)}) for w in WeylGroup.for_datum(datum).elements()]
    expected = [KTEngine(datum).gkm_violations(c) for c in bumps]
    shared = KTEngine(datum)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(shared.gkm_violations, bumps * 3, timeout=120)) == expected * 3
    finally:
        sys.setswitchinterval(interval)


def test_intern_race_returns_one_element(monkeypatch):
    """Two threads interning the same table must get the same object; the
    first construction is held open so the second intern lands inside it."""
    datum = named_datum("A2")
    table = WeylGroup(datum).from_word([1, 2]).table
    W = WeylGroup(datum)  # fresh group: the table is not interned yet
    entered, release = threading.Event(), threading.Event()
    real = weyl.WeylElement

    class BlockFirst(real):
        __slots__ = ()
        blocked = False

        def __init__(self, group, tbl):
            if not BlockFirst.blocked:
                BlockFirst.blocked = True
                entered.set()
                release.wait(timeout=10)
            super().__init__(group, tbl)

    monkeypatch.setattr(weyl, "WeylElement", BlockFirst)
    got = []
    thread = threading.Thread(target=lambda: got.append(W.intern(table)))
    thread.start()
    try:
        assert entered.wait(timeout=10)
        mine = W.intern(table)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(got) == 1 and got[0] is mine
    assert W.intern(table) is mine


def test_engines_built_at_once_on_a_fresh_datum_share_one_group():
    """WeylGroup.for_datum hands every caller the group it stored first.  An
    unbounded lru_cache keeps the last writer of a racing miss, so engines
    built together on a new datum held different groups, and a class of one
    engine was refused by another's reader."""
    d5 = named_datum("D5")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            datum = rootsys.cartan_datum(d5.cartan, label=f"D5 built at once {trial}")  # equal to no earlier datum
            barrier, engines = threading.Barrier(4), []

            def build():
                barrier.wait(timeout=10)
                engines.append(KTEngine(datum))

            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(engines) == 4
            assert all(e.W is WeylGroup.for_datum(datum) for e in engines)
    finally:
        sys.setswitchinterval(interval)
