"""The engine contract: shared across threads, results identical to serial
recomputation (caches are append-only with value-identical entries)."""

import itertools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from qkline import KTEngine, RingElt, WeylGroup, named_datum, weyl
from qkline.ktheory import KClass


def test_shared_engine_concurrent_reads_match_serial():
    # on a quotient the threads also race on the memoised W^P classes that
    # the W^P solve reads
    for label, p in (("C2", ()), ("A3", (2,))):
        _concurrent_reads_match_serial(label, p)


def _concurrent_reads_match_serial(label, p):
    serial = KTEngine(named_datum(label))
    els = weyl.enumerate_wp(serial.W, p)
    pairs = list(itertools.combinations_with_replacement(els, 2))
    expected = {
        (u.word_str, v.word_str): serial.structure_constants(u, v, p).coeffs
        for u, v in pairs
    }

    shared = KTEngine(named_datum(label))
    shared_els = {w.word_str: w for w in shared.W.elements()}
    jobs = [(u.word_str, v.word_str) for u, v in pairs] * 3
    random.Random(7).shuffle(jobs)

    def work(job):
        uw, vw = job
        exp = shared.structure_constants(shared_els[uw], shared_els[vw], p)
        return job, {w.word_str: c for w, c in exp.coeffs.items()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for job, got in pool.map(work, jobs, timeout=120):
                uw, vw = job
                want = {w.word_str: c for w, c in expected[(uw, vw)].items()}
                assert got == want
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
