import itertools

import pytest

from qkline import KTEngine, cor_xi_sum, named_datum, weyl

_ENGINES: dict[str, KTEngine] = {}


def engine_for(label: str) -> KTEngine:
    """One shared engine per group so memo caches persist across tests."""
    got = _ENGINES.get(label)
    if got is None:
        got = KTEngine(named_datum(label))
        _ENGINES[label] = got
    return got


@pytest.fixture(scope="session")
def engine():
    return engine_for


def refinement_mismatches(e: KTEngine, p, k) -> list[tuple[str, str, str]]:
    """The triples (u, v, w) of W^P, as words, where the dual-class sum over the
    k-free refinement P_k differs from the one over the full flag; the sum does
    not depend on the refinement, so a correct engine gives none."""
    pk = weyl.build_Pk(e.datum, p, k)
    reps = weyl.enumerate_wp(e.W, p)
    return [
        (u.word_str, v.word_str, w.word_str)
        for u, v, w in itertools.product(reps, repeat=3)
        if cor_xi_sum(e, u, v, w, k, p, pk) != cor_xi_sum(e, u, v, w, k, p, ())
    ]


@pytest.fixture(scope="session")
def dual_sum_refinement_mismatches():
    return refinement_mismatches
