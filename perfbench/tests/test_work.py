"""Tuple ranks against brute-force enumeration of each checker's loops."""

from itertools import combinations, product

import pytest

import work

# The loops of the checkers, written out as they appear in homlie.
ENUMERATE = {
    "singles": lambda n: [(i,) for i in range(1, n + 1)],
    "pairs": lambda n: list(product(range(1, n + 1), repeat=2)),
    "pairs_le": lambda n: [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)],
    "pairs_lt": lambda n: [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
    "pairs_lt_k": lambda n: [
        (i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(1, n + 1)
    ],
    "triples": lambda n: list(product(range(1, n + 1), repeat=3)),
    "triples_lt": lambda n: list(combinations(range(1, n + 1), 3)),
}


def test_every_domain_shape_is_enumerated():
    used = {shape for _, _, segments in work.DOMAINS.values() for shape, _ in segments}
    assert used <= set(ENUMERATE) == set(work.SHAPES)


@pytest.mark.parametrize("shape", sorted(ENUMERATE))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_rank_matches_enumeration(shape, n):
    size, rank = work.SHAPES[shape]
    tuples = ENUMERATE[shape](n)
    assert size(n) == len(tuples)
    assert [rank(n, t) for t in tuples] == list(range(len(tuples)))


@pytest.mark.parametrize("name", sorted(work.DOMAINS))
def test_witness_in_later_segment_counts_earlier_segments(name):
    n = 5
    segments = work.DOMAINS[name][2]
    assert work.tuples_evaluated(name, n, True) == work.domain_size(name, n)
    assert work.tuples_evaluated(name, n, None) == 0
    done = 0
    for shape, kinds in segments:
        tuples = ENUMERATE[shape](n)
        for kind in kinds:
            assert work.tuples_evaluated(name, n, (kind, tuples[0])) == done + 1
            assert work.tuples_evaluated(name, n, (kind, tuples[-1])) == done + len(tuples)
        done += len(tuples)


def test_unknown_kind_is_an_error():
    with pytest.raises(ValueError):
        work.tuples_evaluated("check_morphism", 3, ("torsion", (1, 2)))
