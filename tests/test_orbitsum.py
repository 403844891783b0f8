"""Master sums over orbits of classes, against the per-class full-table sum.

`per_class_master_sum` is the simple kernel the orbit sum replaced: it
builds the walk tables to n steps, step n whole, and adds multinomial
times count over every nonzero class.  `master_sum` instead counts one
class per orbit of the units (and of the shifts by c*1 when p | d) and
reads the steps past about n/2 only at the keys it needs
(`walkdist.walk_steps`).
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from regsing import exactcount, walkdist
from test_acceptance import DIRECTED_MASTERS_D3_P2, UNDIRECTED_MASTERS_D3_P2
from test_exactcount import MASTER_DIRECTED_D3_P2, MASTER_UNDIRECTED_D3_P2

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"

# (n, d, p, mode): every n <= 8 for p <= 7 and d <= 4, in both models
# (an undirected model needs n*d even)
BOX = [
    (n, d, p, mode)
    for p in (2, 3, 5, 7)
    for d in (1, 2, 3, 4)
    for n in range(1, 9)
    for mode in ("directed", "undirected")
    if mode == "directed" or n * d % 2 == 0
]


def full_table_counter(n, d, p):
    """count(sig, mode) for the classes of total n, read from the tables
    for 0..n steps, step n included, with no orbit and no targeted entry."""
    tables = walkdist.walk_tables(walkdist.build_support(d, p), n)
    fact = exactcount._factorials(d * n)
    loops = [fact[v] // (2 ** (v // 2) * fact[v // 2]) for v in range(len(fact))]

    def count(sig, mode):
        if not exactcount._congruent(sig, d, p):
            return 0
        if mode == "undirected":
            return exactcount._count_undirected(sig, d, tables, fact, loops)
        walks = tables[n].get(d * tables.key(sig), 0)
        return walks * math.prod(fact[d * x] for x in sig)

    return count


def per_class_master_sum(n, d, p, mode):
    """Sum of multinomial times count over every nonzero class, over the model size."""
    count = full_table_counter(n, d, p)
    size = (exactcount.model_size_directed if mode == "directed"
            else exactcount.model_size_undirected)(n, d)
    total = sum(
        exactcount.multinomial(n, sig) * count(sig, mode)
        for sig in exactcount.class_signatures(n, p)
    )
    return Fraction(total, size)


def images(sig, d, p):
    """The classes of u*v + t*1 for v of class sig: every unit u, and
    t = 0, or every t in F_p when p | d."""
    shifts = range(p) if d % p == 0 else (0,)
    return {tuple(sig[(u * j + t) % p] for j in range(p)) for u in range(1, p) for t in shifts}


def frozen_master_sums():
    """(n, d, p, mode, value) of every frozen master sum in the tests."""
    out = [(3, 3, 2, "directed", Fraction(27, 28)), (2, 3, 2, "directed", Fraction(0)),
           (2, 3, 3, "directed", Fraction(13, 5))]
    for mode, table in [("directed", MASTER_DIRECTED_D3_P2), ("directed", DIRECTED_MASTERS_D3_P2),
                        ("undirected", MASTER_UNDIRECTED_D3_P2),
                        ("undirected", UNDIRECTED_MASTERS_D3_P2)]:
        out += [(n, 3, 2, mode, value) for n, value in table.items()]
    return out


@pytest.mark.parametrize("n,d,p,mode,value", frozen_master_sums())
def test_orbit_sum_matches_the_per_class_sum_on_frozen_values(n, d, p, mode, value):
    assert exactcount.master_sum(n, d, p, mode) == value
    assert per_class_master_sum(n, d, p, mode) == value


def test_orbit_sum_matches_the_per_class_sum_on_the_bench_reference():
    sums = json.loads(REFERENCE.read_text())["master_sum"]
    assert len(sums) == 48
    for key, value in sums.items():
        mode, n, d, p = key.split("/")
        n, d, p = int(n), int(d), int(p)
        want = Fraction(value)
        assert exactcount.master_sum(n, d, p, mode) == want, key
        assert per_class_master_sum(n, d, p, mode) == want, key


def test_orbit_sum_matches_the_per_class_sum_on_a_box():
    for n, d, p, mode in BOX:
        assert exactcount.master_sum(n, d, p, mode) == per_class_master_sum(n, d, p, mode), (
            n, d, p, mode)


def test_counts_are_constant_on_orbits():
    # every unit image of a class, and every translate when p | d, has
    # the count of the class; the all-zero class included
    translated = 0
    for n, d, p, mode in BOX:
        sigs = list(walkdist.compositions(n, p))
        counts = dict(zip(sigs, exactcount.class_counts(sigs, d, p, mode)))
        for sig, count in counts.items():
            for image in images(sig, d, p):
                assert counts[image] == count, (sig, image, d, p, mode)
                translated += image[0] == n and sig[0] != n
    # the all-zero class is the image of a translate only when p | d
    assert translated > 0


def test_orbit_weights_add_up_to_the_nonzero_classes():
    # with every class congruent (d = p), the weights times multinomials
    # count every nonzero vector once; the all-ones orbit holds the zero class
    for p in (2, 3, 5):
        for n in range(1, 7):
            reps = list(exactcount._orbits(n, p, p))
            assert sum(w * exactcount.multinomial(n, sig) for sig, w in reps) == p**n - 1
            assert ((0,) * (p - 1) + (n,), p - 1) in reps


@pytest.mark.parametrize("n,d,p,mode", [
    (n, d, p, mode)
    for n, d, p in [(3, 3, 2), (4, 2, 3), (4, 4, 3), (3, 3, 5), (2, 4, 7), (4, 2, 7)]
    for mode in ("directed", "undirected")
    if mode == "directed" or n * d % 2 == 0
])
def test_every_class_count_matches_the_full_tables(n, d, p, mode):
    count = full_table_counter(n, d, p)
    for sig in walkdist.compositions(n, p):
        assert exactcount.count_graphs(sig, d, p, mode) == count(sig, mode), sig
