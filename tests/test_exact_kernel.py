import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acg import exact_kernel as kernel
from acg.errors import AcgError, CapExceeded, MarginMismatch, ZeroPartition

from helpers import (
    ORACLE_SEQUENCES,
    first_m_prob,
    iter_tables,
    partition_Z,
    table_of_wiring,
    weighted_tables,
    wiring_count,
    wiring_probability,
)

E3_SEQUENCE = [(1, 2), (2, 1)]
E3_MINUS = np.array([0, 1, 2])
E3_PLUS = np.array([0, 1, 2])
TABLE_A = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
TABLE_B = [[0, 0, 0], [0, 0, 1], [0, 1, 1]]

Q_FRAC = [
    [Fraction(0), Fraction(0), Fraction(0)],
    [Fraction(0), Fraction(1, 9), Fraction(2, 9)],
    [Fraction(0), Fraction(2, 9), Fraction(4, 9)],
]
Q_FRAC_DISAS = [
    [Fraction(0), Fraction(0), Fraction(0)],
    [Fraction(0), Fraction(0), Fraction(1, 3)],
    [Fraction(0), Fraction(1, 3), Fraction(1, 3)],
]


def test_margins_of_sequence():
    em, ep = kernel.margins_of_sequence(E3_SEQUENCE, 3)
    assert em.tolist() == [0, 1, 2]
    assert ep.tolist() == [0, 1, 2]
    with pytest.raises(MarginMismatch):
        kernel.margins_of_sequence([(1, 2)], 3)  # unbalanced stubs
    with pytest.raises(MarginMismatch):
        kernel.margins_of_sequence([(3, 3)], 3)  # beyond cutoff


def test_margins_of_sequence_rejects_negative_and_fractional_degrees():
    # dropping the -1, or truncating the 1.5, would leave balanced stub totals
    for pairs in ([(-1, 1), (1, 0)], [(1, -1), (0, 1)], [(1.5, 2), (2, 1)]):
        with pytest.raises(MarginMismatch):
            kernel.margins_of_sequence(pairs, 3)


def test_float_q_with_integer_zeros_runs_in_floats():
    q = [[0, 0, 0], [0, 1 / 9, 2 / 9], [0, 2 / 9, 4 / 9]]
    for value in (
        kernel.partition_C(E3_MINUS, E3_PLUS, q),
        kernel.exact_edge_mean(E3_MINUS, E3_PLUS, q, 2, 2),
        kernel.table_probability(TABLE_A, q),
        kernel.joint_first_M_prob(E3_MINUS, E3_PLUS, q, [(2, 2)]),
    ):
        assert type(value) is float
    assert kernel.exact_edge_mean(E3_MINUS, E3_PLUS, q, 2, 2) == pytest.approx(4 / 3, abs=1e-13)


def test_q_with_a_fraction_entry_runs_exactly():
    q = [[0.0, 0, 0], [0, Fraction(1, 9), Fraction(2, 9)], [0, Fraction(2, 9), Fraction(4, 9)]]
    assert kernel.partition_C(E3_MINUS, E3_PLUS, q) == Fraction(64, 81)
    assert kernel.exact_edge_mean(E3_MINUS, E3_PLUS, q, 2, 2) == Fraction(4, 3)
    assert kernel.table_probability(TABLE_A, q) == Fraction(1, 3)
    assert kernel.joint_first_M_prob(E3_MINUS, E3_PLUS, q, [(2, 2)]) == Fraction(4, 9)
    assert kernel.enumerate_wirings_oracle(E3_MINUS, E3_PLUS, q).total_weight == Fraction(64, 81)


def test_wiring_counts_of_e3_tables():
    assert wiring_count(TABLE_A) == 12
    assert wiring_count(TABLE_B) == 24


def test_iter_tables_enumerates_margin_polytope():
    tables = list(iter_tables(E3_PLUS, E3_MINUS))
    keys = {tuple(map(tuple, t.tolist())) for t in tables}
    assert keys == {tuple(map(tuple, TABLE_A)), tuple(map(tuple, TABLE_B))}


def test_partition_constant_e3(bal2, disas):
    _, q = bal2
    assert kernel.partition_C(E3_MINUS, E3_PLUS, q) == pytest.approx(64 / 81, rel=1e-14)
    # Z drops ordering and within-class stub labels: C = E! (prod e_d!) Z
    assert kernel.log_partition(E3_MINUS, E3_PLUS, q) == pytest.approx(math.log(24 / 729), abs=1e-13)
    _, qd = disas
    assert kernel.partition_C(E3_MINUS, E3_PLUS, qd) == pytest.approx(8 / 9, rel=1e-14)
    assert kernel.partition_C(E3_MINUS, E3_PLUS, Q_FRAC) == Fraction(64, 81)


def test_table_probabilities_e3(bal2, disas):
    _, q = bal2
    assert kernel.table_probability(TABLE_A, q) == pytest.approx(1 / 3, rel=1e-13)
    assert kernel.table_probability(TABLE_B, q) == pytest.approx(2 / 3, rel=1e-13)
    _, qd = disas
    assert kernel.table_probability(TABLE_A, qd) == 0.0
    assert kernel.table_probability(TABLE_B, qd) == pytest.approx(1.0, rel=1e-13)
    assert kernel.table_probability(TABLE_A, Q_FRAC) == Fraction(1, 3)


def test_exact_edge_mean_fixture_values(bal2, disas):
    _, q = bal2
    assert kernel.exact_edge_mean(E3_MINUS, E3_PLUS, q, 2, 2) == pytest.approx(4 / 3, abs=1e-13)
    _, qd = disas
    assert kernel.exact_edge_mean(E3_MINUS, E3_PLUS, qd, 2, 2) == pytest.approx(1.0, abs=1e-13)
    assert kernel.exact_edge_mean(E3_MINUS, E3_PLUS, Q_FRAC, 2, 2) == Fraction(4, 3)
    assert kernel.exact_edge_mean(E3_MINUS, E3_PLUS, Q_FRAC_DISAS, 2, 2) == Fraction(1)


def test_exact_edge_variance_fixture_values(bal2):
    _, q = bal2
    assert kernel.exact_edge_variance(E3_MINUS, E3_PLUS, q, 2, 2) == pytest.approx(2 / 9, abs=1e-13)
    assert kernel.exact_edge_variance(E3_MINUS, E3_PLUS, Q_FRAC, 2, 2) == Fraction(2, 9)
    # the forced-zero cell has zero mean and variance
    assert kernel.exact_edge_variance(E3_MINUS, E3_PLUS, Q_FRAC_DISAS, 1, 1) == Fraction(0)


def test_margin_sums_are_exact():
    for em, ep in [(E3_MINUS, E3_PLUS), (np.array([0, 3, 2]), np.array([0, 1, 4]))]:
        for k in (1, 2):
            total = sum(kernel.exact_edge_mean(em, ep, Q_FRAC, k, j) for j in (1, 2))
            assert total == Fraction(int(ep[k]))
        for j in (1, 2):
            total = sum(kernel.exact_edge_mean(em, ep, Q_FRAC, k, j) for k in (1, 2))
            assert total == Fraction(int(em[j]))


def test_oracle_matches_kernel_on_small_sequences(bal2, disas):
    _, q = bal2
    _, qd = disas
    for x in ORACLE_SEQUENCES:
        for qq in (q, qd):
            em, ep = kernel.margins_of_sequence(x, 3)
            dist = kernel.enumerate_wirings_oracle(em, ep, qq)
            c = kernel.partition_C(em, ep, qq)
            assert dist.total_weight == pytest.approx(c, rel=1e-12, abs=1e-300)
            if dist.total_weight == 0:
                continue
            for key, prob in dist.tables.items():
                assert kernel.table_probability(np.array(key), qq) == pytest.approx(prob, rel=1e-12)
                assert wiring_count(np.array(key)) == dist.wiring_counts[key]
            assert sum(dist.tables.values()) == pytest.approx(1.0, abs=1e-12)


def test_oracle_e3_wiring_counts(bal2):
    _, q = bal2
    dist = kernel.enumerate_wirings_oracle(E3_MINUS, E3_PLUS, q)
    counts = {key: count for key, count in dist.wiring_counts.items()}
    assert counts[tuple(map(tuple, TABLE_A))] == 12
    assert counts[tuple(map(tuple, TABLE_B))] == 24


def test_joint_first_prob_sums_to_one(bal2):
    _, q = bal2
    support = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for x in [E3_SEQUENCE, [(1, 1), (2, 2)], [(2, 2), (2, 2)]]:
        for m in (1, 2, 3):
            total = sum(
                kernel.joint_first_M_prob(*kernel.margins_of_sequence(x, 3), q, list(types))
                for types in itertools.product(support, repeat=m)
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_joint_first_prob_matches_oracle(bal2, disas):
    _, q = bal2
    _, qd = disas
    support = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for x in [E3_SEQUENCE, [(2, 2), (2, 2)], [(1, 1), (1, 2), (2, 1)]]:
        for qq in (q, qd):
            em, ep = kernel.margins_of_sequence(x, 3)
            dist = kernel.enumerate_wirings_oracle(em, ep, qq)
            if dist.total_weight == 0:
                continue
            for m in (1, 2):
                for types in itertools.product(support, repeat=m):
                    got = kernel.joint_first_M_prob(em, ep, qq, list(types))
                    want = first_m_prob(em, ep, qq, list(types))
                    assert got == pytest.approx(want, abs=1e-12)


def test_joint_first_prob_takes_two_partition_sums(bal2, monkeypatch):
    # prod_i Q Z(e_i) / Z(e_{i-1}) telescopes to prod Q Z(e_M) / Z(e_0)
    _, q = bal2
    calls = []
    partition_sum = kernel._partition_sum

    def counted(*args):
        calls.append(args)
        return partition_sum(*args)

    monkeypatch.setattr(kernel, "_partition_sum", counted)
    em, ep = kernel.margins_of_sequence([(1, 2), (2, 1), (2, 2), (1, 1)], 3)
    got = kernel.joint_first_M_prob(em, ep, q, [(2, 2), (1, 2), (2, 1)])
    assert len(calls) == 2
    assert got == pytest.approx(first_m_prob(em, ep, q, [(2, 2), (1, 2), (2, 1)]), abs=1e-12)


def test_moments_and_impossible_prefixes_take_no_extra_partition_sums(bal2, disas, monkeypatch):
    _, q = bal2
    _, qd = disas
    calls = []
    partition_sum = kernel._partition_sum

    def counted(*args):
        calls.append(args)
        return partition_sum(*args)

    monkeypatch.setattr(kernel, "_partition_sum", counted)
    em, ep = kernel.margins_of_sequence([(1, 2), (2, 1), (2, 2), (1, 1)], 3)
    for fn, sums in ((kernel.exact_edge_mean, 2), (kernel.exact_edge_variance, 3)):
        calls.clear()
        fn(em, ep, q, 2, 2)
        assert len(calls) == sums
    # a type with Q = 0, and a prefix that uses more (1, 1) edges than there are degree-1 stubs
    for qq, types in ((qd, [(1, 1)]), (q, [(1, 1)] * 3)):
        calls.clear()
        assert kernel.joint_first_M_prob(em, ep, qq, types) == 0
        assert calls == []


def test_zero_partition_raised_off_support(disas):
    _, qd = disas
    with pytest.raises(ZeroPartition):
        kernel.exact_edge_mean(np.array([0, 2, 0]), np.array([0, 2, 0]), qd, 1, 1)


def test_margin_validation_errors(bal2):
    _, q = bal2
    with pytest.raises(MarginMismatch):
        kernel.log_partition(np.array([1, 1, 2]), np.array([0, 2, 2]), q)
    with pytest.raises(MarginMismatch):
        kernel.log_partition(np.array([0, 1, 2]), np.array([0, 2, 2]), q)
    with pytest.raises(CapExceeded):
        kernel.log_partition(np.array([0, 1, 2]), np.array([0, 1, 2]), q, cap=2)
    with pytest.raises(CapExceeded):
        kernel.enumerate_wirings_oracle(*kernel.margins_of_sequence([(2, 2)] * 5, 3), q)


def test_wiring_probability_consistency(bal2):
    _, q = bal2
    # a full wiring's probability is its table's probability split evenly
    # over the equally likely wirings of that table
    wiring = [(0, 1), (0, 1), (1, 0)]
    table = table_of_wiring(wiring, E3_SEQUENCE)
    p_w = wiring_probability(wiring, E3_SEQUENCE, q)
    p_t = kernel.table_probability(table, q)
    assert p_w * wiring_count(table) == pytest.approx(p_t, rel=1e-12)


@st.composite
def margin_cases(draw):
    """Q on K <= 4 as eighths with forbidden cells, and margins with E <= 12.

    The margins are drawn independently of Q's support, so some admit no
    table at all.
    """
    size = draw(st.integers(1, 4)) + 1
    rows = [[Fraction(0)] * size] + [
        [Fraction(0)] + [Fraction(draw(st.integers(0, 4)), 8) for _ in range(size - 1)]
        for _ in range(size - 1)
    ]
    total = draw(st.integers(0, 12))

    def margin():
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size - 2, max_size=size - 2)))
        return np.array([0] + [b - a for a, b in zip([0] + cuts, cuts + [total])])

    return rows, margin(), margin(), (draw(st.integers(1, size - 1)), draw(st.integers(1, size - 1)))


@settings(max_examples=150, deadline=None)
@given(margin_cases())
def test_partition_program_matches_table_enumeration(case):
    rows, em, ep, (k, j) = case
    rows_f = [[float(x) for x in row] for row in rows]
    tables = weighted_tables(em, ep, rows)
    z_exact = sum((w for _, w in tables), Fraction(0))
    z_float = math.fsum(w for _, w in weighted_tables(em, ep, rows_f))
    got = partition_Z(em, ep, rows)
    assert isinstance(got, Fraction) and got == z_exact
    if z_exact == 0:
        assert partition_Z(em, ep, rows_f) == 0.0
        assert kernel.log_partition(em, ep, rows_f) == -math.inf
        for qq in (rows, rows_f):
            with pytest.raises(ZeroPartition):
                kernel.exact_edge_mean(em, ep, qq, k, j)
        return
    assert partition_Z(em, ep, rows_f) == pytest.approx(z_float, rel=1e-12)
    assert kernel.log_partition(em, ep, rows_f) == pytest.approx(math.log(z_float), rel=1e-12, abs=1e-12)
    mean = sum((t[k, j] * w for t, w in tables), Fraction(0)) / z_exact
    second = sum((t[k, j] ** 2 * w for t, w in tables), Fraction(0)) / z_exact
    assert kernel.exact_edge_mean(em, ep, rows, k, j) == mean
    assert kernel.exact_edge_variance(em, ep, rows, k, j) == second - mean * mean
    assert kernel.exact_edge_mean(em, ep, rows_f, k, j) == pytest.approx(float(mean), rel=1e-12, abs=1e-12)
    for t, w in tables[:3]:
        assert kernel.table_probability(t, rows) == w / z_exact


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def test_float_partition_follows_far_margins():
    # rows 2 and 3 weigh 2^-30 and 2^-60 of row 1, and the margins take 125
    # of 150 out-stubs from row 3: a float program that tracks Q's own
    # margins drops the states leading there (it came out 1.3e-4 low in log)
    rows = [
        [Fraction(0)] * 4,
        [Fraction(0), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
        [Fraction(0), Fraction(1, 2**30), Fraction(1, 2**29), Fraction(1, 2**30)],
        [Fraction(0), Fraction(1, 2**60), Fraction(1, 2**60), Fraction(1, 2**59)],
    ]
    rows_f = [[float(x) for x in row] for row in rows]
    em, ep = np.array([0, 50, 50, 50]), np.array([0, 20, 5, 125])
    z = partition_Z(em, ep, rows, cap=150)
    assert z > 0
    got = kernel.log_partition(em, ep, rows_f, cap=150)
    assert got == pytest.approx(_log_fraction(z), rel=1e-10)


def test_float_partition_redone_exactly_when_target_underflows():
    # weights spread over 10^400 cannot be balanced inside the float range,
    # and every table passes through the 1e-300 and 1e-200 cells: the float
    # target entry underflows, and the sum is redone on exact rationals
    rows_f = [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 1e100, 1e100],
        [0.0, 0.0, 1.0, 1e-200],
        [0.0, 0.0, 1e-300, 0.0],
    ]
    rows = [[Fraction(x) for x in row] for row in rows_f]
    em, ep = np.array([0, 0, 3, 2]), np.array([0, 2, 0, 3])
    z = partition_Z(em, ep, rows)
    assert kernel.log_partition(em, ep, rows_f) == pytest.approx(_log_fraction(z), rel=1e-10)


# the edge law of clibench/fixtures/exact_k3.json
Q_K3 = [
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.125, 0.0625, 0.0625],
    [0.0, 0.0625, 0.25, 0.0625],
    [0.0, 0.0625, 0.0625, 0.25],
]
K3_MINUS = np.array([0, 8, 10, 12])
K3_PLUS = np.array([0, 10, 10, 10])


@pytest.mark.parametrize("k", [4, -1])
def test_edge_type_outside_the_cutoff_is_rejected(k):
    with pytest.raises(MarginMismatch):
        kernel.exact_edge_mean(K3_MINUS, K3_PLUS, Q_K3, k, 1)
    with pytest.raises(MarginMismatch):
        kernel.exact_edge_variance(K3_MINUS, K3_PLUS, Q_K3, k, 1)
    with pytest.raises(MarginMismatch):
        kernel.joint_first_M_prob(K3_MINUS, K3_PLUS, Q_K3, [(1, 1), (k, 1)])


def test_partition_constant_past_the_float_range_of_its_factors():
    # E = 90: E! (prod e-!)(prod e+!) exceeds the float range while C ~ e^438 does not
    em, ep = 3 * K3_MINUS, 3 * K3_PLUS
    log_scale = sum(math.lgamma(v + 1) for v in [em.sum(), *em, *ep])
    log_c = kernel.log_partition(em, ep, Q_K3, cap=200) + log_scale
    assert kernel.partition_C(em, ep, Q_K3, cap=200) == pytest.approx(math.exp(log_c), rel=1e-12)
    # E = 180: Z alone underflows a float and C exceeds the float range
    em, ep = np.array([0, 36, 54, 90]), np.array([0, 54, 54, 72])
    assert kernel.partition_C(em, ep, Q_K3, cap=200) == math.inf
