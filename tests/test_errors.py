"""The library's messages for invalid input, each pinned word for word."""

import pytest

from kommute import blocks, construct, formulas, oracle, series
from kommute.perm import CycleType, ParseError, Permutation, parse_permutation

ID_3 = Permutation.identity(3)

# (the call, the exception it raises, its exact message), each with the
# call's text as its id
INPUT_ERRORS = [
    pytest.param(lambda: formulas.successor_free_cycles(-1), ValueError,
                 "k must be nonnegative", id="successor_free_cycles(-1)"),
    pytest.param(lambda: formulas.transposition_count(-1, 4), ValueError,
                 "k must be nonnegative", id="transposition_count(-1, 4)"),
    pytest.param(lambda: formulas.deranged_matchings(-1), ValueError,
                 "j must be nonnegative", id="deranged_matchings(-1)"),
    pytest.param(lambda: formulas.count_for_ncycle(0, 0), ValueError,
                 "n must be positive", id="count_for_ncycle(0, 0)"),
    pytest.param(lambda: formulas.fpf_involution_count(-2, 3), ValueError,
                 "k must be nonnegative", id="fpf_involution_count(-2, 3)"),
    pytest.param(lambda: formulas.count(CycleType.from_parts([3, 1]), -1), ValueError,
                 "k must be nonnegative", id="count((3, 1), -1)"),
    pytest.param(lambda: next(construct.successor_free_kcycles(0)), ValueError,
                 "k must be positive", id="successor_free_kcycles(0)"),
    pytest.param(lambda: next(oracle.enumerate_sn(0)), ValueError,
                 "degree must be at least 1", id="enumerate_sn(0)"),
    pytest.param(
        lambda: blocks.block_decomposition(ID_3, Permutation.from_cycles([(1, 2, 3)], 3), 5),
        ValueError, "cycle index 5 out of range", id="block_decomposition(id, (1 2 3), 5)"),
    pytest.param(lambda: Permutation([]), ValueError,
                 "degree must be at least 1", id="Permutation([])"),
    pytest.param(lambda: Permutation.identity(0), ValueError,
                 "degree must be at least 1", id="identity(0)"),
    pytest.param(lambda: Permutation.from_cycles([(1, 2)], 0), ValueError,
                 "degree must be at least 1", id="from_cycles([(1, 2)], 0)"),
    pytest.param(lambda: parse_permutation("(1 2)", 0), ValueError,
                 "degree must be at least 1", id="parse_permutation('(1 2)', 0)"),
    pytest.param(lambda: Permutation([1, 1]), ValueError,
                 "images (1, 1) are not a bijection of 1..2", id="Permutation([1, 1])"),
    pytest.param(lambda: Permutation([2.0, 1.0]), ValueError,
                 "images (2.0, 1.0) must be integers", id="Permutation([2.0, 1.0])"),
    pytest.param(lambda: CycleType((2.0, 0)), ValueError,
                 "cycle counts (2.0, 0) must be integers", id="CycleType((2.0, 0))"),
    pytest.param(lambda: formulas.count(CycleType.from_parts([2, 1, 1]), 4.0), ValueError,
                 "k 4.0 must be an integer", id="count((2, 1, 1), 4.0)"),
    pytest.param(lambda: formulas.count(CycleType.from_parts([3]), 3.0), ValueError,
                 "k 3.0 must be an integer", id="count((3,), 3.0)"),
    pytest.param(lambda: CycleType.from_parts([2.0]), ValueError,
                 "cycle lengths (2.0,) must be integers", id="from_parts([2.0])"),
    pytest.param(lambda: Permutation.from_cycles([(1, 4)], 3), ValueError,
                 "point 4 out of range 1..3", id="from_cycles([(1, 4)], 3)"),
    pytest.param(lambda: parse_permutation("(1 2) 3", 3), ParseError,
                 "expected '(' but found '3' (at position 6)",
                 id="parse_permutation('(1 2) 3', 3)"),
    pytest.param(lambda: parse_permutation("1 5 2", 3), ParseError,
                 "image 5 out of range 1..3 (at position 2)",
                 id="parse_permutation('1 5 2', 3)"),
    pytest.param(lambda: series.BivariateSeries(-1, 0), ValueError,
                 "truncation orders must be nonnegative", id="BivariateSeries(-1, 0)"),
    pytest.param(lambda: series.BivariateSeries(1, 1, {(2, 0): 1}), ValueError,
                 "coefficient (2, 0) outside truncation",
                 id="BivariateSeries(1, 1, {(2, 0): 1})"),
    pytest.param(lambda: series.ncycle_egf(0), ValueError,
                 "order must be at least 1", id="ncycle_egf(0)"),
    pytest.param(lambda: series.fpf_involution_egf(1), ValueError,
                 "order must be at least 2", id="fpf_involution_egf(1)"),
]


@pytest.mark.parametrize("call, error, message", INPUT_ERRORS)
def test_input_error_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_cycle_type_from_a_list_is_a_value():
    # the counts are kept as a tuple, so the value hashes and equals its twin
    t = CycleType([0, 1])
    assert t.counts == (0, 1)
    assert t == CycleType((0, 1)) and hash(t) == hash(CycleType((0, 1)))


def test_fpf_count_above_the_pairs_is_zero_at_once(monkeypatch):
    # 2j above 2m has no witness, and the guard answers before the
    # deranged-matching count, which would otherwise cache its every term
    # up to j = 500,000
    exact = formulas.deranged_matchings

    def bounded(j):
        assert j <= 3, f"deranged_matchings({j}) computed"
        return exact(j)

    monkeypatch.setattr(formulas, "deranged_matchings", bounded)
    assert formulas.fpf_involution_count(10**6, 3) == 0
