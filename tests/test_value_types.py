"""The result types are immutable named tuples: built by position or by
keyword, with the reprs and JSON forms they have always had."""

import pytest

from residuo.arithmetic import Factorization
from residuo.reductions import (
    QrpVerdict,
    TwoSquaresVerdict,
    ValuationRelation,
    ValuationResult,
)
from residuo.symbols import ResidueClassSet
from residuo.zolotarev import PermutationTable

# (type, positional args, the same value by keyword, repr, to_json or None)
CASES = [
    (
        Factorization,
        (((3, 1),),),
        {"factors": ((3, 1),)},
        "Factorization(factors=((3, 1),), value=3)",
        None,
    ),
    (
        ResidueClassSet,
        (13, 2, True, (1, 3, 9)),
        {"modulus": 13, "k": 2, "units_only": True, "members": (1, 3, 9)},
        "ResidueClassSet(modulus=13, k=2, units_only=True, members=(1, 3, 9))",
        {"modulus": "13", "k": 2, "units_only": True, "members": ["1", "3", "9"]},
    ),
    (
        PermutationTable,
        ((1, 2, 4), (2, 4, 1)),
        {"domain": (1, 2, 4), "image": (2, 4, 1)},
        "PermutationTable(domain=(1, 2, 4), image=(2, 4, 1))",
        None,
    ),
    (
        TwoSquaresVerdict,
        (False, "fermat_factorization", 3),
        {"solvable": False, "method": "fermat_factorization", "certificate": 3},
        "TwoSquaresVerdict(solvable=False, method='fermat_factorization', "
        "certificate=3, witness=None)",
        {
            "solvable": False,
            "method": "fermat_factorization",
            "certificate": "3",
            "witness": None,
        },
    ),
    (
        ValuationResult,
        (1, 2, 3, 5, 3),
        {"v_small": 1, "v_large": 2, "m": 3, "p_bits": 5, "q_bits": 3},
        "ValuationResult(v_small=1, v_large=2, m=3, p_bits=5, q_bits=3, stats=None)",
        {
            "v_small": 1,
            "v_large": 2,
            "m": 3,
            "p_bits": "5",
            "q_bits": "3",
            "oracle_stats": None,
        },
    ),
    (
        QrpVerdict,
        (True, "theorem_t4"),
        {"is_residue": True, "method": "theorem_t4"},
        "QrpVerdict(is_residue=True, method='theorem_t4')",
        {"is_residue": True, "method": "theorem_t4"},
    ),
    (
        ValuationRelation,
        (0, 2, 0, "strict_equal_case"),
        {"v_p": 0, "v_q": 2, "v_N": 0, "relation": "strict_equal_case"},
        "ValuationRelation(v_p=0, v_q=2, v_N=0, relation='strict_equal_case')",
        None,
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text, payload", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_value_type_contract(cls, args, kwargs, text, payload):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == text
    first = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(by_position, first, None)
    with pytest.raises(AttributeError):
        by_position.extra = 1
    assert getattr(by_position, first) == args[0]
    if payload is not None:
        assert by_position.to_json() == payload


def test_valuation_result_with_stats_is_a_value():
    from residuo.oracle import FactorOracle
    from residuo.reductions import semiprime_valuations

    first = semiprime_valuations(39, FactorOracle())
    second = semiprime_valuations(39, FactorOracle())
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
