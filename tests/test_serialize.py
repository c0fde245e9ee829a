"""The array paths of ``serialize.dumps`` against its element-wise path.

A float ndarray is written row by row with ``%.17g``; a list of Python floats
goes through ``fmt_float`` one value at a time. Both must give the same bytes,
and the same error for a non-finite value. A list of strings is written by
one ``json.dumps``, and must give the bytes of one ``json.dumps`` per string.
"""

import json

import numpy as np
import pytest

from mvgear import InvalidPortfolio, Portfolio, Program
from mvgear.serialize import dumps, portfolio_to_dict

EDGES = [
    -0.0, 0.0,
    # subnormals: the smallest, and the largest below the smallest normal
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    # .17g writes a decimal exponent from 1e17 up and below 1e-4
    1e16, 9.999999999999998e16, 1e17, -1e17, 1e-4, 9.999999999999999e-05, 1e-5,
    0.1, 1.0, -1.5, 1.7976931348623157e308, -1.7976931348623157e308,
]


def element_wise(arr: np.ndarray) -> str:
    """``dumps`` of the same values as nested lists of Python floats."""
    return dumps(arr.tolist())


def test_edge_values_match_the_element_wise_path():
    arr = np.array(EDGES)
    assert dumps(arr) == element_wise(arr)
    assert dumps(arr[:6]) == ("[-0, 0, 4.9406564584124654e-324, -4.9406564584124654e-324, "
                              "2.2250738585072009e-308, 2.2250738585072014e-308]")
    assert dumps(np.array([1e16, 9.999999999999998e16, 1e17, 1e-4, 1e-5])) == (
        "[10000000000000000, 99999999999999984, 1e+17, 0.0001, 1.0000000000000001e-05]")


def test_random_bit_patterns_match_the_element_wise_path():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert dumps(values) == element_wise(values)
    grid = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-30, 30, (40, 30))
    assert dumps(grid) == element_wise(grid)
    assert dumps(grid.reshape(4, 10, 30)) == element_wise(grid.reshape(4, 10, 30))


def test_read_only_and_single_precision_arrays():
    frozen = np.array(EDGES)
    frozen.setflags(write=False)
    assert dumps(frozen) == element_wise(frozen)
    single = np.array([0.1, -2.5, 3e-8], dtype=np.float32)
    assert dumps(single) == dumps([float(v) for v in single])


@pytest.mark.parametrize("shape,text", [((0,), "[]"), ((0, 3), "[]"), ((2, 0), "[[], []]")])
def test_empty_arrays(shape, text):
    assert dumps(np.zeros(shape)) == text == element_wise(np.zeros(shape))


@pytest.mark.parametrize("bad,name", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_non_finite_values_in_a_2d_array_raise(bad, name):
    arr = np.arange(12.0).reshape(3, 4)
    arr[1, 2] = bad
    with pytest.raises(InvalidPortfolio, match=f"^non-finite value {name} cannot be serialized$"):
        dumps(arr)


def test_the_first_non_finite_value_in_row_order_is_named():
    arr = np.array([[1.0, 2.0, -np.inf], [np.nan, 3.0, 4.0]])
    with pytest.raises(InvalidPortfolio) as fast:
        dumps(arr)
    with pytest.raises(InvalidPortfolio) as slow:
        element_wise(arr)
    assert str(fast.value) == str(slow.value) == "non-finite value -inf cannot be serialized"


def test_arrays_inside_documents():
    doc = {"alpha": np.array([0.1, 0.2]), "covariance": np.eye(2), "n": np.int64(2),
           "counts": np.array([1, 2])}
    assert dumps(doc) == ('{"alpha": [0.10000000000000001, 0.20000000000000001], '
                          '"covariance": [[1, 0], [0, 1]], "n": 2, "counts": [1, 2]}')


@pytest.mark.parametrize("names", [
    [], ["EQT", "BND"], ["Ünïcödé", "日本株", "a\"b", "back\\slash", "tab\there", "\x00\x1f\u2028"],
])
def test_string_lists_match_the_element_wise_path(names):
    element_wise = "[" + ", ".join(json.dumps(s, ensure_ascii=False) for s in names) + "]"
    assert dumps(names) == element_wise
    assert dumps(["x", 1.5]) == '["x", 1.5]'


def test_a_record_writes_its_weights_as_the_element_wise_path_did():
    weights = np.array(EDGES[2:12])
    port = Portfolio(weights=weights, program=Program.VII, params={"gamma": 2.0, "g0": 1.0},
                     gearing=float(weights.sum()), leverage=float(np.abs(weights).sum()),
                     alpha_p=0.1, sigma_p=None, assets=tuple(f"A{i}" for i in range(10)))
    record = portfolio_to_dict(port)
    assert dumps(record) == dumps({**record, "weights": record["weights"].tolist()})
