"""The array paths of ``serialize.dumps`` against its element-wise path.

A float ndarray is written row by row with ``%.17g``, and a symmetric matrix
from its upper triangle; a list of Python floats goes through ``fmt_float``
one value at a time. Both must give the same bytes, and the same error for a
non-finite value. A list of strings is written by one ``json.dumps``, and
must give the bytes of one ``json.dumps`` per string. Symmetric matrices and
surfaces of at least ``serialize.KERNEL_MIN`` values go through the numpy
kernel ``mvgear._g17``, whose text of every value must be ``'%.17g' %``'s.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mvgear import InvalidPortfolio, Portfolio, Program, SpdRepairWarning, _g17, serialize
from mvgear.cli import main
from mvgear.serialize import csv_lines, dumps, portfolio_to_dict
from mvgear.solvers import ParetoSurface

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


@pytest.mark.parametrize("value,text", [(1.5, "1.5"), (-0.0, "-0"), (0.1, "0.10000000000000001"),
                                        (5e-324, "4.9406564584124654e-324")])
def test_zero_dimensional_arrays(value, text):
    assert dumps(np.array(value)) == text == element_wise(np.array(value))
    assert dumps(np.array(value, dtype=np.float32)) == element_wise(np.array(value, np.float32))
    assert dumps({"x": np.array(value)}) == '{"x": ' + text + "}"
    with pytest.raises(InvalidPortfolio, match="^non-finite value nan cannot be serialized$"):
        dumps(np.array(np.nan))


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


# ---------------------------------------------------------------------------
# Symmetric matrices, written from their upper triangle
# ---------------------------------------------------------------------------

@pytest.fixture
def mirrored(monkeypatch):
    """The shape of each array ``dumps`` writes from its upper triangle."""
    shapes = []
    real = serialize._mirrored_rows

    def spy(arr):
        shapes.append(arr.shape)
        return real(arr)

    monkeypatch.setattr(serialize, "_mirrored_rows", spy)
    return shapes


def symmetric(values, n):
    """The n x n matrix with ``values``, cycled, on and above its diagonal,
    mirrored below it."""
    upper = np.triu_indices(n)
    sym = np.zeros((n, n))
    sym[upper] = np.resize(values, upper[0].size)
    sym.T[upper] = sym[upper]
    return sym


@pytest.mark.parametrize("n", [2, 3, 50, 200])
def test_symmetric_matrices_match_the_element_wise_path(n, mirrored):
    rng = np.random.default_rng(n)
    half = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-30, 30, (n, n))
    sym = half + half.T
    assert dumps(sym) == element_wise(sym)
    assert mirrored == [(n, n)]


def test_a_symmetric_matrix_of_edge_values_matches_the_element_wise_path(mirrored):
    # every layout switch of %.17g, the subnormals and both zeros, on and off
    # the diagonal
    for n in (5, 6, 19):
        sym = symmetric(EDGES, n)
        assert dumps(sym) == element_wise(sym)
    assert mirrored == [(5, 5), (6, 6), (19, 19)]


def test_symmetric_views_match_the_element_wise_path(mirrored):
    sym = symmetric(np.random.default_rng(5).standard_normal(78), 12)
    frozen = sym.copy()
    frozen.setflags(write=False)
    views = [frozen, sym.astype(np.float32), sym.T, np.asfortranarray(sym),
             symmetric(np.arange(300.0), 24)[::2, ::2]]
    assert sym.T.flags.f_contiguous and not sym.T.flags.c_contiguous
    for view in views:
        assert dumps(view) == element_wise(view)
    assert mirrored == [(12, 12)] * len(views)


def one_ulp_off(sym):
    sym[0, 1] = np.nextafter(sym[0, 1], np.inf)
    return sym


def zeros_swapped(sym):
    sym[1, 2], sym[2, 1] = 0.0, -0.0
    return sym


@pytest.mark.parametrize("arr", [
    one_ulp_off(symmetric(np.random.default_rng(6).standard_normal(21), 6)),
    zeros_swapped(symmetric(np.random.default_rng(7).standard_normal(21), 6)),
    np.arange(12.0).reshape(3, 4),
    np.ones((4, 3)),
], ids=["one-ulp", "signed-zeros", "wide", "tall"])
def test_matrices_that_are_not_symmetric_bit_for_bit_take_the_full_path(arr, mirrored):
    assert dumps(arr) == element_wise(arr)
    assert mirrored == []


def write_panel(path, rows):
    header = ",".join(f"A{j}" for j in range(rows.shape[1]))
    path.write_text(header + "\n" + "\n".join(",".join(map(repr, r)) for r in rows.tolist())
                    + "\n")
    return path


@pytest.mark.parametrize("t,n", [(60, 20), (6, 12)], ids=["full-rank", "repaired"])
def test_estimate_writes_its_covariance_from_the_upper_triangle(tmp_path, monkeypatch,
                                                                mirrored, t, n):
    # the repaired (T < n) covariance is V max(rho, floor) V', averaged with
    # its transpose, so it is symmetric bit for bit too
    rows = np.random.default_rng(t).normal(0.01, 0.02, (t, n)) + np.linspace(0.0, 0.01, n)
    csv = write_panel(tmp_path / "returns.csv", rows)
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SpdRepairWarning)
        assert main(["estimate", "--input", str(csv), "--output", str(fast)]) == 0
    assert any(issubclass(w.category, SpdRepairWarning) for w in caught) == (t < n)
    assert mirrored == [(n, n)]
    monkeypatch.setattr(serialize, "_mirrored_rows", element_wise)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpdRepairWarning)
        assert main(["estimate", "--input", str(csv), "--output", str(slow)]) == 0
    assert fast.read_bytes() == slow.read_bytes()


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


# ---------------------------------------------------------------------------
# The array kernel: the %.17g text of float arrays, exact, with a % fallback
# ---------------------------------------------------------------------------

def kernel_text(values) -> list[bytes]:
    """The kernel's text of each value."""
    return _g17.format_cells(np.asarray(values, dtype=float)).tolist()


def printf_text(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


@pytest.fixture
def fallback(monkeypatch):
    """The values the kernel hands to its ``%`` fallback."""
    seen = []
    real = _g17.printf_cells

    def spy(x):
        seen.extend(x.tolist())
        return real(x)

    monkeypatch.setattr(_g17, "printf_cells", spy)
    return seen


@pytest.fixture
def kernel_everywhere(monkeypatch):
    """Every symmetric matrix and surface, however small, goes through the
    kernel."""
    monkeypatch.setattr(serialize, "KERNEL_MIN", 0)


def test_the_kernel_matches_printf_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(2026)
    values = rng.integers(0, 2**64, size=1_050_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 10**6
    assert kernel_text(values) == printf_text(values)


def test_the_kernel_matches_printf_at_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
    assert kernel_text(values) == printf_text(values)
    assert kernel_text(-values) == printf_text(-values)


def test_the_kernel_matches_printf_on_integers_eighths_and_edges():
    big = np.array([2.0 ** 53, 1e16, 1e17, 99999999999999984.0])
    values = np.concatenate([
        np.arange(-20_000.0, 20_000.0), np.arange(-40_000, 40_000) / 8,
        (big[:, None] + np.arange(-64, 64) * np.spacing(big)[:, None]).ravel(),
        2.0 ** np.arange(-1074, 1024), EDGES])
    assert kernel_text(values) == printf_text(values)


def test_exact_ties_round_half_to_even_through_the_fallback(fallback):
    # 17 significant digits end at the first decimal, and the second is a 5
    ties = [2251799813685247.75, 2251799813685246.25, -2251799813685247.75]
    assert kernel_text(ties) == [b"2251799813685247.8", b"2251799813685246.2",
                                 b"-2251799813685247.8"]
    assert fallback == ties


def test_zeros_and_extreme_magnitudes_fall_back(fallback):
    values = [0.0, -0.0, 5e-324, 1e-251, 1e250, -1.7976931348623157e308, 0.1, 1e-250]
    assert kernel_text(values) == printf_text(values)
    assert fallback == values[:6]


def test_few_values_of_a_normal_array_fall_back(fallback):
    values = np.random.default_rng(5).standard_normal(200_000) * 1e-3
    assert kernel_text(values) == printf_text(values)
    assert len(fallback) < values.size // 1000


def test_small_symmetric_matrices_through_the_kernel_match_the_element_wise_path(
        kernel_everywhere, mirrored):
    rng = np.random.default_rng(8)
    arrays = [np.zeros((0, 0)), np.array([[-0.0]]), symmetric(EDGES, 2), symmetric(EDGES, 19),
              symmetric(rng.standard_normal(5050), 100)]
    for arr in arrays:
        assert dumps(arr) == element_wise(arr)
    assert mirrored == [(0, 0), (1, 1), (2, 2), (19, 19), (100, 100)]


def test_a_surface_through_the_kernel_has_the_bytes_of_the_element_wise_path(monkeypatch):
    rng = np.random.default_rng(9)
    sigma = np.abs(rng.standard_normal((7, 5))) * 10.0 ** rng.integers(-6, 20, (7, 5))
    surface = ParetoSurface(alpha_p=np.linspace(-1e-3, 0.3, 7), g0=np.array([0.5, 1, 1.5, 2, 1e17]),
                            sigma_p=sigma, on_gmv=rng.random((7, 5)) < 0.3,
                            on_risky=rng.random((7, 5)) < 0.3)
    header = ["alpha_p", "g0", "sigma_p", "is_gmv_line", "is_risky_line"]
    rows = [[a, g, s, int(m), int(r)] for a, g_row, s_row, m_row, r_row in zip(
        surface.alpha_p, [surface.g0] * 7, sigma, surface.on_gmv, surface.on_risky)
        for g, s, m, r in zip(g_row, s_row, m_row, r_row)]
    element_wise_text = csv_lines(header, rows)
    assert csv_lines(header, surface) == element_wise_text
    monkeypatch.setattr(serialize, "KERNEL_MIN", 0)
    assert csv_lines(header, surface) == element_wise_text


def test_estimate_through_the_kernel_writes_the_element_wise_bytes(tmp_path, monkeypatch,
                                                                   mirrored):
    # 50 assets: 1275 distinct covariance entries, at least KERNEL_MIN
    rows = np.random.default_rng(50).normal(0.01, 0.02, (120, 50)) + np.linspace(0.0, 0.01, 50)
    csv = write_panel(tmp_path / "returns.csv", rows)
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    assert 50 * 51 // 2 >= serialize.KERNEL_MIN
    assert main(["estimate", "--input", str(csv), "--output", str(fast)]) == 0
    assert mirrored == [(50, 50)]
    monkeypatch.setattr(serialize, "_mirrored_rows", element_wise)
    assert main(["estimate", "--input", str(csv), "--output", str(slow)]) == 0
    assert fast.read_bytes() == slow.read_bytes()


def test_the_kernel_is_imported_and_its_tables_made_on_first_use():
    # importing the CLI loads neither fractions (about 4.5 ms) nor decimal,
    # and a cold solve, whose weights are a 1-D row, neither compiles the
    # kernel module nor builds its tables, however long the row; nor does a
    # symmetric matrix of fewer than KERNEL_MIN distinct entries (n = 44),
    # while one of KERNEL_MIN or more (n = 45) does
    assert 44 * 45 // 2 < serialize.KERNEL_MIN <= 45 * 46 // 2
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import mvgear.cli\n"
        "from mvgear import serialize\n"
        "loaded = lambda: sorted({'fractions', 'decimal', 'mvgear._g17'} & set(sys.modules))\n"
        "sym = lambda n: (lambda m: m + m.T)(np.random.default_rng(n).random((n, n)))\n"
        "print(loaded())\n"
        "serialize.dumps(np.linspace(0.0, 1.0, 10 * serialize.KERNEL_MIN))\n"
        "serialize.dumps(sym(44))\n"
        "print(loaded())\n"
        "from mvgear import _g17\n"
        "print(sorted(_g17._TABLES))\n"
        "serialize.dumps(sym(45))\n"
        "print(sorted(_g17._TABLES))\n")
    src = str(Path(serialize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["[]", "[]", "[]", "['lead', 'pow10', 'quads', 'zeros']"]
