"""
Deterministic JSON/CSV emission and the portfolio wire format.

Floating-point values are rendered with 17 significant digits so repeated
runs on identical inputs produce byte-identical artifacts: the text of each
is ``'%.17g' % x``. A symmetric matrix of at least :data:`KERNEL_MIN`
distinct entries and a surface's sigma_p column of that many points go
through one numpy kernel (:mod:`mvgear._g17`) that writes exactly those
bytes: for 1e-250 <= |x| < 1e250 it rounds x 10^(16 - k) to a 17-digit
integer from a double-double product in error by less than 2^-47, and every
value it cannot certify (zeros, values outside that range, scaled fractions
within 2^-36 of one half) is formatted by ``%``. Everything else, smaller
matrices and surfaces and every other float array, is formatted by one
C-level ``%`` per row.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from operator import getitem

import numpy as np

from .errors import InvalidPortfolio
from .solvers import ParetoSurface, Portfolio, Program


def fmt_float(value: float) -> str:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise InvalidPortfolio(f"non-finite value {value} cannot be serialized")
    return format(value, ".17g")


# At least this many values (the distinct entries of a symmetric matrix, a
# surface's sigma_p) go through the array kernel of :mod:`mvgear._g17`;
# fewer are formatted by one C-level ``%``, which was faster below about 300
# distinct entries of a symmetric matrix (2-core host, numpy 2.4), where the
# kernel's fixed cost of about 0.2 ms loses. The kernel is imported on first
# use, so that a process that writes no large matrix or surface, such as a
# fresh ``solve``, never compiles it.
KERNEL_MIN = 1000


def _float_rows(arr: np.ndarray) -> str:
    """JSON text of a finite float array, one C-level format per row; only
    one row at a time is held as Python floats. A square matrix equal to its
    transpose bit for bit (``==`` and the sign bit; the values are finite)
    is written by :func:`_mirrored_rows`."""
    if arr.ndim == 1:
        return "[" + ("%.17g, " * arr.size)[:-2] % tuple(arr.tolist()) + "]"
    if (arr.ndim == 2 and arr.shape[0] == arr.shape[1] and np.array_equal(arr, arr.T)
            and np.array_equal(np.signbit(arr), np.signbit(arr.T))):
        return _mirrored_rows(arr)
    return "[" + ", ".join(map(_float_rows, arr)) + "]"


def _mirrored_rows(sym: np.ndarray) -> str:
    """:func:`_float_rows` of a symmetric matrix from its upper triangle,
    each distinct entry formatted once.

    With at least :data:`KERNEL_MIN` distinct entries, the kernel formats the
    upper triangle, and text row i reads entry (i, j) from the cell of
    (min(i, j), max(i, j)). Below that, each row's entries from the diagonal
    on are formatted by one C-level format, and row i is column i above the
    diagonal followed by row i from the diagonal on.
    """
    n = sym.shape[0]
    if n * (n + 1) // 2 >= KERNEL_MIN:
        from . import _g17
        # the upper triangle's row j starts at cell j n - j (j - 1) / 2
        first = np.arange(n) * n - np.arange(n) * (np.arange(n) - 1) // 2

        def index(at):
            i, j = np.divmod(at, n)
            low = np.minimum(i, j)
            return first[low] + (i + j - 2 * low)

        return _g17.joined(_g17.format_cells(sym[np.triu_indices(n)]), n, index)
    # upper[j][k] is entry (j, j + k), so row i reads upper[j][i - j] for j < i
    upper = [(("%.17g," * (n - i)) % tuple(row[i:].tolist())).split(",")[:-1]
             for i, row in enumerate(sym)]
    return "[" + ", ".join(
        "[" + ", ".join(chain(map(getitem, upper, range(i, 0, -1)), tail)) + "]"
        for i, tail in enumerate(upper)) + "]"


def _require_finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, or the element-wise path's error for its first non-finite value."""
    finite = np.isfinite(arr)
    if not finite.all():
        fmt_float(arr[~finite][0])  # raises for the first non-finite value
    return arr


def dumps(obj) -> str:
    """JSON with fixed float formatting; dict order is preserved.

    A float ndarray is written row by row with ``%.17g``, which shares
    CPython's float-to-text path with ``format(x, ".17g")``; a symmetric
    matrix is written from its upper triangle (:func:`_float_rows`), with
    the same bytes. A 0-d array is written as the scalar it holds, and a
    list of strings by one ``json.dumps``, whose separator is the ", " used
    here.
    """
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return dumps(obj.item())
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return _float_rows(_require_finite(obj))
    if isinstance(obj, list) and all(isinstance(v, str) for v in obj):
        return json.dumps(obj, ensure_ascii=False)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# A surface point's two line flags, indexed by 2 * on_gmv + on_risky.
_FLAGS = (",0,0\n", ",0,1\n", ",1,0\n", ",1,1\n")


def _surface_lines(surface: ParetoSurface) -> str:
    """One CSV line per point, alpha_p-major: each grid value is formatted
    once and every sigma_p by one C-level ``%.17g`` format, or from
    :data:`KERNEL_MIN` points on by the array kernel, which lays out the
    lines too (:func:`mvgear._g17.text`)."""
    sigma = _require_finite(surface.sigma_p)
    alphas = ["%.17g," % v for v in surface.alpha_p.tolist()]
    gearings = ["%.17g," % v for v in surface.g0.tolist()]
    codes = (2 * surface.on_gmv + surface.on_risky).ravel()
    if sigma.size >= KERNEL_MIN:
        from . import _g17
        k = len(gearings)
        columns = [np.array(alphas, "S25"), np.array(gearings, "S25"),
                   _g17.format_cells(sigma.ravel()), np.array(_FLAGS, "S5")]
        return _g17.text(columns, lambda at: (at // k, at % k, at, codes[at]), sigma.size)
    cells = zip(chain.from_iterable(map(repeat, alphas, repeat(len(gearings)))),
                gearings * len(alphas), sigma.ravel().tolist(),
                map(_FLAGS.__getitem__, codes.tolist()))
    return ("%s%s%.17g%s" * sigma.size) % tuple(chain.from_iterable(cells))


def csv_lines(header: list[str], rows) -> str:
    """CSV text with 17-significant-digit floats and newline terminators, of
    ``rows`` or of a ParetoSurface."""
    if isinstance(rows, ParetoSurface):
        return ",".join(header) + "\n" + _surface_lines(rows)
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def portfolio_to_dict(portfolio: Portfolio) -> dict:
    """Wire form: program, params, assets, weights, gearing, leverage, alpha_p,
    sigma_p; ``weights`` stays a float array, which :func:`dumps` writes row-wise."""
    params = {k: portfolio.params[k] for k in sorted(portfolio.params)}
    return {
        "program": portfolio.program.value,
        "params": params,
        "assets": list(portfolio.assets) if portfolio.assets is not None else None,
        "weights": np.asarray(portfolio.weights, dtype=float),
        "gearing": portfolio.gearing,
        "leverage": portfolio.leverage,
        "alpha_p": portfolio.alpha_p,
        "sigma_p": portfolio.sigma_p,
    }


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number that is a finite double."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def portfolio_from_dict(data: dict) -> Portfolio:
    """The portfolio a wire record holds, every field typed here.

    ``weights`` is a list of finite numbers. Each param is a finite number or
    null, except ``shrink_mode``, a string. ``gearing`` and ``leverage`` are
    finite numbers, ``alpha_p`` and ``sigma_p`` finite numbers or null,
    ``assets`` null or a list of strings. Anything else raises InvalidPortfolio.
    """
    if not isinstance(data, dict):
        raise InvalidPortfolio(
            f"portfolio record must be a JSON object, got {type(data).__name__}"
        )
    try:
        weights = data["weights"]
        program = Program(data["program"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPortfolio(f"malformed portfolio record: {exc}") from exc
    if not isinstance(weights, list):
        raise InvalidPortfolio(f"weights must be a list, got {type(weights).__name__}")
    for value in weights:
        if not _finite(value):
            raise InvalidPortfolio(f"weights must be finite numbers, got {value!r}")
    weights = np.array(weights, dtype=float)
    params = data.get("params") or {}
    if not isinstance(params, dict):
        raise InvalidPortfolio(f"params must be a JSON object, got {params!r}")
    for name, value in params.items():
        if name == "shrink_mode" and not isinstance(value, str):
            raise InvalidPortfolio(f"param shrink_mode must be a string, got {value!r}")
        if name != "shrink_mode" and not (value is None or _finite(value)):
            raise InvalidPortfolio(
                f"param {name} must be a finite number or null, got {value!r}")
    for name in ("gearing", "leverage"):
        if name in data and not _finite(data[name]):
            raise InvalidPortfolio(f"{name} must be a finite number, got {data[name]!r}")
    for name in ("alpha_p", "sigma_p"):
        if not (data.get(name) is None or _finite(data[name])):
            raise InvalidPortfolio(
                f"{name} must be a finite number or null, got {data[name]!r}")
    assets = data.get("assets")
    if assets is not None and not (
            isinstance(assets, list) and all(isinstance(a, str) for a in assets)):
        raise InvalidPortfolio(f"assets must be null or a list of strings, got {assets!r}")
    with np.errstate(all="ignore"):  # a weight sum past the float range reads inf
        return Portfolio(
            weights=weights,
            program=program,
            params=dict(params),
            gearing=float(data["gearing"] if "gearing" in data else weights.sum()),
            leverage=float(data["leverage"] if "leverage" in data else np.abs(weights).sum()),
            alpha_p=None if data.get("alpha_p") is None else float(data["alpha_p"]),
            sigma_p=None if data.get("sigma_p") is None else float(data["sigma_p"]),
            assets=tuple(assets) if assets is not None else None,
        )


def load_portfolio_json(path) -> Portfolio:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise InvalidPortfolio(f"{path}: not a JSON document: {exc}") from exc
    return portfolio_from_dict(data)
