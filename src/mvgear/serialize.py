"""
Deterministic JSON/CSV emission and the portfolio wire format.

Floating-point values are rendered with 17 significant digits so repeated
runs on identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidPortfolio
from .solvers import Portfolio, Program


def fmt_float(value: float) -> str:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise InvalidPortfolio(f"non-finite value {value} cannot be serialized")
    return format(value, ".17g")


def dumps(obj) -> str:
    """JSON with fixed float formatting; dict order is preserved."""
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


def csv_lines(header: list[str], rows) -> str:
    """CSV text with 17-significant-digit floats and newline terminators."""
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def portfolio_to_dict(portfolio: Portfolio) -> dict:
    """Wire form: program, params, assets, weights, gearing, leverage, alpha_p, sigma_p."""
    params = {k: portfolio.params[k] for k in sorted(portfolio.params)}
    return {
        "program": portfolio.program.value,
        "params": params,
        "assets": list(portfolio.assets) if portfolio.assets is not None else None,
        "weights": [float(w) for w in portfolio.weights],
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

    Each param is a finite number or null, except ``shrink_mode``, a string.
    ``gearing`` and ``leverage`` are finite numbers, ``alpha_p`` and
    ``sigma_p`` finite numbers or null, ``assets`` null or a list of strings.
    Anything else raises InvalidPortfolio.
    """
    if not isinstance(data, dict):
        raise InvalidPortfolio(
            f"portfolio record must be a JSON object, got {type(data).__name__}"
        )
    try:
        weights = np.asarray(data["weights"], dtype=float)
        program = Program(data["program"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidPortfolio(f"malformed portfolio record: {exc}") from exc
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
    return Portfolio(
        weights=weights,
        program=program,
        params=dict(params),
        gearing=float(data.get("gearing", weights.sum())),
        leverage=float(data.get("leverage", np.abs(weights).sum())),
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
