"""Output checks run after the timed region.

Solve artifacts of the GMV, VI and VII programs are compared per weight with
the bordered-KKT oracle on moments computed here from the CSV, and their
binding constraints are audited; verify artifacts must report a pass.
"""

from __future__ import annotations

import json

import numpy as np
from mvgear import oracle

WEIGHT_TOL = 1e-8
CONSTRAINT_RTOL = 1e-10


def _kkt_problem(program: str, params: dict, alpha, cov):
    n = alpha.size
    ones = np.ones((1, n))
    if program == "GMV":
        return oracle.KktProblem(cov, np.zeros(n), ones, [1.0])
    if program == "VI":
        return oracle.KktProblem(cov, np.zeros(n), np.vstack([alpha, ones]),
                                 [params["alpha0"], params["g0"]])
    if program == "VII":
        return oracle.KktProblem(params["gamma"] * cov, alpha, ones, [params["g0"]])
    raise ValueError(f"no oracle formulation for program {program}")


def _binding(program: str, params: dict, alpha, weights) -> list[tuple[str, float, float]]:
    """(name, achieved, target) of each constraint the program binds."""
    gearing = float(weights.sum())
    if program == "GMV":
        return [("gearing", gearing, 1.0)]
    rows = [("gearing", gearing, params["g0"])]
    if program == "VI":
        rows.append(("return", float(alpha @ weights), params["alpha0"]))
    return rows


def check_solve(program: str, params: dict, moments, path: str) -> str | None:
    """None if the artifact matches the KKT oracle; else what failed."""
    with open(path, encoding="utf-8") as handle:
        weights = np.asarray(json.load(handle)["weights"], dtype=float)
    theta, _ = oracle.solve_kkt(_kkt_problem(program, params, moments.alpha,
                                             moments.cov))
    err = float(np.abs(weights - theta).max())
    if not err <= WEIGHT_TOL:
        return f"{program}: max weight deviation from KKT oracle {err:g}"
    for name, achieved, target in _binding(program, params, moments.alpha, weights):
        if not abs(achieved - target) <= CONSTRAINT_RTOL * max(1.0, abs(target)):
            return f"{program}: {name} constraint {achieved!r} vs {target!r}"
    return None


def check_verify(path: str) -> str | None:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return f"verify reported failure: {failed}"
    return None


def check_request(request, moments) -> str | None:
    """Content check of one request's artifact, by the request's check tag."""
    if request.check == "verify":
        return check_verify(request.output)
    if request.check is not None:
        return check_solve(request.check, request.params, moments, request.output)
    return None
