"""Seeded workloads: synthetic returns panels and the request script run on them.

Every panel comes from a 5-factor model drawn from ``numpy.random`` seeded
with (seed, workload, panel index), so the same seed always writes
byte-identical CSV files. The program under test only ever sees those CSV
files and the argv lists of the script; request parameters that depend on
the data (return targets, the angle-shrink grid) are derived here from the
CSV as re-read by ``numpy.loadtxt``, i.e. from exactly the values the
program parses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

FACTORS = 5
FACTOR_PREMIA = np.array([0.01, 0.003, 0.002, 0.001, 0.0005])
FACTOR_VOLS = np.array([0.045, 0.025, 0.02, 0.015, 0.01])
IDIO_VOL_RANGE = (0.01, 0.04)
CSV_FORMAT = "%.10g"
# Risk aversion used by every gamma-parameterized request.
GAMMA = 10.0
# The Sharpe programs (IV, V, VIII, RISKY) are maxima only when
# B = 1'Sigma^-1 alpha > 0; a draw with B at or below this share of
# sqrt(AC) is discarded and the next draw of the same stream is used.
MIN_B_RATIO = 1e-3
MAX_DRAWS = 64
# Samples for the token Sharpe-family verify that keeps the oracle layer
# exercised on workloads it does not dominate.
TOKEN_SAMPLES = 64
SMALL_PANELS = 40
# Short requests are repeated within a pass, so that their medians rest on
# enough samples without outweighing the requests a workload is about.
AUDIT_REPEATS = 6
# Panel sizes (n, T). The wide-estimate and sweep-surface panels are sized
# so that a pass takes about a second and each subcommand gets some 15 or
# more samples in a 24-second run.
WIDE_SHAPE = (200, 440)
SWEEP_SHAPE = (160, 360)
AUDIT_SHAPE = (100, 260)

NAMES = ("wide-estimate", "sweep-surface", "audit-verify", "small-fresh")


@dataclass(frozen=True)
class Moments:
    """Independent sample moments of a panel as the program parses it."""

    alpha: np.ndarray
    cov: np.ndarray
    si_ones: np.ndarray
    si_alpha: np.ndarray

    @classmethod
    def of(cls, returns: np.ndarray) -> "Moments":
        alpha = returns.mean(axis=0)
        cov = np.cov(returns, rowvar=False, ddof=1)
        cov = 0.5 * (cov + cov.T)
        n = alpha.size
        return cls(alpha, cov, np.linalg.solve(cov, np.ones(n)),
                   np.linalg.solve(cov, alpha))

    @property
    def a(self) -> float:
        return float(self.si_ones.sum())

    @property
    def b(self) -> float:
        return float(self.alpha @ self.si_ones)

    @property
    def c(self) -> float:
        return float(self.alpha @ self.si_alpha)

    def angle_floor(self) -> float:
        """k0 = cos of the angle between alpha and Sigma^-1 alpha."""
        return self.c / float(np.linalg.norm(self.alpha)
                              * np.linalg.norm(self.si_alpha))


@dataclass
class Request:
    """One CLI call: its subcommand, argv and what to check afterwards."""

    kind: str
    argv: list[str]
    output: str
    panel: int
    check: str | None = None  # "GMV" | "VI" | "VII" | "verify"
    params: dict = field(default_factory=dict)
    points: int = 0  # shrink-sweep grid points


@dataclass
class Workload:
    name: str
    panels: list[str]
    moments: list[Moments]
    script: list[Request]
    cold_start: list[str]  # argv of the cold-start solve
    cold_reference: int  # script index whose artifact the cold start must equal


def factor_returns(rng: np.random.Generator, n: int, t: int) -> np.ndarray:
    """T x n simple returns of a 5-factor model with idiosyncratic noise."""
    loadings = rng.normal(0.0, 0.5, size=(n, FACTORS))
    loadings[:, 0] += 1.0
    factors = FACTOR_PREMIA + rng.standard_normal((t, FACTORS)) * FACTOR_VOLS
    idio = rng.standard_normal((t, n)) * rng.uniform(*IDIO_VOL_RANGE, size=n)
    return factors @ loadings.T + idio


def draw_panel(rng: np.random.Generator, n: int, t: int) -> np.ndarray:
    """First draw of the stream whose B is clearly positive."""
    for _ in range(MAX_DRAWS):
        returns = factor_returns(rng, n, t)
        m = Moments.of(returns)
        if m.b > MIN_B_RATIO * np.sqrt(m.a * m.c):
            return returns
    raise RuntimeError(f"no panel with B > 0 in {MAX_DRAWS} draws (n={n}, T={t})")


def write_panel(path: str, returns: np.ndarray) -> None:
    header = ",".join(f"A{j:04d}" for j in range(returns.shape[1]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        np.savetxt(handle, returns, fmt=CSV_FORMAT, delimiter=",",
                   header=header, comments="", newline="\n")


def panel_shapes(name: str, seed: int) -> list[tuple[int, int]]:
    """(n, T) of every panel of a workload."""
    if name == "wide-estimate":
        return [WIDE_SHAPE]
    if name == "sweep-surface":
        return [SWEEP_SHAPE]
    if name == "audit-verify":
        return [AUDIT_SHAPE]
    if name == "small-fresh":
        # n and T/n are stratified over [20, 60) and [1.2, 4] and paired by
        # seeded permutations, so the seed changes the data but not how much
        # work the panels add up to.
        rng = np.random.default_rng([seed, NAMES.index(name), 1 << 20])
        ns = 20 + rng.permutation(SMALL_PANELS) * 40 // SMALL_PANELS
        ratios = 1.2 + 2.8 * (rng.permutation(SMALL_PANELS) + 0.5) / SMALL_PANELS
        return [(int(n), int(np.ceil(n * r))) for n, r in zip(ns, ratios)]
    raise ValueError(f"unknown workload {name!r}")


def write_panels(name: str, seed: int, workdir: str) -> list[str]:
    """Generate and write every panel of a workload; returns the CSV paths."""
    paths = []
    for i, (n, t) in enumerate(panel_shapes(name, seed)):
        rng = np.random.default_rng([seed, NAMES.index(name), i])
        path = os.path.join(workdir, f"panel{i:03d}.csv")
        write_panel(path, draw_panel(rng, n, t))
        paths.append(path)
    return paths


def read_moments(path: str) -> Moments:
    return Moments.of(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def _num(x: float) -> str:
    return format(float(x), ".6g")


def grid(start: float, step: float, count: int) -> str:
    """``start:step:stop`` that the CLI expands to exactly ``count`` points."""
    step_text = _num(step)
    stop = float(start) + float(step_text) * (count - 1)
    return f"{_num(start)}:{step_text}:{stop!r}"


def angle_grid(k0: float, points: int = 11) -> str:
    """Angle-shrink grid from 0 to at most 0.9 k0; k >= k0 exits with InvalidK."""
    step = np.floor(0.9 * k0 / (points - 1) * 1e6) / 1e6
    return grid(0.0, step, points)


def _sweep_vi_alpha0(m: Moments, qs) -> float:
    """A VI return target above the GMV return of every simple-shrunk Sigma."""
    n = m.alpha.size
    inflections = []
    for q in qs:
        s1 = np.linalg.solve(q * np.eye(n) + (1.0 - q) * m.cov, np.ones(n))
        inflections.append(float(m.alpha @ s1) / float(s1.sum()))
    return max(1.25 * max(inflections), m.c / m.b)


class _Script:
    """Builds the request list; artifacts go to ``outdir``."""

    def __init__(self, panels: list[str], outdir: str):
        self.panels = panels
        self.outdir = outdir
        self.requests: list[Request] = []

    def add(self, kind: str, panel: int, args: list[str], ext: str = "json",
            **extra) -> int:
        index = len(self.requests)
        output = os.path.join(self.outdir, f"r{index:04d}-{kind}.{ext}")
        argv = [kind, "--input", self.panels[panel], *args, "--output", output]
        self.requests.append(Request(kind, argv, output, panel, **extra))
        return index

    def solve(self, panel: int, program: str, **params) -> int:
        args = ["--program", program]
        for key, value in params.items():
            args += [f"--{key}", _num(value)]
        check = program if program in ("GMV", "VI", "VII") else None
        return self.add("solve", panel, args, check=check,
                        params={k: float(_num(v)) for k, v in params.items()})

    def verify(self, panel: int, portfolio: int, samples: int | None = None) -> int:
        args = ["--portfolio", self.requests[portfolio].output]
        if samples is not None:
            args += ["--samples", str(samples)]
        return self.add("verify", panel, args, check="verify")

    def bounds(self, panel: int, portfolio: int) -> int:
        return self.add("bounds", panel,
                        ["--portfolio", self.requests[portfolio].output])

    def qoqc(self, panel: int, m: Moments) -> int:
        n0 = m.alpha.size / 4.0
        return self.add("qoqc", panel, ["--gamma", _num(GAMMA), "--g0", "1",
                                        "--n0", _num(n0)])

    def frontier(self, panel: int, m: Moments, points: int) -> int:
        hi = 2.0 * m.c / m.b
        return self.add("frontier", panel,
                        ["--g0", "1", "--alpha-grid", grid(0.0, hi / (points - 1), points)],
                        ext="csv")

    def surface(self, panel: int, m: Moments, alphas: int, gearings: int) -> int:
        hi = 2.0 * m.c / m.b
        return self.add("surface", panel,
                        ["--g0", grid(0.5, 1.5 / (gearings - 1), gearings),
                         "--alpha-grid", grid(0.0, hi / (alphas - 1), alphas)],
                        ext="csv")

    def sweep(self, panel: int, mode: str, grid_text: str, points: int,
              program_args=()) -> int:
        return self.add("shrink-sweep", panel,
                        ["--mode", mode, "--grid", grid_text, *program_args],
                        ext="csv", points=points)


def _vi_alpha0(m: Moments) -> float:
    """Return target halfway between the GMV and risky returns at g0 = 1."""
    return 0.5 * (m.b / m.a + m.c / m.b)


def build_script(name: str, panels: list[str], moments: list[Moments],
                 outdir: str) -> tuple[list[Request], list[str], int]:
    """Request script, cold-start argv and the script index it must match."""
    s = _Script(panels, outdir)
    if name == "wide-estimate":
        m = moments[0]
        # Two of the eleven requests are estimates, so that request_p90_s
        # falls inside the estimate latencies, not on their lower edge.
        for _ in range(2):
            s.add("estimate", 0, [])
        vii = s.solve(0, "VII", gamma=GAMMA, g0=1.0)
        s.solve(0, "VI", alpha0=_vi_alpha0(m), g0=1.0)
        s.qoqc(0, m)
        s.bounds(0, vii)
        s.frontier(0, m, 101)
        s.surface(0, m, 21, 7)
        s.sweep(0, "diagonal", "0.5", 1)
        viii = s.solve(0, "VIII", g0=1.0)
        s.verify(0, viii, samples=TOKEN_SAMPLES)
    elif name == "sweep-surface":
        m = moments[0]
        s.sweep(0, "angle", angle_grid(m.angle_floor()), 11,
                ["--program", "VII", "--gamma", _num(GAMMA), "--g0", "1"])
        qs = np.linspace(0.0, 1.0, 11)
        s.sweep(0, "simple", "0:0.1:1", 11,
                ["--program", "VI", "--alpha0", _num(_sweep_vi_alpha0(m, qs)),
                 "--g0", "1"])
        s.sweep(0, "diagonal", "0:0.1:1", 11)
        # The short requests run once a pass: a repeat right after other
        # work can run at another speed, and a median over two such groups
        # sits in the gap between them.
        s.surface(0, m, 200, 41)
        s.frontier(0, m, 1001)
        s.add("estimate", 0, [])
        vii = s.solve(0, "VII", gamma=GAMMA, g0=1.0)
        s.bounds(0, vii)
        s.qoqc(0, m)
        viii = s.solve(0, "VIII", g0=1.0)
        s.verify(0, viii, samples=TOKEN_SAMPLES)
    elif name == "audit-verify":
        m = moments[0]
        s.verify(0, s.solve(0, "VIII", g0=1.0))
        s.verify(0, s.solve(0, "V", g0=1.5))
        vii = s.solve(0, "VII", gamma=GAMMA, g0=1.0)
        s.verify(0, vii)
        for _ in range(AUDIT_REPEATS):
            s.add("estimate", 0, [])
            s.solve(0, "VII", gamma=GAMMA, g0=1.0)
            s.bounds(0, vii)
            s.qoqc(0, m)
            s.frontier(0, m, 101)
            s.surface(0, m, 21, 7)
            s.sweep(0, "simple", "0:0.5:1", 3,
                    ["--program", "VII", "--gamma", _num(GAMMA), "--g0", "1"])
    elif name == "small-fresh":
        for p, m in enumerate(moments):
            s.add("estimate", p, [])
            s.solve(p, "I", sigma0=2.0 / np.sqrt(m.a))
            s.solve(p, "II", alpha0=m.c / m.b)
            s.solve(p, "III", gamma=GAMMA)
            s.solve(p, "IV")
            s.solve(p, "V", g0=1.0)
            s.solve(p, "VI", alpha0=_vi_alpha0(m), g0=1.0)
            vii = s.solve(p, "VII", gamma=GAMMA, g0=1.0)
            viii = s.solve(p, "VIII", g0=1.0)
            s.solve(p, "GMV")
            s.solve(p, "RISKY")
            s.bounds(p, vii)
            s.qoqc(p, m)
            s.frontier(p, m, 101)
            s.verify(p, vii)
            s.surface(p, m, 21, 7)
            s.sweep(p, "simple", "0:0.5:1", 3)
            if p % 4 == 0:
                s.verify(p, viii, samples=TOKEN_SAMPLES)
    else:
        raise ValueError(f"unknown workload {name!r}")
    reference = next(i for i, r in enumerate(s.requests)
                     if r.kind == "solve" and r.check == "VII")
    cold = list(s.requests[reference].argv)
    cold[cold.index("--output") + 1] = os.path.join(outdir, "cold-start.json")
    return s.requests, cold, reference


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    """Write the panels of ``name`` under ``workdir`` and build its script."""
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    panels = write_panels(name, seed, workdir)
    moments = [read_moments(p) for p in panels]
    script, cold, reference = build_script(name, panels, moments, outdir)
    return Workload(name, panels, moments, script, cold, reference)
