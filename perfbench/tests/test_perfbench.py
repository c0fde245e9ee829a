"""Tests of the benchmark's own arithmetic, generator and tracer.

Run with ``python3 -m pytest perfbench/tests``.
"""

import hashlib

import numpy as np
import pytest

import calibrate
import spans
import stats
import workloads


def _span(name, start, end, parent=None, layer="cli"):
    return [name, layer, start, end, parent, 0]


def test_self_time_of_nested_spans():
    records = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(records) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    records = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 4.0, parent=0),
        _span("y", 3.0, 6.0, parent=0),      # overlaps x on [3, 4]
        _span("z", 3.5, 5.0, parent=0),      # inside y
        _span("w", 9.0, 12.0, parent=0),     # runs past the parent's end
    ]
    assert spans.self_times(records)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.mark.parametrize("samples, expected", [
    (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    p = stats.tail_percentile(samples)
    assert p == expected
    if p is not None:
        values = list(range(samples))
        cut = stats.quantile(values, p)
        assert sum(v > cut for v in values) >= 10


def test_quantile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0, 10, 50, 90, 100):
        assert stats.quantile(values, p) == pytest.approx(np.percentile(values, p))


@pytest.mark.parametrize("t, expected", [
    (0.0, [1.0, 2.0, 3.0]),          # before the first stamp
    (10.0, [3.0, 4.0, 5.0]),         # after the last
    (2.9, [2.0, 3.0, 4.0]),          # around a middle stamp
    (3.5, [2.0, 3.0, 4.0]),          # ties take the earlier stamp
])
def test_nearest_reference_times(t, expected):
    stamps = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert calibrate.nearest(stamps, [1.0, 2.0, 3.0, 4.0, 5.0], t, 3) == expected
    assert calibrate.nearest(stamps, stamps, t, 9) == stamps


def test_timings_scale_by_the_reference_speed_nearest_to_them():
    ref = calibrate.Reference(every_s=0.25)
    ref.NEAREST = 3
    # The machine runs at reference speed until t = 10, then at half speed.
    ref.stamps = [float(t) for t in range(20)]
    ref.times = [calibrate.NOMINAL_S * (1.0 if t < 10 else 2.0) for t in range(20)]
    assert ref.scale(2.0, 1.0) == pytest.approx(1.0)
    assert ref.scale(15.0, 1.0) == pytest.approx(0.5)
    assert ref.factor_over(5.0, 9.0) == pytest.approx(1.0)  # stamps 3 to 11
    ref.WINDOW_S = 0.1
    assert ref.factor_over(9.6, 9.6) == pytest.approx(0.5)  # nearest: 9, 10, 11
    assert ref.factor() == pytest.approx(1.0 / 1.5)


def test_reference_kernel_uses_no_program_code():
    import subprocess
    import sys
    from pathlib import Path

    bench = Path(calibrate.__file__).parent
    code = ("import sys, calibrate; calibrate.reference(); "
            "print(any(m.startswith('mvgear') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=bench, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    assert calibrate.reference() == calibrate.reference()


def _panel_digests(name, seed, directory):
    directory.mkdir()
    paths = workloads.write_panels(name, seed, str(directory))
    return [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths]


@pytest.mark.parametrize("name", ["audit-verify", "small-fresh"])
def test_generator_is_deterministic_in_its_seed(name, tmp_path):
    first = _panel_digests(name, 7, tmp_path / "a")
    assert _panel_digests(name, 7, tmp_path / "b") == first
    assert _panel_digests(name, 8, tmp_path / "c") != first


def test_small_fresh_shapes_are_stratified_with_more_periods_than_assets():
    sizes = set()
    for seed in range(5):
        shapes = workloads.panel_shapes("small-fresh", seed)
        for n, t in shapes:
            assert 20 <= n <= 60
            assert 1.2 * n <= t <= 4.0 * n + 1
        sizes.add(tuple(sorted(n for n, _ in shapes)))
    assert len(sizes) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_angle_grid_stays_below_k0(seed, tmp_path):
    from mvgear import robust
    from mvgear.cli import parse_grid
    from mvgear.moments import estimate_moments, load_returns_csv

    work = workloads.make_workload("sweep-surface", seed, str(tmp_path))
    sweep = next(r for r in work.script
                 if r.kind == "shrink-sweep" and r.argv[r.argv.index("--mode") + 1] == "angle")
    alpha, cov = estimate_moments(load_returns_csv(work.panels[0]))
    k0 = robust.angle_floor(alpha, cov)
    points = parse_grid(sweep.argv[sweep.argv.index("--grid") + 1])
    assert points.size == 11 == sweep.points
    assert points[0] == 0.0
    assert points.max() < k0


@pytest.mark.parametrize("count", [2, 11, 101, 1001])
def test_grid_expands_to_the_requested_count(count):
    from mvgear.cli import parse_grid

    assert parse_grid(workloads.grid(0.0, 0.0123456789 / count, count)).size == count
    assert parse_grid(workloads.grid(0.5, 1.5 / (count - 1), count)).size == count


def test_tracer_patches_names_where_they_are_looked_up(tmp_path):
    import mvgear.cli as cli
    import mvgear.moments as moments

    path = tmp_path / "panel.csv"
    workloads.write_panel(str(path), np.random.default_rng(0).normal(0.01, 0.05, (30, 4)))
    originals = (cli.load_returns_csv, moments.load_returns_csv, np.linalg.eigh,
                 moments.CovMatrix.__dict__["from_entries"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.load_returns_csv is not originals[0]
        tracer.request_id = 0
        out = tmp_path / "est.json"
        assert cli.main(["estimate", "--input", str(path), "--output", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert (cli.load_returns_csv, moments.load_returns_csv, np.linalg.eigh,
            moments.CovMatrix.__dict__["from_entries"]) == originals

    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][spans.PARENT] is None
    parse = names.index(spans.PARSE)
    assert tracer.spans[parse][spans.PARENT] == 0
    assert names.count(spans.EIGH) == 2           # estimate_moments + from_entries
    assert names.count("serialize.dumps") == 1    # recursion stays one span
    eigh = [s for s in tracer.spans if s[spans.NAME] == spans.EIGH]
    assert {s[spans.LAYER] for s in eigh} == {"moments"}
    assert tracer.counters["parse.cells"] == 120
    assert tracer.counters["serialize.bytes_out"] == out.stat().st_size - 1
    assert all(s[spans.REQUEST] == 0 for s in tracer.spans)


def test_checks_accept_the_program_and_catch_a_perturbed_weight(tmp_path):
    import json

    import checks
    from mvgear import cli

    work = workloads.make_workload("audit-verify", 0, str(tmp_path))
    vii = next(r for r in work.script if r.check == "VII")
    verify = next(r for r in work.script
                  if r.kind == "verify" and vii.output in r.argv)
    for request in (vii, verify):
        assert cli.main(request.argv) == 0
    m = work.moments[vii.panel]
    assert checks.check_request(vii, m) is None

    with open(vii.output) as handle:
        doc = json.load(handle)
    doc["weights"][0] += 1e-6
    with open(vii.output, "w") as handle:
        json.dump(doc, handle)
    assert "KKT" in checks.check_request(vii, m)

    with open(verify.output) as handle:
        report = json.load(handle)
    assert checks.check_request(verify, m) is None
    report["passed"] = False
    with open(verify.output, "w") as handle:
        json.dump(report, handle)
    assert "verify reported failure" in checks.check_request(verify, m)
