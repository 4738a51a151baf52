"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import itertools
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _take(gen, n):
    return list(itertools.islice(gen, n))


@pytest.mark.parametrize(
    "make",
    [workloads.mu_points, workloads.real_count_systems, workloads.classify_hash_seeds],
)
def test_generators_are_deterministic_per_seed(make):
    assert _take(make(7), 12) == _take(make(7), 12)
    assert _take(make(7), 12) != _take(make(8), 12)


def test_mu_points_are_nonzero_kites_on_the_grid_off_collisions():
    for mus in _take(workloads.mu_points(3), 500):
        assert mus[1] == mus[3]
        assert mus[1] + 2 * mus[2] != 0
        for m in mus:
            assert m != 0 and abs(m.numerator) <= 9 and 1 <= m.denominator <= 9


@pytest.mark.xfail(strict=True, reason="known program defect: run_kite counts the r = 0 collision as a kite")
def test_run_kite_passes_its_oracle_at_a_collision_point():
    assert workloads.collision_kite_failures()[0] == []


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _solve3(a, y):
    """x with a x = y, by Cramer's rule over Q."""
    d = _det3(a)
    out = []
    for col in range(3):
        m = [[y[i] if j == col else a[i][j] for j in range(3)] for i in range(3)]
        out.append(Fraction(_det3(m), d))
    return out


def _evaluate(poly, point):
    total = Fraction(0)
    for exps, c in poly.items():
        term = Fraction(c)
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_known_count_construction(seed):
    cubics, A, M, (real, complex_count) = workloads.real_count_construction(random.Random(seed))
    assert _det3(A) == 1 and _det3(M) == 1
    assert complex_count == 27
    gens = workloads.expand_system(cubics, A, M)
    # the real solutions are exactly the integer-root combinations of the cubics
    roots = [
        [y for y in range(-3, 4) if sum(c * y**k for k, c in enumerate(cubic)) == 0]
        for cubic in cubics
    ]
    points = [_solve3(A, ys) for ys in itertools.product(*roots)]
    assert len(points) == real
    for point in points:
        assert all(_evaluate(g, point) == 0 for g in gens)


def test_hermite_count_matches_construction_on_a_tiny_case():
    system = next(workloads.real_count_systems(0))
    pair = workloads.run_real_count(system)
    assert pair == system[1]
    assert workloads.check_real_count(system, pair) == ([], [])
    assert workloads.check_real_count(system, (0, 27)) != ([], [])


def test_kite_root_check_rejects_an_enclosure_without_sign_change():
    mus = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))

    class Root:
        def __init__(self, lo, hi):
            self.interval = (Fraction(lo), Fraction(hi))

    # at mu = (1, 1, 1, 1) the factor has the exact root r = 1 and no root in [2, 3]
    assert workloads.check_kite_roots(mus, [Root(1, 1), Root("9/10", "11/10")]) == []
    assert workloads.check_kite_roots(mus, [Root(2, 3)]) != []


def test_kite_root_check_accepts_double_roots():
    # at mu = (1, 1, 1/3, 1) the factor has double roots near +-0.577
    mus = (Fraction(1), Fraction(1), Fraction(1, 3), Fraction(1))
    reports = workloads.run_mu_point(mus)
    assert len(reports[1].roots) == 4
    assert workloads.check_mu_point(mus, reports) == ([], [])


def _frozen_document():
    scenarios = []
    for name, frozen in workloads.FROZEN["classify"].items():
        scenarios.append({
            "scenario": name,
            "elimination_basis": list(frozen["elimination_basis"]),
            "oracle_checks": [{"name": c, "status": "pass"} for c in frozen["oracle_checks"]],
            "roots": [{"interval": [r, r]} for r in frozen["roots"]],
        })
    return {"scenarios": scenarios}


def test_classify_check_accepts_frozen_and_rejects_changed_outputs():
    stdout = "[PASS] x: y\n" * workloads.FROZEN["classify_oracle_lines"]
    doc = _frozen_document()
    assert workloads.check_classify(0, stdout, doc) == ([], [])
    doc["scenarios"][0]["elimination_basis"] = ["mu2 + mu4"]
    doc["scenarios"][-1]["roots"][0]["interval"] = ["0", "0"]
    oracle, checks = workloads.check_classify(1, stdout + "[FAIL] z: w\n", doc)
    assert len(oracle) == 2
    assert any("elimination basis" in c for c in checks)
    assert any("misses root" in c for c in checks)


def test_coverage_check_fails_when_a_binding_is_left_unwrapped():
    import vortexsym.scenarios.kite as kite

    t = tracing.Tracer().install()
    try:
        t.check_coverage()
        original = t.original("groebner", "eliminate")
        kite.eliminate = original
        with pytest.raises(tracing.CoverageError, match="vortexsym.scenarios.kite.eliminate"):
            t.check_coverage()
    finally:
        t.uninstall()
    assert kite.eliminate is original


def test_traced_outputs_equal_untraced_and_self_time_subtracts_children():
    mus = (Fraction(3, 2), Fraction(1), Fraction(-4, 5), Fraction(1))
    plain = [r.to_document() for r in workloads.run_mu_point(mus)]
    t = tracing.Tracer().install()
    try:
        with t.op(0):
            traced = [r.to_document() for r in workloads.run_mu_point(mus)]
    finally:
        t.uninstall()
    assert traced == plain
    summary = t.summary()
    assert summary["scenarios.run_kite.calls"][0] == 1
    assert summary["groebner.eliminate.calls"][0] == 2
    # eliminate calls buchberger: its self time excludes the child spans
    assert summary["groebner.eliminate.self_s"][0] < summary["groebner.eliminate.total_s"][0]


def test_summary_self_time_on_synthetic_spans():
    t = tracing.Tracer()
    t.spans[:] = [
        ("groebner.eliminate", 0.0, 10.0, -1, 0),
        ("groebner.buchberger", 2.0, 5.0, 0, 0),
        ("groebner.buchberger", 6.0, 7.0, 0, 0),
    ]
    t.op_walls[0] = (0.0, 12.0)
    s = t.summary()
    assert s["groebner.eliminate.self_s"][0] == pytest.approx(6.0)
    assert s["groebner.eliminate.total_s"][0] == pytest.approx(10.0)
    assert s["groebner.buchberger.self_s"][0] == pytest.approx(4.0)
    assert s["groebner.buchberger.calls"][0] == 2
    assert s["trace.uncovered_s"][0] == pytest.approx(2.0)


def test_normalised_seconds_use_nearby_reference_samples():
    import run

    rec = run.OpRecord(None, 10.0, 1.0, None, [], [])
    refs = [(9.0, 2 * run.REF_NOMINAL_S), (12.0, 2 * run.REF_NOMINAL_S), (100.0, 1.0)]
    # the sample at t = 100 s is too far away to count
    assert run.normalised_seconds([rec], refs) == [pytest.approx(0.5)]


def test_normalised_seconds_leave_out_preempted_reference_samples():
    import run

    rec = run.OpRecord(None, 10.0, 1.0, None, [], [])
    # a preempted sample does not move the op's normalised time ...
    refs = [(9.0, run.REF_NOMINAL_S)] * 5 + [(9.5, 50 * run.REF_NOMINAL_S)]
    assert run.normalised_seconds([rec], refs) == [pytest.approx(1.0)]
    # ... while a slow phase counts by its share of the samples
    refs = [(9.0, run.REF_NOMINAL_S)] * 3 + [(9.5, 1.8 * run.REF_NOMINAL_S)]
    assert run.normalised_seconds([rec], refs) == [pytest.approx(1 / 1.2)]


def test_overhead_ratio_cancels_a_change_in_machine_speed():
    import run

    untraced = run.OpRecord(None, 0.0, 1.0, None, [], [])
    traced = run.OpRecord(None, 100.0, 2.0, None, [], [])
    # the machine runs at half speed during the traced op
    refs = [(0.0, run.REF_NOMINAL_S), (100.0, 2 * run.REF_NOMINAL_S)]
    assert run.overhead_ratio([untraced], [traced], refs) == pytest.approx(1.0)


def test_an_op_that_raises_makes_the_run_incorrect():
    import run

    def op(item):
        if item == "boom":
            raise ValueError(item)
        return item

    def check(item, output):
        return (["oracle says no"] if item == "oracle" else []), []

    records = [run._attempt(op, check, item) for item in ("ok", "oracle", "boom")]
    assert [bool(r.checks) for r in records] == [False, False, True]
    for r in records:
        r.seconds = 1.0
    refs = [(r.start, run.REF_NOMINAL_S) for r in records]
    res = run.result(records, refs, 0.1, 20.0, None)
    assert res["correct"] is False
    assert (res["attempted"], res["failed"]) == (3, 2)
    # the op that raised adds time but no completed op
    assert res["metrics"]["ops_per_norm_s"]["value"] == pytest.approx(2 / 3)
    # a failed oracle check alone is the program's verdict, not a wrong output
    assert run.result(records[:2], refs, 0.1, 20.0, None)["correct"] is True


def test_a_classify_process_that_times_out_fails_the_checks(monkeypatch):
    import run

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    rec, _ = run.classify_op(argv, "0", "timeout-test", [])
    assert rec.checks and rec.checks[0].startswith("killed after")
    assert rec.seconds < 10
