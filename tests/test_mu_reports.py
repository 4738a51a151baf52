"""Golden reports of the square, kite and rectangle scenarios at seeded circulations.

The default-circulation reports are pinned by ``golden/all_check_appendix.json``;
this file pins the per-mu path that a library user scanning circulations takes.
``tests/regenerate_goldens.py`` rewrites it with ``render_mu_reports``, with
every other golden file.
"""

import random
from fractions import Fraction
from pathlib import Path

from vortexsym.cli import render_json
from vortexsym.scenarios import run_kite, run_rectangle, run_square

GOLDEN = Path(__file__).parent / "golden" / "mu_reports.json"
N_POINTS = 24


def _small_rational(rng):
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.randint(1, 9))


def mu_points(seed=20261018, count=N_POINTS):
    """Circulations (mu1, mu2, mu3, mu2) with nonzero entries n/d, |n| <= 9,
    1 <= d <= 9, off the kite collision line mu2 + 2 mu3 = 0."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        mu1, mu2, mu3 = (_small_rational(rng) for _ in range(3))
        if mu2 + 2 * mu3:
            points.append((mu1, mu2, mu3, mu2))
    return points


def render_mu_reports():
    entries = []
    for mus in mu_points():
        reports = [run_square(mus=mus), run_kite(mus=mus), run_rectangle(mus=mus)]
        entries.append(
            {
                "mu": [str(m) for m in mus],
                "reports": [r.to_document() for r in reports],
            }
        )
    return render_json({"points": entries})


def test_mu_reports_match_golden_file():
    assert render_mu_reports() == GOLDEN.read_text()
