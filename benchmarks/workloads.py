"""Seeded inputs, operations and output checks of the three workloads.

Every check here is a fact that must survive any correct change to the
program: it compares against values frozen from the paper's classification
(``frozen.json``) or against answers known by construction, never against
the exact bytes of a report.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "frozen.json")) as _handle:
    FROZEN = json.load(_handle)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# classify: `vortexsym all --check-appendix --json` as a CLI user runs it
# ---------------------------------------------------------------------------


def classify_hash_seeds(seed):
    """PYTHONHASHSEED of each successive classify op; the report must not
    depend on it."""
    rng = _rng("classify", seed)
    while True:
        yield rng.randrange(2**32)


def check_classify(returncode, stdout, document):
    """Problems with one `all --check-appendix` run, as two lists of strings:
    failures the program reports (exit code, oracle lines) and failures of
    the benchmark's checks (oracle names, bases, root counts and enclosures
    against the frozen values).
    """
    oracle, checks = [], []
    if returncode != 0:
        oracle.append(f"exit code {returncode}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    failing = [ln for ln in lines if not ln.startswith("[PASS]")]
    oracle.extend(f"oracle line {ln!r}" for ln in failing)
    scenarios = {s["scenario"]: s for s in (document or {}).get("scenarios", [])}
    for name, frozen in FROZEN["classify"].items():
        report = scenarios.get(name)
        if report is None:
            checks.append(f"{name}: missing from the JSON report")
            continue
        got = {c["name"]: c["status"] for c in report["oracle_checks"]}
        for check in frozen["oracle_checks"]:
            if got.get(check) != "pass":
                checks.append(f"{name}: oracle check {check} is {got.get(check)}")
        if set(report["elimination_basis"]) != set(frozen["elimination_basis"]):
            checks.append(f"{name}: elimination basis differs from the frozen one")
        roots = report["roots"]
        if len(roots) != len(frozen["roots"]):
            checks.append(f"{name}: {len(roots)} roots, expected {len(frozen['roots'])}")
            continue
        enclosures = sorted(
            (Fraction(r["interval"][0]), Fraction(r["interval"][1])) for r in roots
        )
        for (lo, hi), value in zip(enclosures, sorted(map(Fraction, frozen["roots"]))):
            if not lo <= value <= hi:
                checks.append(f"{name}: enclosure [{lo}, {hi}] misses root {float(value)}")
    if len(lines) < FROZEN["classify_oracle_lines"]:
        checks.append(f"{len(lines)} oracle lines, expected {FROZEN['classify_oracle_lines']}")
    return oracle, checks


# ---------------------------------------------------------------------------
# mu_sweep: square, kite and rectangle drivers at seeded circulations
# ---------------------------------------------------------------------------


def _small_rational(rng):
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.randint(1, 9))


# A collision point (mu2 + 2 mu3 = 0) where ``run_kite`` counts the r = 0
# collision (theta2 = pi = theta3) as a kite and fails its own
# root_count_even_and_bounded check: a known program defect.
COLLISION_MU = (Fraction(5, 9), Fraction(4, 9), Fraction(-2, 9), Fraction(4, 9))


def mu_points(seed):
    """Circulations (mu1, mu2, mu3, mu2) with nonzero entries n/d, |n| <= 9,
    1 <= d <= 9, leaving out the collision points mu2 + 2 mu3 = 0 (about
    1.2 % of the grid), on which ``run_kite`` fails; see COLLISION_MU."""
    rng = _rng("mu_sweep", seed)
    while True:
        mu1, mu2, mu3 = (_small_rational(rng) for _ in range(3))
        if mu2 + 2 * mu3:
            yield (mu1, mu2, mu3, mu2)


def collision_kite_failures():
    """Names of the oracle checks ``run_kite`` fails at COLLISION_MU, and its
    root count there; no failures once the defect is fixed."""
    from vortexsym.scenarios import run_kite

    report = run_kite(mus=COLLISION_MU)
    return [c.name for c in report.failures()], len(report.roots)


def _kite_factor_at(mus):
    """Ascending coefficients in r of the frozen kite configuration factor
    specialised at ``mus``, in the benchmark's own exact arithmetic."""
    coeffs = {}
    for exps, coeff in FROZEN["kite_config_factor"]:
        value = Fraction(coeff)
        for mu, e in zip(mus, exps[1:]):
            value *= mu**e
        coeffs[exps[0]] = coeffs.get(exps[0], 0) + value
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divmod(a, b):
    """Quotient and remainder of ascending coefficient lists over Q."""
    a, b = _trim(a), _trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _trim(a[:-1])
    return q, a


def _squarefree(coeffs):
    """f / gcd(f, f'): same real roots as f, each simple."""
    a, b = _trim(coeffs), _trim([k * c for k, c in enumerate(coeffs)][1:])
    while b:
        a, b = b, _divmod(a, b)[1]
    return _divmod(coeffs, a)[0]


def check_kite_roots(mus, roots):
    """Each kite enclosure must bracket a sign change of the squarefree part
    of the specialised configuration factor, or be an exact root of it."""
    coeffs = _squarefree(_kite_factor_at(mus))
    problems = []
    for root in roots:
        lo, hi = (Fraction(x) for x in root.interval)
        flo, fhi = _eval(coeffs, lo), _eval(coeffs, hi)
        if lo == hi:
            ok = flo == 0
        else:
            ok = lo < hi and flo * fhi < 0
        if not ok:
            problems.append(f"kite enclosure [{lo}, {hi}] has no sign change at mu = {mus}")
    return problems


def run_mu_point(mus):
    """One mu_sweep op: the square, kite and rectangle reports at ``mus``."""
    from vortexsym.scenarios import run_kite, run_rectangle, run_square

    return [run_square(mus=mus), run_kite(mus=mus), run_rectangle(mus=mus)]


def check_mu_point(mus, reports):
    """(oracle failures, check failures) of one mu_sweep op."""
    oracle = [f"{r.scenario}: {c.name}" for r in reports for c in r.failures()]
    return oracle, check_kite_roots(mus, reports[1].roots)


# ---------------------------------------------------------------------------
# real_count: Hermite counting on systems with a known answer
# ---------------------------------------------------------------------------

_NVARS = 3


def _pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _padd(a, b, scale=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _const(c):
    return {(0,) * _NVARS: c} if c else {}


def _unimodular(rng):
    """L * U with unit triangular L, U and off-diagonal entries in {-1, 1}:
    det 1, and every variable mixes into every row, so systems stay dense."""
    n = _NVARS
    low = [[1 if i == j else (rng.choice((-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def real_count_construction(rng):
    """Three univariate cubics, two unimodular matrices and the known answer.

    Each cubic in Y_i has three distinct integer roots (3 real) or one
    integer root times Y^2 + c with c > 0 (1 real).  Substituting
    Y = A (x, y, z) with A in SL3(Z) and mixing the generators by another
    unimodular matrix M keeps the solutions in bijection with the 27
    distinct roots of the cubics, so ``hermite_count`` must return
    (product of real counts, 27).
    """
    real = 1
    cubics = []  # ascending coefficients
    for _ in range(_NVARS):
        if rng.random() < 0.5:
            poly = [1]
            for a in rng.sample(range(-3, 4), 3):  # times (Y - a)
                poly = [(poly[k - 1] if k else 0) - a * (poly[k] if k < len(poly) else 0) for k in range(len(poly) + 1)]
            real *= 3
        else:
            a, c = rng.randint(-3, 3), rng.randint(1, 4)
            poly = [-a * c, c, -a, 1]  # (Y - a)(Y^2 + c)
        cubics.append(poly)
    return cubics, _unimodular(rng), _unimodular(rng), (real, 27)


def expand_system(cubics, A, M):
    """Generators (exponent tuple -> int dicts) of sum_j M_ij cubic_j(A_j . x)."""
    gens = []
    for coeffs, row in zip(cubics, A):
        y = {tuple(int(k == j) for k in range(_NVARS)): row[j] for j in range(_NVARS) if row[j]}
        acc, power = {}, _const(1)
        for c in coeffs:
            acc = _padd(acc, power, c)
            power = _pmul(power, y)
        gens.append(acc)
    mixed = []
    for row in M:
        acc = {}
        for w, g in zip(row, gens):
            acc = _padd(acc, g, w)
        mixed.append(acc)
    return mixed


def real_count_systems(seed):
    rng = _rng("real_count", seed)
    while True:
        cubics, A, M, expected = real_count_construction(rng)
        yield expand_system(cubics, A, M), expected


def run_real_count(system):
    """One real_count op: ``hermite_count`` of the generated ideal."""
    from vortexsym.groebner import Ideal
    from vortexsym.ratpoly import Poly, VarRegistry
    from vortexsym.realroots import hermite_count

    reg = VarRegistry(["x", "y", "z"])
    return hermite_count(Ideal.of(*(Poly(reg, g) for g in system[0])))


def check_real_count(system, pair):
    """(oracle failures, check failures) of one real_count op."""
    expected = system[1]
    return [], [] if pair == expected else [f"hermite_count gave {pair}, constructed {expected}"]
