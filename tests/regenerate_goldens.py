"""Rewrite every file under ``tests/golden`` from the program.

    python tests/regenerate_goldens.py [OUT]

Each report is produced with the arguments CI compares it under, into OUT
(``tests/golden`` by default); ``groebner_in.txt``, the one input among
the golden files, is copied there.  Run it on ``tests/golden`` only when a
change to the reports is intended, and list every changed line in
CHANGES.md.  CI runs it into a temporary directory and compares that with
``tests/golden`` by ``diff -r``.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden"
GROEBNER_IN = GOLDEN / "groebner_in.txt"

# (golden file, vortexsym arguments before --json), as CI runs them
CLI_RUNS = (
    ("all_check_appendix.json", ["all", "--check-appendix", "--svg", "{out}/figures"]),
    ("trapezoid.json", ["trapezoid"]),
    ("kite_mu.json", ["kite", "--mu", "5/7,-3/4,2/9,-3/4"]),
    ("rectangle_mu.json", ["rectangle", "--mu", "2/3,-5/4,-2/3,5/4"]),
    *(
        (f"groebner_{name}.json", ["groebner", "--in", str(GROEBNER_IN), "--vars", "x,y,z", *case])
        for name, case in (
            ("lex", ["--order", "lex"]),
            ("grevlex", ["--order", "grevlex"]),
            ("eliminate_x", ["--eliminate", "x"]),
            ("eliminate_z_x", ["--eliminate", "z,x"]),
        )
    ),
)


def regenerate(out):
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for name, args in CLI_RUNS:
        argv = [a.format(out=out) for a in args] + ["--json", str(out / name)]
        subprocess.run([sys.executable, "-m", "vortexsym.cli", *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    if out.resolve() != GOLDEN:
        shutil.copyfile(GROEBNER_IN, out / GROEBNER_IN.name)
    sys.path[:0] = [str(SRC), str(TESTS)]
    from test_mu_reports import render_mu_reports

    (out / "mu_reports.json").write_text(render_mu_reports())


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
