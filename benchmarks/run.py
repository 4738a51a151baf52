"""vortexsym benchmark: one closed-loop client, one process, seeded inputs.

    python3 benchmarks/run.py --workload classify|mu_sweep|real_count \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run of the same ops (see README.md).  Scratch files go to
``.bench_build/vortexsym/``.

Op times are reported normalised by a fixed reference kernel timed in short
warm bursts on the same CPU as the ops: a shared machine can drift by
20-40 % in speed over minutes, and the ratio of op time to reference time
cancels most of that drift.  Raw wall times are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "vortexsym")

SETUP_REPEATS = 11
OP_TIMEOUT_S = 150.0
# the traced run replays the ops of an untraced pass of this share of --seconds
TRACE_SHARE = 1 / 3
# One norm_s is a second on a machine where the reference kernel takes
# REF_NOMINAL_S (about its speed on a 2-vCPU Intel Xeon VM at 2.1 GHz).
REF_NOMINAL_S = 0.0003
# reference samples within this many seconds of an op normalise it
REF_HALFWIDTH_S = 5.0
# reference calls before each in-process op
REF_CALLS_PER_OP = 10
# while a classify process runs, the parent times this many reference
# calls every REF_INTERVAL_S seconds
REF_CALLS_PER_SAMPLE = 3
REF_INTERVAL_S = 0.1
# reference samples above this multiple of their median were preempted
REF_OUTLIER = 2.0


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing sources, import failure)."""


def _child_env(**extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({k: str(v) for k, v in extra.items()})
    return env


@dataclass
class OpRecord:
    """One attempted op: its input, timing, output and the problems found.

    An op that raises, times out or gives a wrong output has ``checks``; an
    op whose output is right but fails one of the program's own oracle
    checks has only ``oracle``.
    """

    item: object
    start: float
    seconds: float
    output: object
    oracle: list  # failures the program reports itself
    checks: list  # failures of the benchmark's own output checks

    @property
    def failed(self):
        return bool(self.oracle or self.checks)


# ---------------------------------------------------------------------------
# reference kernel: fixed pure-Python work that shares no code with vortexsym
# ---------------------------------------------------------------------------

_REF_RNG = random.Random(5)
_REF_A, _REF_B = (
    {
        tuple(_REF_RNG.randint(0, 6) for _ in range(3)): Fraction(
            _REF_RNG.randint(-50, 50), _REF_RNG.randint(1, 30)
        )
        for _ in range(8)
    }
    for _ in range(2)
)


def _reference_kernel():
    """Sparse product of two fixed polynomials over Q: the same mix of dict,
    tuple and Fraction work as the program's kernels, short enough (about
    0.3 ms) to finish within one scheduler time slice."""
    out = {}
    for ma, ca in _REF_A.items():
        for mb, cb in _REF_B.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + ca * cb
    return out


def sample_reference(refs, calls):
    """Append (start, seconds) of ``calls`` reference-kernel runs to ``refs``,
    after one untimed call that warms the caches."""
    _reference_kernel()
    for _ in range(calls):
        start = time.perf_counter()
        _reference_kernel()
        refs.append((start, time.perf_counter() - start))


def reference_mean(values):
    """Mean reference time, leaving out samples above REF_OUTLIER times the
    median: those calls were preempted.  The machine's slow phases make a
    call at most about 1.8 times as slow as its fast phases, so they stay
    in, and the mean follows the share of time spent in each, as an op's
    time does; a median would jump between the two phases."""
    values = list(values)
    limit = REF_OUTLIER * statistics.median(values)
    return statistics.mean(v for v in values if v <= limit)


def normalised_seconds(records, refs):
    """Each op's wall time scaled by REF_NOMINAL_S over the reference mean
    of the samples taken within REF_HALFWIDTH_S of the op."""
    out = []
    for rec in records:
        lo, hi = rec.start - REF_HALFWIDTH_S, rec.start + rec.seconds + REF_HALFWIDTH_S
        near = [dt for t, dt in refs if lo <= t <= hi] or [dt for _, dt in refs]
        out.append(rec.seconds * REF_NOMINAL_S / reference_mean(near))
    return out


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter importing the CLI and the scenarios
# ---------------------------------------------------------------------------


def measure_setup():
    """Median over SETUP_REPEATS fresh interpreters of the time to start and
    import the CLI and the scenarios, each normalised like an op by the
    reference bursts just before and after it: in raw seconds the median
    drifted by up to 40 % between ten-seed sets, with the machine's speed."""
    argv = [sys.executable, "-c", "import vortexsym.cli, vortexsym.scenarios"]
    times = []
    for k in range(SETUP_REPEATS + 1):  # the first run may compile bytecode
        refs = []
        sample_reference(refs, REF_CALLS_PER_OP)
        start = time.perf_counter()
        done = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        sample_reference(refs, REF_CALLS_PER_OP)
        if done.returncode != 0:
            raise BenchmarkError("cannot import vortexsym:\n" + done.stderr.decode(errors="replace"))
        if k:
            times.append(elapsed * REF_NOMINAL_S / reference_mean(dt for _, dt in refs))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# in-process workloads: mu_sweep and real_count
# ---------------------------------------------------------------------------


def _attempt(op, check, item):
    """Time ``op(item)``; then, outside the timed region, check its output."""
    start = time.perf_counter()
    try:
        output = op(item)
    except Exception as err:  # an op that raises fails the run's checks
        elapsed = time.perf_counter() - start
        return OpRecord(item, start, elapsed, None, [], [f"raised {type(err).__name__}: {err}"])
    elapsed = time.perf_counter() - start
    oracle, checks = check(item, output)
    return OpRecord(item, start, elapsed, output, oracle, checks)


def closed_loop(inputs, op, check, seconds, refs, keep_outputs):
    """Run ops back to back, starting new ones until ``seconds`` have passed;
    REF_CALLS_PER_OP reference-kernel samples precede each op.  Outputs are
    dropped unless kept for a traced replay, so memory does not grow with
    the number of ops."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sample_reference(refs, REF_CALLS_PER_OP)
        rec = _attempt(op, check, next(inputs))
        if not keep_outputs:
            rec.output = None
        records.append(rec)
    return records, time.perf_counter() - start


def _fingerprint(output):
    """Comparable form of an op's output, for traced == untraced."""
    if isinstance(output, list):
        return [r.to_document() for r in output]
    return output


def overhead_ratio(untraced, traced, refs):
    """Traced over untraced op time, each normalised by the reference
    samples near it, so that drift in machine speed between the two passes
    does not show as tracer overhead."""
    return sum(normalised_seconds(traced, refs)) / sum(normalised_seconds(untraced, refs))


def traced_replay(records, op, check, refs):
    """Re-run the ops of ``records`` under the tracer; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer().install()
    traced = []
    try:
        for i, rec in enumerate(records):
            sample_reference(refs, REF_CALLS_PER_OP)

            def traced_op(item, i=i):
                with tracer.op(i):
                    return op(item)

            traced.append(_attempt(traced_op, check, rec.item))
    finally:
        tracer.uninstall()
    for rec, again in zip(records, traced):
        if _fingerprint(rec.output) != _fingerprint(again.output):
            again.checks.append("traced output differs from the untraced output")
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, "spans.jsonl"))
    layer = tracer.summary()
    layer["trace.overhead_ratio"] = (overhead_ratio(records, traced, refs), "ratio")
    return traced, layer


def run_in_process(workload, seed, seconds, trace):
    import workloads

    import vortexsym.cli  # noqa: F401  (load the program before timing)
    import vortexsym.scenarios  # noqa: F401

    if workload == "mu_sweep":
        inputs, op, check = workloads.mu_points(seed), workloads.run_mu_point, workloads.check_mu_point
        try:
            failing, roots = workloads.collision_kite_failures()
            outcome = f"gives {roots} roots and fails {', '.join(failing) or 'no check'}"
        except Exception as err:  # a fix may reject collision points outright
            outcome = f"raises {type(err).__name__}: {err}"
        mus = ", ".join(map(str, workloads.COLLISION_MU))
        print(f"known program defect, kept out of the sweep: run_kite at mu ({mus}) {outcome}")
    else:
        inputs, op, check = (
            workloads.real_count_systems(seed), workloads.run_real_count, workloads.check_real_count
        )
    refs = []
    if not trace:
        records, wall = closed_loop(inputs, op, check, seconds, refs, False)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return records, wall, rss_mb, refs, None
    records, wall = closed_loop(inputs, op, check, seconds * TRACE_SHARE, refs, True)
    traced, layer = traced_replay(records, op, check, refs)
    return records + traced, wall, None, refs, layer


# ---------------------------------------------------------------------------
# classify: one fresh CLI process per op
# ---------------------------------------------------------------------------


def _wait_child(proc, timeout, refs):
    """Wait for ``proc`` with os.wait4, so its own peak RSS is known; kill
    it after ``timeout`` seconds.  Returns (exit code, peak RSS in MB,
    whether it timed out).

    Meanwhile time a warm burst of the reference kernel every
    REF_INTERVAL_S, so the samples see the machine's speed over the whole
    op.  The scheduler wakes the parent on the child's CPU; the untimed
    first call of each burst refills the caches the child has used, so the
    timed calls do not measure the child's memory traffic.
    """
    deadline = time.perf_counter() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        sample_reference(refs, REF_CALLS_PER_SAMPLE)
        time.sleep(REF_INTERVAL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, timed_out


def classify_op(argv, hash_seed, tag, refs):
    """One ``all --check-appendix --json`` process, as an OpRecord whose
    output is (stdout, JSON text), and the child's peak RSS in MB."""
    import workloads

    os.makedirs(OUT, exist_ok=True)
    json_path = os.path.join(OUT, f"classify-{tag}.json")
    stdout_path = os.path.join(OUT, f"classify-{tag}.out")
    if os.path.exists(json_path):
        os.remove(json_path)
    cli = ["all", "--check-appendix", "--json", json_path]
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv + cli, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
            env=_child_env(PYTHONHASHSEED=hash_seed),
        )
        code, rss_mb, timed_out = _wait_child(proc, OP_TIMEOUT_S, refs)
        elapsed = time.perf_counter() - start
    with open(stdout_path) as handle:
        stdout = handle.read()
    raw = document = None
    if os.path.exists(json_path):
        with open(json_path) as handle:
            raw = handle.read()
        try:
            document = json.loads(raw)
        except ValueError:
            pass  # check_classify reports every scenario as missing
    oracle, checks = workloads.check_classify(code, stdout, document)
    if timed_out:
        checks.insert(0, f"killed after {OP_TIMEOUT_S:g} s")
    return OpRecord(hash_seed, start, elapsed, (stdout, raw), oracle, checks), rss_mb


def run_classify(seed, seconds, trace):
    import workloads

    plain = [sys.executable, "-m", "vortexsym.cli"]
    hash_seeds = workloads.classify_hash_seeds(seed)
    records, refs, peak = [], [], 0.0
    start = time.perf_counter()
    if not trace:
        while time.perf_counter() - start < seconds:
            rec, rss_mb = classify_op(plain, next(hash_seeds), len(records), refs)
            records.append(rec)
            peak = max(peak, rss_mb)
        return records, time.perf_counter() - start, peak, refs, None
    hash_seed = next(hash_seeds)
    untraced, _ = classify_op(plain, hash_seed, "untraced", refs)
    summary_path = os.path.join(OUT, "classify-summary.json")
    traced_argv = [
        sys.executable, os.path.join(HERE, "traced_cli.py"),
        summary_path, os.path.join(OUT, "spans.jsonl"), "--",
    ]
    traced, _ = classify_op(traced_argv, hash_seed, "traced", refs)
    if traced.output != untraced.output:
        traced.checks.append("traced output differs from the untraced output")
    layer = {}
    if os.path.exists(summary_path):
        with open(summary_path) as handle:
            layer = {k: tuple(v) for k, v in json.load(handle).items()}
    layer["trace.overhead_ratio"] = (overhead_ratio([untraced], [traced], refs), "ratio")
    return [untraced, traced], time.perf_counter() - start, None, refs, layer


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def result(records, refs, setup_s, rss_mb, layer):
    """The JSON result of a run.  ``correct`` is false when any op raised,
    timed out or gave a wrong output; the program's own oracle failures
    count in ``failed`` only.  Throughput and median op time count only the
    ops that passed the benchmark's checks."""
    passed = [not r.checks for r in records]
    if layer is None:
        norm = normalised_seconds(records, refs)
        good = [n for n, ok in zip(norm, passed) if ok]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_norm_s": (len(good) / sum(norm), "1/norm_s"),
            "op_p50_norm_s": (statistics.median(good or norm), "norm_s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = layer
    return {
        "correct": all(passed),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(workload, records, wall, rss_mb, refs, setup_s, layer):
    res = result(records, refs, setup_s, rss_mb, layer)
    attempted, failed = res["attempted"], res["failed"]
    problems = [p for r in records for p in r.checks + r.oracle]
    for p in problems[:20]:
        print(f"{workload}: {p}", file=sys.stderr)
    durations = sorted(r.seconds for r in records)
    print(f"workload {workload}: {attempted} ops, {failed} failed")
    print(f"  fail_ratio = {failed / attempted:.6f} ({failed}/{attempted})")
    if layer is None:
        ref_mean = reference_mean(dt for _, dt in refs)
        print(f"  ops_per_s = {attempted / wall:.6g} 1/s (raw wall time)")
        print(f"  op_p50_s = {statistics.median(durations):.6g} s (raw, n = {attempted})")
        if attempted >= 100:  # at least ten samples beyond p90
            print(f"  op_p90_s = {statistics.quantiles(durations, n=10)[-1]:.6g} s (raw)")
        print(f"  reference_kernel_s = {ref_mean:.6g} s (mean of {len(refs)} without outliers; nominal {REF_NOMINAL_S})")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify", "mu_sweep", "real_count"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "vortexsym", "__init__.py")):
        print(f"error: no vortexsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    try:
        setup_s = None if args.trace else measure_setup()
        if args.workload == "classify":
            outcome = run_classify(args.seed, args.seconds, args.trace)
        else:
            outcome = run_in_process(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report(args.workload, *outcome[:4], setup_s, outcome[4])
    return 0


if __name__ == "__main__":
    sys.exit(main())
