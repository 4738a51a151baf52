"""fork_call: results, errors and reaping of the forked lane, and the CLI's
two-lane ``all`` command against the serial order of reports and errors."""

import os
import signal
import threading

import pytest

from vortexsym import cli
from vortexsym.fork import can_fork, fork_call
from vortexsym.scenarios import run_trapezoid
from vortexsym.scenarios.report import ScenarioReport
from vortexsym.scenarios.trapezoid import IdealShapeError

needs_fork = pytest.mark.skipif(not can_fork(), reason="fork_call runs in-process here")


@pytest.fixture
def deadline():
    """Fail a test that hangs, instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("test did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def second_thread():
    """A live thread, which makes fork_call run its call in-process."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def raise_ideal_shape_error(text):
    raise IdealShapeError(text)


@needs_fork
def test_result_comes_back_from_a_child(deadline):
    join = fork_call(os.getpid)
    assert join() != os.getpid()
    assert fork_call(divmod, 17, 5)() == (3, 2)
    assert no_children_left()


@needs_fork
def test_typed_error_in_the_child_is_raised_in_the_parent(deadline):
    join = fork_call(raise_ideal_shape_error, "no pure power of mu1")
    with pytest.raises(IdealShapeError, match="no pure power of mu1"):
        join()
    assert no_children_left()


@needs_fork
def test_child_that_dies_without_writing_raises(deadline):
    join = fork_call(os._exit, 3)
    with pytest.raises(ChildProcessError, match="3"):
        join()
    assert no_children_left()


def test_with_another_thread_the_call_runs_in_process(deadline, second_thread):
    join = fork_call(os.getpid)
    assert join() == os.getpid()
    with pytest.raises(IdealShapeError):
        fork_call(raise_ideal_shape_error, "in-process")()


def test_on_one_cpu_the_call_runs_in_process(deadline, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not can_fork()
    assert fork_call(os.getpid)() == os.getpid()


def test_in_process_trapezoid_equals_the_forked_one(deadline, trapezoid_report, second_thread):
    serial = run_trapezoid(check_appendix=True)
    assert serial.to_document() == trapezoid_report.to_document()


def test_all_matches_golden_file_through_the_cli(deadline, tmp_path, capsys):
    out = tmp_path / "all.json"
    code = cli.main(["all", "--check-appendix", "--json", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    golden = os.path.join(os.path.dirname(__file__), "golden", "all_check_appendix.json")
    with open(golden) as handle:
        assert out.read_text() == handle.read()
    headers = [line for line in stdout.splitlines() if line.startswith("== ")]
    assert headers == [f"== {name} ==" for name in cli.SCENARIO_ORDER]
    if can_fork():
        assert no_children_left()


@pytest.mark.parametrize("failing", cli.SCENARIO_ORDER)
def test_all_stops_at_the_first_scenario_error(failing, deadline, capsys, monkeypatch):
    # the serial order: the reports before the failing scenario, then its
    # error on stderr, and exit code 2
    def fail(**kwargs):
        raise ValueError(f"{failing} refuses")

    if failing != "trapezoid":  # keep the parent's lane short
        monkeypatch.setattr(cli, "run_trapezoid", lambda **kwargs: ScenarioReport("trapezoid"))
    monkeypatch.setattr(cli, f"run_{failing}", fail)
    code = cli.main(["all"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {failing} refuses\n"
    before = cli.SCENARIO_ORDER[: cli.SCENARIO_ORDER.index(failing)]
    headers = [line for line in captured.out.splitlines() if line.startswith("== ")]
    assert headers == [f"== {name} ==" for name in before]
    if can_fork():
        assert no_children_left()
