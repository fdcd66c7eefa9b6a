"""fan_out: replicates over the usable CPUs, with the serial loop's results and errors."""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from acg import _fanout, cli, sampler
from acg.errors import AcgError, RetriesExhausted


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    """Run the test as if the process could use one CPU, then two."""
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: request.param)
    return request.param


def _tagged(base, key):
    return base + key, os.getpid()


def _fails_at(bad, key):
    if key in bad:
        raise RetriesExhausted(f"key {key} failed")
    return key


def test_results_come_back_in_key_order(cpus):
    results = _fanout.fan_out(lambda key: _tagged(100, key), range(7))
    assert [value for value, _ in results] == list(range(100, 107))
    pids = [pid for _, pid in results]
    assert pids[:3] == [os.getpid()] * 3  # the first chunk runs here
    assert len(set(pids)) == cpus
    assert multiprocessing.active_children() == []


def test_no_keys_and_one_key_fork_nothing(monkeypatch):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: 2)
    assert _fanout.fan_out(lambda key: _tagged(0, key), []) == []
    assert _fanout.fan_out(lambda key: _tagged(0, key), [5]) == [(5, os.getpid())]


@pytest.mark.parametrize(
    "bad, message",
    [({3, 7}, "key 3 failed"), ({7, 8}, "key 7 failed"), ({0}, "key 0 failed")],
    ids=["both-chunks", "worker-chunk", "first-key"],
)
def test_the_first_failing_key_raises_as_in_the_serial_loop(cpus, bad, message):
    with pytest.raises(RetriesExhausted, match=f"^{message}$"):
        _fanout.fan_out(lambda key: _fails_at(bad, key), range(10))
    assert multiprocessing.active_children() == []


def _exits_at(key):
    if key == 3:
        os._exit(3)
    return key


def test_a_worker_that_dies_raises_an_acg_error(monkeypatch):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: 2)
    with pytest.raises(AcgError, match="exited without"):
        _fanout.fan_out(_exits_at, range(4))
    assert multiprocessing.active_children() == []


def _interrupted_at_0(key):
    if key == 0:
        raise KeyboardInterrupt
    time.sleep(30)
    return key


def test_an_interrupt_in_this_process_stops_the_workers(monkeypatch):
    # the first chunk runs here; its interrupt must terminate the worker, not wait out its 30 s
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _fanout.fan_out(_interrupted_at_0, [0, 1])
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def _kernel_resolved(key):
    return sampler._kernel.cache_info().currsize


def test_workers_inherit_the_resolved_kernel(monkeypatch):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: 2)
    sampler._kernel.cache_clear()
    assert _fanout.fan_out(_kernel_resolved, range(4)) == [1] * 4


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _run_cli(argv, out, capfd):
    """Exit code, stdout and stderr of one CLI run; capfd also sees what a forked worker writes."""
    code = cli.run([*argv, "--out-dir", str(out)])
    stdout, stderr = capfd.readouterr()
    return code, stdout.replace(str(out), "<out>"), stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--suite", "all", "--sizes", "100,300", "--reps", "8", "--n", "300", "--seed", "4"],
        ["configs", "count", "--config", "config.json", "--n", "300", "--samples", "5", "--seed", "4"],
    ],
    ids=["validate-all", "configs-count"],
)
def test_outputs_do_not_depend_on_the_cpu_count(argv, bal2_file, tmp_path, capfd, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"attachments": [{"node": 1, "parent": 0, "edge": "out"}]}')
    runs = []
    for n_cpus in (1, 2):
        monkeypatch.setattr(_fanout, "_usable_cpus", lambda n=n_cpus: n)
        out = tmp_path / f"out{n_cpus}"
        code, stdout, stderr = _run_cli([*argv, "--params", bal2_file], out, capfd)
        assert code == 0, stderr
        assert stderr == ""
        runs.append((_tree(out), stdout))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    assert runs[0][0]


def test_a_failing_replicate_is_an_error_line(cpus, bal2_file, tmp_path, capfd):
    # bal2 at odd n has an odd stub discrepancy, and delta -10 accepts only 0: every rep redraws out
    argv = ["validate", "--suite", "self-loops", "--n", "101", "--reps", "4", "--delta", "-10", "--seed", "1",
            "--params", bal2_file]
    code, stdout, stderr = _run_cli(argv, tmp_path / "out", capfd)
    assert code == 1
    assert stderr == "error: no acceptable node sequence in 1000 redraws\n"
    assert multiprocessing.active_children() == []


def test_generate_and_exact_never_load_multiprocessing(bal2_file, tmp_path):
    code = (
        "import sys, acg.cli; "
        f"acg.cli.run(['generate', '--params', {bal2_file!r}, '--n', '500', '--seed', '1', '--out-dir', {str(tmp_path)!r}]); "
        f"acg.cli.run(['exact', 'mean', '--params', {bal2_file!r}, '--margins', '1,2:1,2', '--type', '2,2', "
        f"'--out-dir', {str(tmp_path)!r}]); "
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
