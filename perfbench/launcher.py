"""Starts program processes for run.py and reports each one's wait4 record.

Linux starts a child's peak-RSS record (`ru_maxrss`) from its parent's
memory at fork or vfork, so a child of the benchmark process would report
at least the benchmark's own size. This process stays small, and every
program process is its child, so each `ru_maxrss` is the program's own.

Right before each process it times reference.measure(), a fixed unit of
work, so that run.py can tell how fast the machine was at that moment.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}
and one JSON reply per line on stdout,
    {"wall": s, "cpu": s, "maxrss_kb": n, "exit": code, "ref_wall": s, "ref_cpu": s}.
A child still running after `timeout` seconds is killed. The launcher ends
at end of input.
"""

import json
import os
import select
import signal
import sys
import time

import reference

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _reap(pid: int, timeout: float):
    """Wait for one child up to `timeout`, kill it past that, return wait4's status and usage."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return status, usage


def run(request: dict) -> dict:
    argv = request["argv"]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], _FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], _FLAGS, 0o644),
    ]
    ref_wall, ref_cpu = reference.measure()
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        status, usage = _reap(pid, request["timeout"])
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    return {
        "wall": time.perf_counter() - started,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "ref_wall": ref_wall,
        "ref_cpu": ref_cpu,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
