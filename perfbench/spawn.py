"""A small server that starts the benchmark's CLI calls, so each reports its own peak RSS.

Usage: python3 -S perfbench/spawn.py

When a process execs, Linux carries the high-water RSS of the memory map
it leaves into the new program's ru_maxrss, and a child that subprocess
starts with vfork execs from inside its parent's map. A CLI call started
straight from the benchmark, which holds numpy, scipy and its reference
arrays, would therefore report the benchmark's peak as its own. Started
from this server, which loads only the standard library, a call's
ru_maxrss is its own.

Each line on standard input is a JSON list [stderr_file, timeout_s,
program, args...]. For each, the server runs the command to its end and
writes one line, "EXIT_CODE MAXRSS_KIB", or "timeout" when the command
ran past timeout_s and was killed. It stops at the end of its input.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys


def run_child(cmd: list, stderr_path: str, timeout: float) -> tuple[int, int]:
    """Run one process to its end: its exit code and its own peak RSS in KiB.

    ``os.wait4`` reaps exactly this process, so the RSS is this call's alone.
    SIGALRM bounds the wait; a process still running then is killed and reaped.
    """
    def expire(signum, frame):
        raise TimeoutError

    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)  # keeps Popen from waiting again
    return proc.returncode, usage.ru_maxrss


class Spawner:
    """The benchmark's side: starts the server and runs commands through it."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen([sys.executable, "-S", os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True, env=env)

    def run(self, cmd: list, stderr_path: str, timeout: float) -> tuple[int, str, int]:
        """Exit code, stderr tail and peak RSS in KiB of one command."""
        self._proc.stdin.write(json.dumps([stderr_path, timeout, *cmd]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if reply == ["timeout"]:
            raise TimeoutError(f"CLI call still running after {timeout:g} s")
        if len(reply) != 2:
            raise RuntimeError("the spawn server stopped; its traceback is on stderr")
        with open(stderr_path, errors="replace") as handle:
            tail = handle.read()[-300:]
        return int(reply[0]), tail, int(reply[1])

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main() -> int:
    for line in sys.stdin:
        stderr_path, timeout, *cmd = json.loads(line)
        try:
            code, maxrss_kib = run_child(cmd, stderr_path, timeout)
        except TimeoutError:
            print("timeout", flush=True)
            continue
        print(code, maxrss_kib, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
