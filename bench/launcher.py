"""Starts the benchmark's CLI children: `python3 -I -S bench/launcher.py`.

Each stdin line is tab-separated: a timeout in seconds, a stdout file, a
stderr file, then the child's argv (argv[0] an absolute path).  The reply
line is "exit_code wall_s maxrss_kb"; the wall time runs from the spawn
until the child's exit is reaped.

A child's ru_maxrss starts from the high-water RSS of the process that
spawned it, so children are started by this small helper, which imports
nothing beyond built-in modules, and never by the benchmark process.
"""

import os
import signal
import sys
import time


def main() -> None:
    running = [0]

    def kill(signum, frame):
        if running[0]:
            try:
                os.kill(running[0], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        timeout, out_path, err_path, *argv = line.rstrip("\n").split("\t")
        out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_fd, 1),
            (os.POSIX_SPAWN_DUP2, err_fd, 2),
        ]
        t0 = time.perf_counter()
        running[0] = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
        _, status, usage = os.wait4(running[0], 0)
        wall = time.perf_counter() - t0
        running[0] = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
        os.close(out_fd)
        os.close(err_fd)
        print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss, flush=True)


if __name__ == "__main__":
    main()
