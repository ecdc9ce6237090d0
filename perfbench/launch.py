"""Starts the benchmark's children for run.py, one at a time.

    python3 -S perfbench/launch.py

Linux charges a child, when it calls exec, with the resident-set high-water
mark of the process that spawned it, so ``RUSAGE_CHILDREN`` can never read
below the spawner's own size.  This process imports nothing beyond ``os``,
``sys``, ``time`` and ``resource``, and runs without ``site``, so it stays
far below any charcond child, and its ``RUSAGE_CHILDREN`` is the children's
true peak.

Protocol, one line each way per child: run.py writes
``STDOUT_PATH<TAB>ARG0<TAB>ARG1...``; this process answers ``pid PID`` once
the child has started, then ``done EXIT_CODE START END CPU PEAK_KB``
when it has exited, where START and END are ``perf_counter`` readings just
before the spawn and just after the exit, CPU is the child's user plus
system time from ``wait4``, and PEAK_KB is ``RUSAGE_CHILDREN`` over every
child so far.  EOF on stdin ends it.
"""

import os
import resource
import sys
from time import perf_counter


def main():
    devnull = os.open(os.devnull, os.O_RDWR)
    for line in sys.stdin:
        out_path, *argv = line.rstrip("\n").split("\t")
        out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, devnull, 0), (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_DUP2, devnull, 2)])
        os.close(out)
        print("pid", pid, flush=True)
        _, status, usage = os.wait4(pid, 0)
        end = perf_counter()
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print("done", os.waitstatus_to_exitcode(status), repr(start),
              repr(end), repr(usage.ru_utime + usage.ru_stime), peak,
              flush=True)


if __name__ == "__main__":
    main()
