"""Run ``python -m btdqos ARGS`` and record the process's own peak memory.

    python3 bench/child.py REPORT_PATH ARGS...

At exit the peak resident set (VmHWM in /proc/self/status, in KiB) is
written to REPORT_PATH.  VmHWM belongs to the address space created at exec,
so it counts only this command.  getrusage's ru_maxrss would not do: Linux
carries the high-water mark of the process that spawned the child across
exec, so a large benchmark process would show up in every command.
"""

import atexit
import os
import runpy
import sys


def _record_peak(path):
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(peak)


if __name__ == "__main__":
    atexit.register(_record_peak, sys.argv[1])
    del sys.argv[1]
    sys.path[0] = os.getcwd()  # as under ``python -m``
    runpy.run_module("btdqos", run_name="__main__", alter_sys=True)
