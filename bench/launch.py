"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 bench/launch.py STDOUT_FILE STDERR_FILE COMMAND [ARG ...]

run.py starts every CLI run through this small process.  On Linux a
process's peak RSS starts from the peak of the process that spawned it, so
a CLI started straight from run.py, which holds the generated ledgers,
would seem at least as large as run.py.  This launcher stays small, and it
times the command from spawn to exit without its own start-up.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    stdout_path, stderr_path, *command = sys.argv[1:]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "exit": proc.returncode,
                      "peak_rss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
