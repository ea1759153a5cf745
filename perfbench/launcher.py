"""Runs `python -m dualtriad` jobs for run.py, one per request line.

Each request on standard input is a JSON object {"argv": [...], "timeout": s};
the job's standard output and error go to the two files named on the command
line, and the reply is one JSON line {"exit", "wall_s", "max_rss_kib"}.

Jobs are started from this small process rather than from run.py because
Linux reports a child's peak RSS as at least the RSS of the process that
started it, and run.py holds large reference triangles.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    out_path, err_path = sys.argv[1:3]
    for line in sys.stdin:
        request = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "dualtriad", *request["argv"]],
                                    stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"exit": proc.returncode, "wall_s": wall, "max_rss_kib": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
