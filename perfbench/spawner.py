"""Runs CLI children one at a time for cli-pipe, and times them.

A child's peak RSS (ru_maxrss from wait4) includes its parent's peak at
spawn time, so the children are started from this small process and not
from the benchmark, which grows as it checks outputs.

Protocol: one JSON request per stdin line, {"argv": [...], "out": path,
"err": path}; the child's stdout is drained through a pipe into "out",
its stderr goes to "err".  One JSON reply per line on stdout with the
exit code, timings in seconds and the child's peak RSS in MB.  Stdin
closing ends the loop.  Only the standard library is imported.
"""

import json
import os
import sys
from time import perf_counter


def run(argv, out_path, err_path):
    read_end, write_end = os.pipe()
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(out_path, flags, 0o644)
    err = os.open(err_path, flags, 0o644)
    try:
        t0 = perf_counter()
        pid = os.posix_spawn(
            argv[0],
            argv,
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, write_end, 1),
                (os.POSIX_SPAWN_DUP2, err, 2),
                (os.POSIX_SPAWN_CLOSE, read_end),
            ],
        )
        os.close(write_end)
        write_end = None
        first = None
        # One reused buffer: reading into fresh bytes objects grows this
        # process's heap, and with it every later child's ru_maxrss.
        buf = bytearray(1 << 16)
        while size := os.readv(read_end, [buf]):
            if first is None:
                first = perf_counter()
            view = memoryview(buf)[:size]
            while view:
                view = view[os.write(out, view) :]
        eof = perf_counter()
        _, status, usage = os.wait4(pid, 0)
        end = perf_counter()
    finally:
        for fd in (read_end, write_end, out, err):
            if fd is not None:
                os.close(fd)
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "op_s": end - t0,
        "first_s": (first if first is not None else eof) - t0,
        "after_first_s": eof - first if first is not None else 0.0,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["out"], req["err"])), flush=True)


if __name__ == "__main__":
    main()
