"""Run the saleval command line with one of the benchmark's probes installed.

usage: python3 cli_entry.py [--latency-file PATH | --trace-out PATH] [--speed-file PATH]
                            -- ARGS...

ARGS are passed to saleval.cli.main unchanged. --latency-file appends
"pair seconds" for every evaluate_pair call, pool workers included, one
per line; --trace-out records spans and counters and writes them as JSON
when the command returns; --speed-file writes the speed.kernel_seconds()
readings taken right before and right after the command, and the
seconds they took.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    named = dict(zip(opts[::2], opts[1::2]))
    if (
        len(opts) % 2
        or len(named) != len(opts) // 2
        or not set(named) <= {"--latency-file", "--trace-out", "--speed-file"}
        or {"--latency-file", "--trace-out"} <= set(named)
    ):
        print(__doc__, file=sys.stderr)
        return 2

    from saleval import cli

    import speed
    from tracer import LatencyProbe, Tracer

    speed_file = named.get("--speed-file")
    if speed_file:
        t0 = time.perf_counter()
        before = speed.kernel_seconds()
        spent = time.perf_counter() - t0
    if "--latency-file" in named:
        fd = os.open(named["--latency-file"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            with LatencyProbe(sink_fd=fd):
                code = cli.main(cli_args)
        finally:
            os.close(fd)
    elif "--trace-out" in named:
        tracer = Tracer()
        with tracer:
            code = cli.main(cli_args)
        tracer.dump(named["--trace-out"])
    else:
        code = cli.main(cli_args)
    if speed_file:
        t0 = time.perf_counter()
        after = speed.kernel_seconds()
        spent += time.perf_counter() - t0
        with open(speed_file, "w", encoding="utf-8") as f:
            f.write(f"{before!r} {after!r} {spent!r}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
