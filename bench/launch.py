"""Run one goalevo CLI command in this process and report how it went.

    python3 bench/launch.py <result.json> <trace.npz | -> <goalevo arguments...>

The result file gets the CLOCK_MONOTONIC times at which the CLI call began
and ended, the exit code, and the peak resident memory of the largest of
this process and its waited-for children (the evolve pool's workers). With
a trace path, every public function of the program's layers is traced and
the spans are written there. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def own_peak_kib() -> int:
    """Peak resident memory of this process's own address space. Unlike
    ``ru_maxrss``, it does not carry over the parent's peak across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    result_path, trace_path, cli_args = argv[0], argv[1], argv[2:]
    from goalevo import cli

    recorder = None
    if trace_path != "-":
        sys.path.insert(0, str(HERE))
        from tracer import Recorder, install
        recorder = Recorder()
        install(recorder)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = cli.main(cli_args)
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    peak_kib = max(own_peak_kib(),
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if recorder is not None:
        recorder.save(Path(trace_path))
    Path(result_path).write_text(json.dumps(
        {"ready": ready, "done": done, "code": code, "peak_kib": peak_kib}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
