"""One workload process: `softcone run CONFIG --output-dir OUT`, timed.

    python3 child.py ROOT CONFIG OUT MODE

MODE is `run` (untraced), `trace` (spans on, written to OUT/trace.json) or
`setup` (stop once the config is parsed).  softcone is imported from
ROOT/src.  The process writes OUT/timing.json with the monotonic clock
reading when the config was parsed and validated (the first study starts
right after), the reading when `softcone run` returned (report.json and the
CSVs written), its exit status and its peak resident memory.
"""
import json
import os
import sys
import time


class SetupDone(Exception):
    pass


def peak_rss_mb() -> float:
    # VmHWM is this process image's own high-water mark; getrusage's maxrss
    # can carry the parent's size across fork/exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(root: str, config: str, out: str, mode: str) -> int:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import softcone
    from softcone import cli

    if not os.path.abspath(softcone.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"softcone imported from {softcone.__file__}, not from {src}")
    tracer = None
    if mode == "trace":
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    marks = {}
    parse = cli.parse_config

    def timed_parse(path):
        cfg = parse(path)
        marks["t_parsed"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        return cfg

    cli.parse_config = timed_parse
    try:
        rc = cli.main(["run", config, "--output-dir", out])
    except SetupDone:
        rc = 0
    marks["t_end"] = time.monotonic()
    marks["rc"] = rc
    marks["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        with open(os.path.join(out, "trace.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(os.path.join(out, "timing.json"), "w") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
