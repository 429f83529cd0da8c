"""One semitb CLI run in its own interpreter, as a user runs it.

Usage (from run.py):
    python3 perfbench/child.py --ini RUN.ini --result OUT.json
        [--trace] [--setup-only] -- <semitb cli arguments>

The child imports `semitb.cli` and parses the INI, stamps the monotonic
clock (the parent stamped it just before spawning, so the difference is
the set-up time), then calls `semitb.cli.main` with the given arguments.
With --trace the layers are wrapped first.  The result file holds the
stamps, the exit code, peak resident memory, the BLAS thread counts this
process sees and, when traced, the per-layer summary.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time

# thread-count getters of the OpenBLAS builds numpy and scipy ship
_BLAS_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_")


def peak_rss_mb() -> float:
    """High-water resident set of this process after exec (VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS library, by file name."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_GETTERS:
            if hasattr(lib, sym):
                out[path.rsplit("/", 1)[-1]] = int(getattr(lib, sym)())
                break
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--ini", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)

    import semitb.cli as cli

    cli.parse_config(args.ini)
    record = {"t_setup": time.monotonic()}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        cli_args = [a for a in args.cli_args if a != "--"]
        record["exit_code"] = cli.main(cli_args)
        record["t_end"] = time.monotonic()
        if tracer is not None:
            record["layers"] = tracer.summary()

    import numpy
    import scipy
    import semitb

    record.update({
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
        "semitb_file": semitb.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
