"""One benchmark session in a fresh process.

Imports perstrees from the checkout's `src/`, writes the workload's
inputs, runs its set-up commands, then repeats its timed commands
through `perstrees.cli.main` in-process (closed loop: one caller, each
command issued when the previous one returned) until the time budget
is spent, at least once. Writes one JSON result: set-up seconds since
the parent spawned this process, per-command seconds, errors and
artifact digests, `ru_maxrss`, and with tracing the span summary.

Run by `run.py`; not meant to be started by hand.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import sys
import time


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of timed commands")
    p.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic()")
    p.add_argument("--result", required=True)
    p.add_argument("--trace-file", default=None, help="trace and write spans here")
    p.add_argument("--small", action="store_true", help="shrunken inputs, for tests")
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import perstrees.cli as cli
    from workloads import WORKLOADS, CheckFailed

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"perstrees imported from {cli.__file__}, not from {src}")

    tracer = None
    run_cli = cli.main
    if args.trace_file:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        run_cli = tracer.wrap(cli.main, lambda a: "cli." + a[0][0])

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, small=args.small)
    for name, doc in workload.inputs.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    issued = itertools.count()

    def run(cmd):
        index = next(issued)
        if tracer:
            tracer.command = index
        error = None
        start = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = run_cli(list(cmd.argv))
            if code != 0:
                error = f"exit code {code}"
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        return {"command": cmd.argv[0], "kind": cmd.kind, "index": index,
                "seconds": time.perf_counter() - start, "error": error}

    def check(cmd, record):
        record["digests"] = {}
        for path, verify in cmd.artifacts:
            try:
                record["digests"][path] = _sha256(path)
                verify(path)
            except (OSError, ValueError, CheckFailed) as exc:
                record["error"] = record["error"] or f"{type(exc).__name__}: {exc}"
        return record

    setup = [run(cmd) for cmd in workload.setup]
    setup_s = time.monotonic() - args.spawned
    setup = [check(cmd, r) for cmd, r in zip(workload.setup, setup)]

    iterations = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        records = [run(cmd) for cmd in workload.timed]
        wall = time.perf_counter() - start
        records = [check(cmd, r) for cmd, r in zip(workload.timed, records)]
        iterations.append({"wall_s": wall, "commands": records})
        if time.perf_counter() - began + wall > args.budget:
            break

    result = {
        "setup_s": setup_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup": setup,
        "iterations": iterations,
    }
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        tracer.dump(args.trace_file)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
