"""Runs gaborkit CLI jobs in one fresh process, one at a time.

The parent sends one JSON line per job ({"argv": [...]}) on stdin and gets
back one JSON line with the exit code, the wall time of the
``gaborkit.cli.main(argv)`` call and what the job printed.  The worker is
idle while the parent checks the job's output, so checking costs the
measured jobs nothing.  {"finish": true} ends the worker, which answers
with its peak resident memory and, when traced, the per-layer metrics.

Usage: python3 worker.py ROOT [--trace SPANS_PATH]
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(argv):
    root = os.path.abspath(argv[1])
    trace_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gaborkit
    import gaborkit.cli
    if not os.path.abspath(gaborkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"gaborkit imported from {gaborkit.__file__}, not {src}")

    tracer = None
    if trace_path:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    proto = sys.stdout
    clock = time.perf_counter
    jobs = 0
    csv_bytes = 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("finish"):
            break
        if tracer is not None:
            tracer.job_id = jobs
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                rc = gaborkit.cli.main(msg["argv"])
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            wall = clock() - t0
        if msg["argv"][0] == "zak-surface":
            csv_bytes += os.path.getsize(msg["out"])
        jobs += 1
        proto.write(json.dumps({"rc": rc, "wall": wall, "stdout": out.getvalue(),
                                "stderr": err.getvalue()}) + "\n")
        proto.flush()

    reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.arrays()
        reply["layers"] = layer_metrics(tracer.names, tracer.vias, spans,
                                        max(jobs, 1), csv_bytes)
        tracer.write(trace_path)
    proto.write(json.dumps(reply) + "\n")
    proto.flush()


if __name__ == "__main__":
    main(sys.argv)
