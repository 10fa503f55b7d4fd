"""One traced pdl call: pointdyn.cli.main(argv) in a fresh process.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/cli_child.py <pdl argv...>
The report main() prints is captured; one JSON line on stdout carries
the exit code, the report, whether main raised, the import time and the
tracer's aggregates and spans.
"""

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stdout

t0 = time.perf_counter()
import pointdyn.cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracing  # noqa: E402  (perfbench/ is this script's directory)

tracer = tracing.Tracer(max_spans=20_000)
tracer.install()
buf = io.StringIO()
raised = None
with redirect_stdout(buf):
    try:
        code = pointdyn.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught exception is what pdl would print
        raised = traceback.format_exc()
        code = 1
print(json.dumps({"exit": code, "stdout": buf.getvalue(), "raised": raised,
                  "import_s": import_s, "agg": tracer.aggregates(),
                  "spans": tracer.spans(), "dropped": tracer.dropped}),
      file=sys.__stdout__)
