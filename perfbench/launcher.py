"""Traced stand-in for ``python -m qsearch.cli``.

    python3 perfbench/launcher.py SPANS_JSON TASK_ID MODE --config ... [cli args]

Times ``import qsearch``, installs the layer wrappers, calls
``qsearch.cli.main`` with the remaining arguments and writes the import
time, the spans and any absent layer names to SPANS_JSON. Exits with
the CLI's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, task = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    import qsearch.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.task = task
    tracer.install()
    try:
        code = qsearch.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as f:
            json.dump({"import_s": import_s, "absent": tracer.absent, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
