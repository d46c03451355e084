"""Run one treecount CLI invocation in a fresh interpreter.

Usage: python3 perfbench/child.py TRACE ARG...

Runs ``treecount.cli.main(ARG...)``, the same as ``python -m treecount
ARG...``, and exits with the CLI's exit code.  At exit it writes one more
line to stderr: RESULT_MARK and a JSON object with the process's own peak
resident memory (``peak_kb``, VmHWM) and, when TRACE is 1, the spans of the
import of ``treecount.cli`` and of the calls into the six modules
(``trace``).  RUSAGE_CHILDREN cannot give the peak: on Linux a child's
ru_maxrss starts from its parent's resident size at fork, which is larger
here.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import sys
import time

RESULT_MARK = "perfbench-child-result "


def split_result(stderr: str) -> tuple[str, dict | None]:
    """The CLI's own stderr, and the result line parsed, if the child wrote one."""
    import json

    lines = stderr.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.startswith(RESULT_MARK):
            rest = lines[:index] + lines[index + 1:]
            return "".join(rest), json.loads(line[len(RESULT_MARK):])
    return stderr, None


def _peak_kb() -> int:
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM")))


def main() -> int:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    start = time.perf_counter()
    import treecount.cli

    imported = time.perf_counter()
    tracer = restore = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.record("cli.import", start, imported)
        restore = install(tracer)
    try:
        return treecount.cli.main(argv)
    finally:
        if restore:
            restore()
        import json

        result = {"peak_kb": _peak_kb(), "trace": tracer.dump() if tracer else None}
        sys.stderr.write(RESULT_MARK + json.dumps(result) + "\n")


if __name__ == "__main__":
    sys.exit(main())
