"""Run one osclab CLI job in-process under the layer tracer.

    python3 bench/traced_job.py SPANS.json -- <osclab arguments>

Installs the wrappers of ``layertrace`` before the job starts, calls
``osclab.cli.main`` with the arguments, writes the recorded spans,
counters and stability cell timings to SPANS.json, and exits with the
CLI's exit code.  osclab must be importable (PYTHONPATH=src).
"""

import json
import sys
from pathlib import Path

from layertrace import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_job.py SPANS.json -- <osclab arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import osclab.cli

    code = osclab.cli.main(argv[2:])
    Path(argv[0]).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
