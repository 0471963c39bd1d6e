"""Run one ``conveyor`` command with the per-layer tracer installed.

    python3 bench/cli_child.py TRACE.json <conveyor arguments...>

Writes the tracer's totals to TRACE.json and exits with the command's
exit code.  The cli workload's traced phase starts its commands this way.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    import conveyor.cli

    tracer = Tracer().install()
    try:
        return conveyor.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
