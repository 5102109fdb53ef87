"""Run one ircur CLI command in this process with the timing shims installed.

    python bench/traced_cli.py SPANS.json solve data.bin --rank 5 ...

Everything after the spans path is passed to ``ircur.cli.main``; the spans
are written to SPANS.json when the command ends, and its exit code is kept.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from shims import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ircur.cli  # loads every ircur module the command can reach

    tracer = Tracer()
    tracer.install()
    try:
        return ircur.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
