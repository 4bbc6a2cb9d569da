"""The machine-format suite reports that tier-1 pins verbatim, with their timings stripped.

Run from the repository root, on the tree whose output is to be pinned,
to rewrite the golden files:

    PYTHONPATH=src python tests/suite_reports.py

A change that moves a report on purpose regenerates them and says which
lines changed and why.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

from cuntzsum.cli import main
from cuntzsum.mutations import ALL_MUTATIONS

GOLDEN = Path(__file__).parent / "golden"

# The default config and each mutation switch, by the name of their golden file.
SWITCHES = {"default": None, **{name: name for name in ALL_MUTATIONS}}


def machine_report(switch):
    """(exit code, the ``suite --format machine`` report with every ``seconds`` field removed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["suite", "--format", "machine", *(["--mutate", switch] if switch else [])])
    return code, re.sub(r'"seconds": [^,]*, ', "", out.getvalue())


def golden_path(name):
    return GOLDEN / f"suite-{name}.jsonl"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, switch in SWITCHES.items():
        code, report = machine_report(switch)
        if code != (1 if switch else 0):
            sys.exit(f"suite {name}: exit {code}")
        golden_path(name).write_text(report)
        print(golden_path(name))
