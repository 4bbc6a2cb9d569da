"""The CLI corpus that tier-1 replays verbatim: each argv with its exit code, stdout and stderr.

It covers the number-theory commands (`member`, `classify`, `lattice`,
`deltaH`, `delta`, `coassoc`, `counitlaws`) at components around 2^16
and from 12 to 2520, with inputs that exit 2.  Usage errors that
argparse reports are left out: their text depends on the Python version
and the terminal width.

Run from the repository root, on the tree whose output is to be pinned,
to rewrite the golden file:

    PYTHONPATH=src python tests/cli_corpus.py

A change that moves a record on purpose regenerates the file and lists
every changed record.
"""

import contextlib
import io
import json
from pathlib import Path

from cuntzsum.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli-corpus.jsonl"

ARGVS = [
    # 65535 = 3 * 5 * 17 * 257, 65536 = 2^16, 65537 and 65521 prime, 63001 = 251^2
    ["member", "--primes", "2", "--n", "65536"],
    ["member", "--primes", "3,5,17", "--n", "65535"],
    ["member", "--primes", "3,5,17,257", "--n", "65535"],
    ["member", "--coprimes", "2", "--n", "65537"],
    ["member", "--coprimes", "65537", "--n", "65537"],
    ["member", "--coprimes", "2", "--n", "65536"],
    ["member", "--primes", "65521", "--n", "65521"],
    ["member", "--coprimes", "251", "--n", "63001"],
    ["member", "--primes", "2,3,5,7", "--n", "2520"],
    ["member", "--primes", "2,3", "--n", "2520"],
    ["member", "--primes", "4", "--n", "12"],
    ["member", "--primes", "65536", "--n", "2"],
    ["member", "--primes", "2", "--n", "0"],
    ["member", "--primes", "2", "--n", "1000000000001"],
    ["classify", "--set", "primes:2,3", "--bound", "2520"],
    ["classify", "--format", "machine", "--set", "coprimes:2", "--bound", "65536"],
    ["classify", "--set", "list:1,2,4,8,16", "--bound", "16"],
    ["classify", "--set", "list:2,3,4,5,6,7,8,9,10,11,12", "--bound", "12"],
    ["classify", "--set", "list:1,2,3", "--bound", "12"],
    ["classify", "--format", "machine", "--set", "list:4,8,12", "--bound", "12"],
    ["classify", "--set", "primes:4", "--bound", "100"],
    ["classify", "--set", "list:0,1", "--bound", "10"],
    ["classify", "--set", "primes:2", "--bound", "100001"],
    ["lattice", "--f", "primes:2,3", "--g", "coprimes:5", "--bound", "2520"],
    ["lattice", "--f", "primes:2", "--g", "primes:2", "--bound", "65536"],
    ["lattice", "--f", "coprimes:3,257", "--g", "primes:2,3,5,17,257", "--bound", "65537"],
    ["lattice", "--f", "primes:2", "--g", "primes:3", "--bound", "0"],
    ["deltaH", "--primes", "2,3", "s(12,5)"],
    ["deltaH", "--coprimes", "2", "I(65535)"],
    ["deltaH", "--primes-powers", "2", "I(65536)"],
    ["deltaH", "--all", "--format", "machine", "s(2520,7)"],
    ["deltaH", "--primes", "6", "I(12)"],
    ["delta", "I(65537)"],
    ["delta", "s(65536,3)*s(65536,65535)^*"],
    ["delta", "--format", "machine", "I(65535) + [1/2] s(12,5)"],
    ["delta", "I(12)"],
    ["delta", "s(12,13)"],
    ["delta", "I(0)"],
    ["coassoc", "I(65536)"],
    ["coassoc", "s(2520,2519)*s(2520,7)^*"],
    ["coassoc", "I(65535) + s(12,5)"],
    ["coassoc", "I(963761198400)"],
    ["counitlaws", "I(65537)"],
    ["counitlaws", "s(2520,3) + [1/2] s(12,5)^*"],
    ["counitlaws", "s(3,"],
]


def record(argv):
    """The argv with the exit code, stdout and stderr of `cli.main` on it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_records():
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(record(argv), sort_keys=True) + "\n" for argv in ARGVS))
    print(GOLDEN)
