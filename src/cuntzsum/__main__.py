"""``python -m cuntzsum``: the command-line front end of `cuntzsum.cli`."""

import sys

from .cli import console_main

if __name__ == "__main__":
    sys.exit(console_main())
