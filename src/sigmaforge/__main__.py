"""`python -m sigmaforge ...`: the `sigmaforge` command without installing it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
