"""``python -m hdivkit``: the ``hdivkit`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
