"""``python -m callsift``: the same command line as the ``callsift`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
