"""``python -m pwckit <command>``: the command line of the ``pwckit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
