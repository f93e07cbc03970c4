"""`python -m hfree`: the same command line as the `hfree` console script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
