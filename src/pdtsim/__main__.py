"""`python -m pdtsim`: the same command as the installed `pdtsim` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
