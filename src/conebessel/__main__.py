"""`python -m conebessel`: the same command line as `conebessel`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
