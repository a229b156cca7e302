"""`python -m lieforge`: the `lieforge` command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
