"""`python -m reflbench`: the same command line as the `reflbench` entry point."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
