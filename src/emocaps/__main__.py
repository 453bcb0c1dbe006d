"""`python -m emocaps`: the same command line as the `emocaps` script."""

from emocaps.cli import entry

if __name__ == "__main__":
    entry()
