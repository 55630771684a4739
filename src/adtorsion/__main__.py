"""``python -m adtorsion``: the same command line as the ``adtorsion`` script."""

from .cli import console

if __name__ == "__main__":
    console()
