"""``python -m tilted``: the ``tilted`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
