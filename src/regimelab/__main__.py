"""``python -m regimelab``: the same command line as the ``regimelab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
