"""``python -m schurbott``: the command-line interface, as the ``schurbott`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
