"""``python -m rankcrit ...`` runs the ``rankcrit`` command line (``rankcrit.cli.main``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
