"""``python -m crosscap_calc`` runs the crosscap-calc command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
