"""``python -m chernweil``: the batch CLI of chernweil.cli."""

import sys

from .cli import main

sys.exit(main())
