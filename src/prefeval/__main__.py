"""``python -m prefeval``: the ``prefeval`` command line."""

import sys

from .cli import main

sys.exit(main())
