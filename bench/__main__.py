"""Entry point for ``python -m bench``."""

import sys

from .cli import main

sys.exit(main())
