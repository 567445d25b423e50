"""``python -m ydde``: the ``ydde`` command line without an installed script."""

import sys

from .cli import main

sys.exit(main())
