"""`python -m chdiv`: the chdiv command."""

import sys

from .cli import main

sys.exit(main())
