"""`python -m ryser ...` runs the command line, as the `ryser` script does."""

import sys

from .cli import main

sys.exit(main())
