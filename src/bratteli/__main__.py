"""``python -m bratteli``: the command-line front end in ``cli``."""
import sys

from .cli import main

sys.exit(main())
