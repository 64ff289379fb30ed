"""`python -m hultman`: the `hultman` command line."""
import sys

from .cli import main

sys.exit(main())
