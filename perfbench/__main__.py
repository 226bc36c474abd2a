"""``python -m perfbench [run|compare|selfcheck] ...`` — same as ``perfbench/run.py``."""

import sys

from perfbench.run import main

sys.exit(main())
