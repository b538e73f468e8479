"""Set-up of one fresh process, timed from outside by run.py.

Imports numpy, scipy and eitfwm, then builds the run config of one CLI
invocation the way ``cli.main`` does, and exits without running it.

    python3 perfbench/setup_probe.py SRC_DIR -- CLI_ARGS...
"""

import sys

src, sep, *cli_args = sys.argv[1:]
if sep != "--":
    sys.exit("usage: setup_probe.py SRC_DIR -- CLI_ARGS...")
sys.path.insert(0, src)

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
from eitfwm import cli  # noqa: E402

ns = cli.build_parser().parse_args(cli_args)
with open(ns.config) as fh:
    rc = cli.parse_config(fh.read())
rc.params.validate()
