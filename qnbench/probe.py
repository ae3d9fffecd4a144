"""Set-up probe: import qnbudget, load the config, build the first request.

    python3 qnbench/probe.py SRC_DIR -- ARGV...

run.py times this process from spawn to exit; that wall time, scaled to the
reference host speed, is `setup_s`.
"""

import sys

src, sep, *argv = sys.argv[1:]
if sep != "--":
    raise SystemExit("usage: probe.py SRC_DIR -- ARGV...")
sys.path.insert(0, src)

from qnbudget import BudgetRequest, default_config, load_config  # noqa: E402
from qnbudget.cli import build_parser  # noqa: E402

args = build_parser().parse_args(argv)
config = default_config() if args.config is None else load_config(args.config)
if args.command == "budget":
    BudgetRequest(config=config, band_hz=(args.fmin, args.fmax),
                  points=args.points, curves=tuple(args.curves.split(",")),
                  out_path=args.out, fmt=args.format)
