"""Pay a workload's set-up once in a fresh interpreter, then exit.

Set-up is everything a workload pays before its first replicate or bound
term: importing `cltlab.cli`, resolving each invocation's config, and
building every grid point's model together with its `moments()`.  The
caller times this process from spawn to exit.

Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import sys

from cltlab import cli
from cltlab.models import ModelSpec, make_model

from workloads import WORKLOADS


def main(workload: str, seed: int) -> None:
    for inv in WORKLOADS[workload]:
        if inv.command == "verify-ce":
            args = cli.build_parser().parse_args(inv.argv(seed, "unused"))
            specs = [ModelSpec(family="ce_lowerbound", n=n, p=args.p, params={}) for n in inv.grid]
        else:
            cfg = cli.resolve_config(cli.build_parser().parse_args(inv.argv(seed, "unused")))
            specs = [cfg.spec_for(n) for n in cfg.n_grid]
        for spec in specs:
            make_model(spec).moments()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
