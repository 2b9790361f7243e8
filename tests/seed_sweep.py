"""Run the Monte-Carlo experiments over many seeds and print how close each check came to failing.

Runs ``sde-estimators``, ``variational`` and ``complex-increments`` at their
defaults for every seed in a range (1 to 40 by default) through
``run_experiment``, and prints one line per check: the worst share of its
threshold over the seeds (``value / threshold`` for a ``<=`` check), or the
least value for a ``>=`` check, with the seed where it was reached and the
number of seeds that FAILed it::

    PYTHONPATH=src python tests/seed_sweep.py [--first 1] [--last 40]

It exits 1 if any seed FAILs a check.  The file name keeps pytest from
collecting it.
"""

import argparse
import sys

import numpy as np

from stochflow.experiments import EXPERIMENTS, run_experiment

NAMES = ("sde-estimators", "variational", "complex-increments")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=40)
    args = parser.parse_args()
    seeds = range(args.first, args.last + 1)
    failed = 0
    for name in NAMES:
        worst: dict = {}
        for seed in seeds:
            summary = run_experiment(name, dict(EXPERIMENTS[name].defaults), seed)["summary"]
            for check in summary["checks"]:
                if check["comparison"] == "<=":
                    score = check["value"] / check["threshold"]
                else:  # a lower bound: the least value is the worst
                    score = -check["value"]
                entry = worst.setdefault(check["name"], [-np.inf, None, 0, check["comparison"]])
                if score > entry[0]:
                    entry[:2] = score, seed
                entry[2] += not check["pass"]
        for check_name, (score, seed, fails, comparison) in worst.items():
            shown = f"worst share {score:.3f}" if comparison == "<=" else f"least value {-score:.4g}"
            print(f"{name} {check_name}: {shown} at seed {seed}; FAIL at {fails} of {len(seeds)} seeds")
            failed += fails
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
