#!/usr/bin/env python
"""Run the complete evaluation protocol and write EXPERIMENTS.md.

Evaluates the shipped checkpoints (run ``python examples/train_all.py``
first if ``artifacts/`` is empty) on every figure and in-text scalar of
the paper's evaluation section, and writes the paper-vs-measured report.
By default every figure runs at the paper's protocol size
(``repro.experiments.claims.SIZES``); ``--episodes``/``--rounds`` scale
it down.

Run:  python examples/reproduce_all.py [--episodes N] [--rounds R] [--out PATH]
"""

from __future__ import annotations

import argparse

from repro.experiments.claims import EPISODES, ROUNDS
from repro.experiments.report import generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=EPISODES)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()
    path = generate(args.out, episodes=args.episodes, rounds=args.rounds)
    print(f"report written to {path}")


if __name__ == "__main__":
    main()
