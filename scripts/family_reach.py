"""How far into the oblivious family do we actually have to scan?

Two experiments:
  * smallest family index k whose member already isolates a given graph,
    well below the guaranteed scan bound;
  * sensitivity of that index to the (canonically lexicographic) edge
    numbering, probed by relabeling vertices at random.

Usage:
    python scripts/family_reach.py --max-n 8 --samples 40 --relabelings 10
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchiso import (  # noqa: E402
    enumerate_perfect_matchings,
    family_member,
    graph_from_edges,
    is_isolating,
)


def smallest_isolating_member(g, k_cap=100000):
    for k in range(2, k_cap + 1):
        if is_isolating(g, family_member(k, g.n, g.m)):
            return k
    return None


def relabel(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--relabelings", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'n':>3} {'m':>3} {'#PM':>5} {'k*':>6} {'k* range over relabelings':>28}")
    produced = 0
    while produced < args.samples:
        n = rng.choice([k for k in range(4, args.max_n + 1, 2)])
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < rng.uniform(0.3, 0.9)
        ]
        try:
            g = graph_from_edges(n, pairs)
        except ValueError:
            continue
        pms = enumerate_perfect_matchings(g)
        if len(pms) < 2:
            continue
        base = smallest_isolating_member(g)
        ks = sorted(
            smallest_isolating_member(relabel(g, rng))
            for _ in range(args.relabelings)
        )
        spread = f"[{ks[0]} .. {ks[-1]}]"
        print(f"{n:>3} {g.m:>3} {len(pms):>5} {base:>6} {spread:>28}")
        produced += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
