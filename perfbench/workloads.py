"""Seeded workloads for the matchiso benchmark.

Each workload turns a seed into an endless, deterministic stream of operation
specs and runs one spec through matchiso's public entry points.  Graphs are
generated here, as edge-list text, without matchiso; the program receives
only that text.  Every operation gets a freshly drawn graph and the fixed
graphs run once per run, so an operation is almost never served from a
cache filled by an earlier one (a command-line user runs one process per
graph).  Warm-up specs come from a fixed stream of their own, never from
the timed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from itertools import combinations


@dataclass
class Spec:
    """One operation: CLI arguments plus the graph fed on stdin, or a corpus size."""

    argv: list[str]
    n: int = 0
    edges: list[tuple[int, int]] = field(default_factory=list)
    text: str = ""


@dataclass
class Outcome:
    rc: int
    stdout: str
    error: str | None = None


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def planted_graph(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Sorted edge list with exactly m edges on n vertices, n/2 of which
    form a perfect matching planted on a random pairing of the vertices.

    Fixing m rather than drawing each edge keeps the cost of graphs of one
    size close together, which keeps the per-run figures steady."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    planted = {tuple(sorted(perm[i : i + 2])) for i in range(0, n, 2)}
    rest = [uv for uv in combinations(range(1, n + 1), 2) if uv not in planted]
    return sorted(planted | set(rng.sample(rest, m - len(planted))))


def edges_at_density(n: int, p: float) -> int:
    """Planted matching plus a share p of the remaining vertex pairs."""
    return n // 2 + round(p * (n * (n - 1) // 2 - n // 2))


def complete_graph(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def cube_graph() -> list[tuple[int, int]]:
    return sorted(
        (a + 1, b + 1) for a in range(8) for b in range(a + 1, 8) if (a ^ b).bit_count() == 1
    )


def petersen_graph() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return sorted((min(a, b) + 1, max(a, b) + 1) for a, b in outer + inner + spokes)


def graph_spec(argv: list[str], n: int, edges: list[tuple[int, int]]) -> Spec:
    return Spec(argv + ["--graph", "-"], n, edges, graph_text(n, edges))


def run_cli(modules: dict, spec: Spec) -> Outcome:
    """matchiso.cli.main in this process, graph on stdin, report captured.

    The function is looked up on the module at call time, so a traced run
    sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(spec.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = modules["cli"].main(spec.argv)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return Outcome(-1, out.getvalue(), f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved_stdin
    return Outcome(rc, out.getvalue(), err.getvalue().strip() or None)


class Derand:
    """`isolate --derandomized` on planted graphs, n in {8, 10}, density
    0.2 to 0.6, after the fixed graphs cube, Petersen, K8, K10 and K12 (once
    per run, first).  Each round holds one graph per size and density in
    the grid below, shuffled, so every run draws the same mix; n = 10 is
    listed twice, so the median operation lies inside the n = 10 range
    rather than in the gap between the sizes.  The face machinery does most
    of the work; the certificate's final determinant search on large
    weights adds a tutte tail (K12, and n = 10 graphs whose certificate
    weights reach 11 to 14 bits: 0.2 to 7 s per operation).

    Larger random graphs stay out because of run length: at n = 12 and 14
    about one graph in 500 gets a certificate weight of 13 to 16 bits, and
    its final search (m + 1 determinants with entries up to 2^65536) takes
    15 s to several minutes, longer than a whole run."""

    name = "derand"
    argv = ["isolate", "--derandomized"]

    densities = (0.2, 0.3, 0.4, 0.5, 0.6)

    def __init__(self, sizes=(8, 10, 10), fixed=True):
        self.sizes, self.fixed = sizes, fixed

    def fixed_specs(self) -> list[Spec]:
        if not self.fixed:
            return []
        graphs = [(8, cube_graph()), (10, petersen_graph())]
        graphs += [(n, complete_graph(n)) for n in (8, 10, 12)]
        return [graph_spec(self.argv, n, edges) for n, edges in graphs]

    def stream(self, rng: random.Random):
        yield from self.fixed_specs()
        while True:
            cells = [(n, p) for n in self.sizes for p in self.densities]
            rng.shuffle(cells)
            for n, p in cells:
                yield graph_spec(self.argv, n, planted_graph(n, edges_at_density(n, p), rng))

    def warmup(self, rng: random.Random) -> list[Spec]:
        return [graph_spec(self.argv, n, planted_graph(n, edges_at_density(n, 0.4), rng))
                for n in self.sizes]

    run = staticmethod(run_cli)


class Search:
    """`search --random-weights` on planted graphs at density 0.3, one graph
    of each n in {16, 18, 20} per round.  Only the Tutte determinants work
    here: m + 1 Bareiss determinants per operation.  n = 22 and 24 (1 to
    1.5 s per operation) leave too few operations in a run for steady
    figures."""

    name = "search"

    density = 0.3

    def __init__(self, sizes=(16, 18, 20)):
        self.sizes = sizes

    def spec(self, n: int, rng: random.Random) -> Spec:
        edges = planted_graph(n, edges_at_density(n, self.density), rng)
        argv = ["search", "--random-weights", "--seed", str(rng.randrange(1 << 31))]
        return graph_spec(argv, n, edges)

    def stream(self, rng: random.Random):
        while True:
            sizes = list(self.sizes)
            rng.shuffle(sizes)
            for n in sizes:
                yield self.spec(n, rng)

    def warmup(self, rng: random.Random) -> list[Spec]:
        return [self.spec(n, rng) for n in (12, 16)]

    run = staticmethod(run_cli)


class Randomized:
    """`isolate --randomized` on dense planted graphs at the 16-vertex guard,
    density 0.55 (70 edges, about 2 * 10^4 perfect matchings).  Perfect
    matchings are enumerated up front and again in every trial's isolation
    check, so matching enumeration is the largest layer and tutte the
    second.  Denser graphs (p = 0.75 gives about 3 s and 10^5 matchings per
    operation) leave too few operations in a run for steady figures, and a
    density range rather than one density spreads the median by 15%."""

    name = "randomized"

    density = 0.55

    def __init__(self, n=16):
        self.n = n

    def spec(self, rng: random.Random, density: float) -> Spec:
        edges = planted_graph(self.n, edges_at_density(self.n, density), rng)
        argv = ["isolate", "--randomized", "--seed", str(rng.randrange(1 << 31))]
        return graph_spec(argv, self.n, edges)

    def stream(self, rng: random.Random):
        while True:
            yield self.spec(rng, self.density)

    def warmup(self, rng: random.Random) -> list[Spec]:
        return [self.spec(rng, 0.3)]

    run = staticmethod(run_cli)


class Corpus:
    """`smallgraphs.connected_graphs(7)`: the acceptance corpus generator,
    the only place smallgraphs runs.  n = 8 takes over half a minute per
    call, too long for repeated runs.  The work does not depend on the seed."""

    name = "corpus"

    def __init__(self, max_n=7):
        self.max_n = max_n

    def stream(self, rng: random.Random):
        while True:
            yield Spec(["connected_graphs", str(self.max_n)], self.max_n)

    def warmup(self, rng: random.Random) -> list[Spec]:
        return [Spec(["connected_graphs", "4"], 4)]

    @staticmethod
    def run(modules: dict, spec: Spec) -> Outcome:
        try:
            graphs = modules["smallgraphs"].connected_graphs(spec.n)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            return Outcome(-1, "", f"{type(exc).__name__}: {exc}")
        counts = [0] * spec.n
        for g in graphs:
            counts[g.n - 1] += 1
        listing = ";".join(f"{g.n}:{g.edges}" for g in graphs)
        digest = hashlib.sha256(listing.encode()).hexdigest()
        return Outcome(0, json.dumps({"counts": counts, "graphs": digest}))


WORKLOADS = {w.name: w for w in (Derand, Search, Randomized, Corpus)}
