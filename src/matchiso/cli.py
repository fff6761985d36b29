"""Command-line surface with stable machine-readable JSON reports.

Verbs: decide, search, isolate, weights, face, goodness.
Reports go to stdout as one JSON object with fixed field order
(verb, result, ms, seed); errors go to stderr.  Exit codes: 2 parse error,
3 size guard, 4 domain error, 1 internal invariant failure.  Big integers
are serialized as decimal strings.  Output is byte-identical across runs
for identical input, flags and seed, except for the wall-clock "ms" field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .graphs import (
    Graph,
    ParseError,
    SizeGuardExceeded,
    bit_positions,
    parse_graph,
)
from .weights import (
    WeightFunction,
    concatenate,
    family_member,
    random_weights,
)
from .faces import (
    ContractionMultigraph,
    Face,
    LaminarFamily,
    contract_face,
    extend_to_maximal_laminar,
    goodness_check,
    min_weight_subface,
    perfect_matching_face,
    singletons,
    tight_odd_sets,
)
from .tutte import (
    STATUS_NO_PM,
    decide_random,
    determinant_search,
)
from .engine import (
    EngineError,
    IsolationCertificate,
    NoPerfectMatchingError,
    TrialsExhausted,
    isolate_derandomized,
    isolate_randomized,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_SIZE_GUARD = 3
EXIT_DOMAIN = 4

# Size guards (exit 3) on work that grows with a bare number in the input.
# search, decide and isolate build n x n matrices; search --random-weights took 22 s at n = 40 on a planted
# graph of density 0.3 (CPython 3.11, 2-CPU Linux host)
GRAPH_MAX_N = 40
# search --weights: the determinant has at most about n * max(w) bits, as each Pfaffian term has n/2 factors
# 2^w; at this estimate a planted n = 40 graph of density 0.3 with every weight 500 took 20.8 s, and C4 with
# weights 5000,1,5000,1 took 0.14 s
SEARCH_MAX_DET_BITS = 20_000
# decide runs every trial on a graph with no perfect matching: 1,000 took 1.1 s at n = 40
DECIDE_MAX_TRIALS = 1_000
WEIGHTS_MAX_VALUES = 100_000  # weight values computed: edges times family indices
WEIGHTS_MAX_BITS = 4_096  # bound on the padding n**e and on each concatenated weight
# goodness --lambda runs the circuit census at lambda: it took 0.3-2.2 us per walk that _census_walks
# counts, K16 at lambda 6 the most (4.3 million walks, 9.7 s, 349,440 vectors), so about 20 s at the limit.
# Peak RSS of the whole command with the vectors as EdgeVectors (as dense m-tuples before): K14 at lambda 6
# 62.1 MB (123.7), K16 at lambda 6 432.9 MB (486.4); K16 peaks as high at lambda 1 (433.0 MB), in its face
CENSUS_MAX_WALKS = 10_000_000
# face and goodness walk the 2^(n-2) odd sets that hold vertex 1, and a step may read one field of every
# matching in the packed matchings: 2^(n-2) * matchings * field bytes bounds the bytes read. 16-vertex
# graphs of density 0.84 and 0.85 (584,027 and 684,081 matchings) took 16.2 s at 1.24e11 and 23.5 s at
# 1.57e11, so about 20 s at the limit; K16 (2,027,025 matchings, 4.98e11) took 131 s
TIGHT_WALK_MAX_BYTES = 150_000_000_000
# face and goodness --weights weigh every matching of the face once per family index, before any guard on the
# face: K14 (135,135 matchings) took 1.39 s with --weights 2 and 6.51 s with index 2 forty-one times, 0.95 us
# per weighing, so about 19 s at the limit
FACE_MAX_WEIGHINGS = 20_000_000


class _Domain(Exception):
    """Domain-level refusal (no perfect matching, bad parameter)."""


def _load_graph(path: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("unreadable", f"cannot read {path}: {exc}") from None
    g = parse_graph(text)
    if g.n > GRAPH_MAX_N:
        raise SizeGuardExceeded(f"n={g.n} exceeds {GRAPH_MAX_N} vertices")
    return g


def _weights_payload(w: WeightFunction) -> dict:
    return {
        "n": w.n,
        "values": [str(v) for v in w.values],
        "provenance": w.provenance,
    }


def _certificate_payload(cert: IsolationCertificate) -> dict:
    return {
        "matching": list(bit_positions(cert.matching)),
        "weight": _weights_payload(cert.weight),
        "trials": cert.trials,
        "audit": [
            {
                "label": rec.label,
                "k": rec.k,
                "obligations": rec.obligations,
                "changedFace": rec.changed_face,
                "values": [str(v) for v in rec.weights.values],
            }
            for rec in cert.audit
        ],
    }


def _int_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ParseError("malformed", f"{flag} takes comma-separated integers, got {raw!r}") from None


def _parse_weight_list(raw: str, g: Graph) -> WeightFunction:
    values = _int_list(raw, "--weights")
    if len(values) != g.m:
        raise _Domain(f"expected {g.m} weights, got {len(values)}")
    return WeightFunction(g.n, values, provenance="custom")


def _cmd_decide(args) -> dict:
    if args.trials > DECIDE_MAX_TRIALS:
        raise SizeGuardExceeded(f"--trials {args.trials} exceeds {DECIDE_MAX_TRIALS}")
    g = _load_graph(args.graph)
    has = decide_random(g, args.prime, args.trials, args.seed)
    return {"hasPerfectMatching": has, "prime": args.prime, "trials": args.trials}


def _cmd_search(args) -> dict:
    g = _load_graph(args.graph)
    if args.random_weights:
        w = random_weights(g, args.seed)
    else:
        w = _parse_weight_list(args.weights, g)
        bits = g.n * max(w.values, default=0)
        if bits > SEARCH_MAX_DET_BITS:
            raise SizeGuardExceeded(
                f"--weights may give a determinant of {bits} bits (n times the largest weight), "
                f"which exceeds {SEARCH_MAX_DET_BITS}"
            )
    outcome = determinant_search(g, w)
    if outcome.status == STATUS_NO_PM:
        raise _Domain("no perfect matching")
    return {
        "status": outcome.status,
        "matching": list(bit_positions(outcome.matching)) if outcome.matching is not None else None,
        "matchingWeight": str(outcome.weight) if outcome.weight is not None else None,
        "detBits": outcome.det_bits,
        "targetOrd2": outcome.target_ord2,
        "weights": _weights_payload(w),
        "verdicts": [
            {
                "edge": v.edge,
                "detZero": v.det_is_zero,
                "ord2": v.ord2,
                "selected": v.selected,
            }
            for v in outcome.verdicts
        ],
    }


def _cmd_isolate(args) -> dict:
    g = _load_graph(args.graph)
    if args.derandomized:
        cert = isolate_derandomized(g)
    else:
        cert = isolate_randomized(g, args.seed, args.max_trials)
    return _certificate_payload(cert)


def _cmd_weights(args) -> dict:
    m = args.edges if args.edges is not None else args.n * (args.n - 1) // 2
    if m < 0:
        raise _Domain(f"edge count must be nonnegative, got {m}")
    ks = list(_int_list(args.concat, "--concat")) if args.concat else [args.k]
    if m * len(ks) > WEIGHTS_MAX_VALUES:
        raise SizeGuardExceeded(
            f"{m} edges times {len(ks)} family indices exceeds {WEIGHTS_MAX_VALUES} weight values"
        )
    if args.concat:
        if args.padding_exponent < 0:
            raise _Domain(f"padding exponent must be nonnegative, got {args.padding_exponent}")
        # n**e has at most e * bitlen(n) bits, and each concatenation adds a padding's worth
        bits = max(len(ks) - 1, 1) * args.padding_exponent * args.n.bit_length()
        if bits > WEIGHTS_MAX_BITS:
            raise SizeGuardExceeded(
                f"padding {args.n}**{args.padding_exponent} with {len(ks)} family indices "
                f"may reach {bits} bits, which exceeds {WEIGHTS_MAX_BITS}"
            )
        padding = args.n**args.padding_exponent
        w = family_member(ks[0], args.n, m)
        for k in ks[1:]:
            w = concatenate(w, family_member(k, args.n, m), padding)
        return {"n": args.n, "ks": ks, "paddingExponent": args.padding_exponent, **_weights_payload(w)}
    w = family_member(args.k, args.n, m)
    return {"n": args.n, "k": args.k, **_weights_payload(w)}


def _face_and_family(args) -> tuple[Face, LaminarFamily]:
    """The face that face and goodness report on, minimized under each --weights family index in order,
    and a maximal laminar family of its tight sets, behind the weighing and tight-walk guards."""
    g = _load_graph(args.graph)
    face = perfect_matching_face(g)
    if args.weights:
        weighed = 0
        for k in _int_list(args.weights, "--weights"):
            weighed += len(face)
            if weighed > FACE_MAX_WEIGHINGS:
                raise SizeGuardExceeded(
                    f"--weights would weigh {weighed} matchings, which exceeds {FACE_MAX_WEIGHINGS}"
                )
            face = min_weight_subface(face, family_member(k, g.n, g.m))
    walked = face.tight_walk_bytes()
    if walked > TIGHT_WALK_MAX_BYTES:
        raise SizeGuardExceeded(
            f"tight-set walk over {len(face)} matchings on {g.n} vertices reads {walked} bytes, "
            f"which exceeds {TIGHT_WALK_MAX_BYTES}"
        )
    return face, extend_to_maximal_laminar(singletons(g.n), tight_odd_sets(face))


def _cmd_face(args) -> dict:
    face, fam = _face_and_family(args)
    return {
        "matchings": [list(bit_positions(mm)) for mm in face.matchings],
        "support": list(bit_positions(face.support_mask)),
        "tightSets": [list(bit_positions(s)) for s in tight_odd_sets(face)],
        "laminar": [list(bit_positions(s)) for s in fam.masks],
    }


def _census_walks(h: ContractionMultigraph, max_node_weight: int) -> int:
    """A bound on the walk prefixes that bounded_circuit_vectors explores:
    from each anchor edge, taken from its lower node, every walk within the
    bound over any edge.  walks[r][x] counts the walks from node x of
    node-weight at most r, the empty one included."""
    wt, walks = h.node_weights, []
    for r in range(max_node_weight + 1):
        walks.append([1 + sum(walks[r - wt[y]][y] for _, y in nbrs if wt[y] <= r) for nbrs in h.adjacency])
    return sum(walks[r][b] for a, b, _ in h.edges if (r := max_node_weight - wt[a] - wt[b]) >= 0)


def _cmd_goodness(args) -> dict:
    face, fam = _face_and_family(args)
    g = face.g
    lam = getattr(args, "lambda")
    if 1 <= lam <= 2 * g.n:  # goodness_check refuses other thresholds, or reports before any census
        walks = _census_walks(contract_face(face, fam, lam), lam)
        if walks > CENSUS_MAX_WALKS:
            raise SizeGuardExceeded(
                f"circuit census of {walks} walks at lambda {lam} exceeds {CENSUS_MAX_WALKS}"
            )
    report = goodness_check(face, fam, lam)
    witness = report.witness
    if isinstance(witness, int):  # a vertex mask
        witness = list(bit_positions(witness))
    elif witness is not None:  # a circuit EdgeVector, the report's one dense vector
        witness = [dict(witness.items()).get(j, 0) for j in range(1, g.m + 1)]
    return {"good": report.ok, "failed": report.failed, "witness": witness}


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchiso")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("decide", help="randomized perfect-matching existence test")
    p.add_argument("--graph", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("search", help="determinant-digit search for the isolated matching")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--random-weights", action="store_true")
    group.add_argument("--weights", help="comma-separated weight per edge id")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("isolate", help="produce an isolation certificate")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--randomized", action="store_true")
    group.add_argument("--derandomized", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-trials", type=int, default=64)

    p = sub.add_parser("weights", help="dump oblivious family members")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--concat", help="comma-separated family indices to concatenate")
    p.add_argument("--edges", type=int)
    p.add_argument("--padding-exponent", type=int, default=21)

    p = sub.add_parser("face", help="matchings, support, tight sets, laminar family")
    p.add_argument("--graph", required=True)
    p.add_argument("--weights", help="comma-separated family indices minimized in order")

    p = sub.add_parser("goodness", help="progress predicate for the face-laminar pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda", type=int, required=True)
    p.add_argument("--weights", help="comma-separated family indices minimized in order")
    return parser


_DISPATCH = {
    "decide": _cmd_decide,
    "search": _cmd_search,
    "isolate": _cmd_isolate,
    "weights": _cmd_weights,
    "face": _cmd_face,
    "goodness": _cmd_goodness,
}

_SEEDED = {"decide", "search", "isolate"}


def emit_report(verb: str, result: dict, ms: int, seed: int | None, pretty: bool) -> str:
    report: dict = {"verb": verb, "result": result, "ms": ms}
    if seed is not None:
        report["seed"] = seed
    if pretty:
        return json.dumps(report, indent=2)
    return json.dumps(report, separators=(",", ":"))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    seed = getattr(args, "seed", None)
    if args.verb == "search" and args.random_weights and seed is None:
        print("error: --seed is required with --random-weights", file=sys.stderr)
        return EXIT_PARSE
    if args.verb == "isolate" and args.randomized and seed is None:
        print("error: --seed is required with --randomized", file=sys.stderr)
        return EXIT_PARSE
    started = time.monotonic()
    try:
        result = _DISPATCH[args.verb](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (_Domain, NoPerfectMatchingError, TrialsExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    ms = int((time.monotonic() - started) * 1000)
    echo_seed = seed if args.verb in _SEEDED else None
    print(emit_report(args.verb, result, ms, echo_seed, args.pretty))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
