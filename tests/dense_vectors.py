"""Dense signed edge vectors for the tests: m-tuples indexed by edge id - 1,
as the reference oracles compute them, and the one conversion to and from
the library's sparse EdgeVector."""

from matchiso.graphs import EdgeVector, dense_sorted


def canonical_sign(vec) -> tuple[int, ...]:
    """Negate if needed so the first nonzero coordinate is positive."""
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


def to_dense(v: EdgeVector, m: int) -> tuple[int, ...]:
    vec = [0] * m
    for j, c in v.items():
        vec[j - 1] = c
    return tuple(vec)


def dense_all(vectors, m: int) -> tuple[tuple[int, ...], ...]:
    """The dense tuples of a collection of vectors, sorted."""
    return tuple(to_dense(v, m) for v in dense_sorted(vectors, m))


def to_sparse(vec) -> EdgeVector:
    """The EdgeVector of a dense vector, with its sign as given."""
    support = 0
    for i, c in enumerate(vec):
        if c:
            support |= 1 << i
    return EdgeVector(support, tuple(c for c in vec if c))
