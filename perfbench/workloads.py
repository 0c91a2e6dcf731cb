"""Seeded inputs of the serving benchmark, encoded before timing starts.

Every request body is generated here from the workload seed and
encoded to the exact bytes sent on the wire, so nothing the generator
does while timing depends on the program under test.  Query shapes
follow the paper's setting: d = 6 attributes, domain c = 64, λ in
1..4 and per-dimension volume ω = 0.5 (interval width 32), with range,
point and count queries in equal shares.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

N_ATTRIBUTES = 6
DOMAIN_SIZE = 64
WIDTH = 32  # round(ω · c) with ω = 0.5
KINDS = ("range", "point", "count")

POOL_SIZE = 10_000
HOT_RANKS = 2_000
ZIPF_S = 1.1
BATCH_QUERIES = 200
INGEST_ROWS = 1_000
WARMUP_BATCHES = 20
WARMUP_ROWS = 10_000  # 20 x 10k = the 200k-report warm-up
INGEST_RATE = 10.0  # batches/s: 10k reports/s
READ_RATE = 50.0  # reads/s beside the ingest stream
#: Read i is due at (i + READ_PHASE) / READ_RATE, so reads fall between
#: ingest batches (due at j / INGEST_RATE) instead of on them: two
#: streams due at the same instant would race for the server, and which
#: one it took first would set both latencies.
READ_PHASE = 0.7
#: Every 20th read is a group-by table (2.5 tables/s), the first read
#: after an ingest batch, so a 30 ms table has ended before the next batch.
TABLE_EVERY = 20
PROBE_PER_LAMBDA = 250


def _draw_queries(rng: np.random.Generator, kinds: np.ndarray,
                  dimensions: np.ndarray) -> list[tuple]:
    """One query per (kind index, λ) slot, as a hashable canonical tuple
    ``(kind, ((a, x), ...))``; ``x`` is the interval's low end for
    range/count queries and the cell value for point queries."""
    n = len(kinds)
    # The first λ columns of a random permutation: λ distinct attributes.
    attributes = np.argsort(rng.random((n, N_ATTRIBUTES)), axis=1)[:, :4]
    lows = rng.integers(0, DOMAIN_SIZE - WIDTH + 1, size=(n, 4))
    cells = rng.integers(0, DOMAIN_SIZE, size=(n, 4))
    queries = []
    for k, lam, attrs, low, cell in zip(kinds.tolist(), dimensions.tolist(),
                                        attributes.tolist(), lows.tolist(),
                                        cells.tolist()):
        values = cell if KINDS[k] == "point" else low
        queries.append((KINDS[k], tuple(sorted(zip(attrs[:lam],
                                                   values[:lam])))))
    return queries


def _cycled(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot specs cycling λ = 1..4 and, within that, the three kinds, so
    every stretch of 12 slots holds each (kind, λ) once."""
    index = np.arange(n)
    return (index // 4) % len(KINDS), 1 + index % 4


def _distinct_queries(rng: np.random.Generator, kinds: np.ndarray,
                      dimensions: np.ndarray, seen: set,
                      respec: bool = False) -> list[tuple]:
    """Distinct queries for the given slots.  A draw that repeats an
    earlier one (or one in ``seen``) is drawn again for the same slot,
    or, with ``respec``, for a fresh uniform (kind, λ)."""
    queries: list = [None] * len(kinds)
    todo = np.arange(len(kinds))
    while todo.size:
        if respec:
            kinds[todo] = rng.integers(len(KINDS), size=todo.size)
            dimensions[todo] = rng.integers(1, 5, size=todo.size)
        retry = []
        for slot, query in zip(todo.tolist(), _draw_queries(
                rng, kinds[todo], dimensions[todo])):
            if query in seen:
                retry.append(slot)
            else:
                seen.add(query)
                queries[slot] = query
        todo = np.array(retry, dtype=int)
    return queries


def to_wire(query: tuple) -> dict:
    """The ``/query`` wire form of a canonical query tuple."""
    kind, terms = query
    if kind == "point":
        return {"type": "point", "assignment": [[a, v] for a, v in terms]}
    predicates = [[a, low, low + WIDTH - 1] for a, low in terms]
    if kind == "count":
        return {"type": "count", "predicates": predicates}
    return {"predicates": predicates}


def request(path: str, document: dict) -> bytes:
    """A complete keep-alive HTTP/1.1 POST request."""
    body = json.dumps(document, separators=(",", ":")).encode()
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def query_request(wire_queries: list[dict]) -> bytes:
    return request("/query", {"queries": wire_queries})


def ingest_request(rows: np.ndarray) -> bytes:
    return request("/ingest", {"rows": rows.tolist()})


class Pool:
    """The query pool Zipf draws come from, with its encoded requests.

    The ``HOT_RANKS`` most popular queries (about 90% of Zipf draws)
    cycle through every (kind, λ), so the hot set has the same mix on
    every seed; the rest draw kind and λ uniformly.  Only 780 distinct
    λ = 1 queries exist, so the tail holds fewer of them.
    """

    def __init__(self, rng: np.random.Generator):
        seen: set = set()
        kinds, dimensions = _cycled(HOT_RANKS)
        self.queries = _distinct_queries(rng, kinds, dimensions, seen)
        tail = POOL_SIZE - HOT_RANKS
        self.queries += _distinct_queries(
            rng, np.zeros(tail, dtype=int), np.ones(tail, dtype=int), seen,
            respec=True)
        self.requests = [query_request([to_wire(query)])
                         for query in self.queries]
        self.dimensions = np.array([len(terms)
                                    for _, terms in self.queries])
        ranks = np.arange(1, POOL_SIZE + 1, dtype=float)
        weights = ranks ** -ZIPF_S
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = rng

    def draws(self, n: int) -> np.ndarray:
        """``n`` pool indices drawn Zipf(s) by rank (rank r is index r-1;
        the pool is already in random order)."""
        indices = np.searchsorted(self._cdf, self._rng.random(n))
        return np.minimum(indices, POOL_SIZE - 1)


def table_queries(rng: np.random.Generator, n_pairs: int) -> list[dict]:
    """Group-by tables: a 2-attribute marginal and a top-5 over each of
    ``n_pairs`` attribute pairs, in seeded order."""
    pairs = list(combinations(range(N_ATTRIBUTES), 2))
    chosen = rng.permutation(len(pairs))[:n_pairs]
    tables = []
    for index in chosen:
        a, b = pairs[int(index)]
        tables.append({"type": "marginal", "attributes": [a, b]})
        tables.append({"type": "topk", "attributes": [a, b], "k": 5})
    return tables


def fresh_batches(rng: np.random.Generator, n_batches: int) -> list[bytes]:
    """``n_batches`` requests of ``BATCH_QUERIES`` distinct queries each,
    50 per λ with the kinds cycled (see ``_cycled``)."""
    batches = []
    for _ in range(n_batches):
        kinds, dimensions = _cycled(BATCH_QUERIES)
        queries = _distinct_queries(rng, kinds, dimensions, set())
        batches.append(query_request([to_wire(query) for query in queries]))
    return batches


def probe_queries(rng: np.random.Generator) -> list[dict]:
    """The accuracy probe: ``PROBE_PER_LAMBDA`` range queries per λ."""
    dimensions = np.repeat(np.arange(1, 5), PROBE_PER_LAMBDA)
    return [to_wire(query) for query in _draw_queries(
        rng, np.zeros(dimensions.size, dtype=int), dimensions)]


def exact_answers(rows: np.ndarray, probe: list[dict]) -> np.ndarray:
    """Exact range fractions of ``probe`` over ``rows``."""
    columns = [np.ascontiguousarray(rows[:, j], dtype=np.uint8)
               for j in range(rows.shape[1])]
    answers = np.empty(len(probe))
    for position, query in enumerate(probe):
        mask = None
        for attribute, low, high in query["predicates"]:
            # uint8 wrap-around: one compare tests low <= x <= high.
            inside = ((columns[attribute] - np.uint8(low))
                      < np.uint8(high - low + 1))
            mask = inside if mask is None else mask & inside
        answers[position] = np.count_nonzero(mask) / rows.shape[0]
    return answers
