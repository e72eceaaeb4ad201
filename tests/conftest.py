import random

from degencut import Graph, random_graph


def random_graph_stream(count: int, n_lo: int, n_hi: int, seed: int):
    """Deterministic mixed-density random graphs for oracle sweeps."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        yield random_graph(n, rng, p)
