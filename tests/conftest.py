import functools
import time

import pytest
from hypothesis import settings

from gridext import GridShape, build_graph, enumerate_index_orders
from gridext.verify import EXTREMES_MN

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# property that fails there fails the same way locally with that flag.
settings.register_profile("ci", derandomize=True)


@pytest.fixture()
def built(monkeypatch):
    """The shapes whose completion levels are built during the test, one
    entry per pass, in order; empty when every call was refused first."""
    from gridext import counting

    shapes = []
    levels = counting._levels

    def spy(shape):
        shapes.append(shape)
        return levels(shape)

    monkeypatch.setattr(counting, "_levels", spy)
    return shapes


@pytest.fixture(scope="session")
def shared_tables():
    """completion_counts keeping one read-only table per (shape, cap) for
    the session.  A property test that builds an ExactSampler per example
    patches it into gridext.sampling within its body, so one shape's table
    is built once, not once per example."""
    from gridext import counting

    return functools.lru_cache(maxsize=None)(counting.completion_counts)


@pytest.fixture(scope="session")
def reflect():
    """Oracle for the point reflection x_j -> a_j + 1 - x_j, which reverses
    the order: reflect(shape, bits) maps each point of the set `bits` through
    coords_of and index_of.  The images are tabled once per shape, per byte
    of the set, so a call is one lookup per byte."""

    @functools.lru_cache(maxsize=None)
    def byte_images(shape):
        image = [
            shape.index_of(tuple(a + 1 - x for a, x in zip(shape.lengths, shape.coords_of(v))))
            for v in range(shape.size)
        ]
        chunks = [image[i : i + 8] for i in range(0, len(image), 8)]
        return [[sum(1 << w for j, w in enumerate(chunk) if b >> j & 1) for b in range(256)] for chunk in chunks]

    def reflect(shape, bits):
        tables = byte_images(shape)
        out = 0
        for table, b in zip(tables, bits.to_bytes(len(tables), "little")):
            out |= table[b]
        return out

    return reflect


@pytest.fixture(scope="session")
def diamond():
    return GridShape.equilateral(2, 2)


@pytest.fixture(scope="session")
def square3():
    return GridShape.equilateral(3, 2)


@pytest.fixture(scope="session")
def square4():
    return GridShape.equilateral(4, 2)


@pytest.fixture(scope="session")
def cube2():
    return GridShape.equilateral(2, 3)


@pytest.fixture(scope="session")
def square3_orders(square3):
    return tuple(enumerate_index_orders(square3))


@pytest.fixture(scope="session")
def extreme_graphs():
    """Swap graphs for the four exhaustively-checked shapes, plus build time."""
    t0 = time.perf_counter()
    graphs = {mn: build_graph(GridShape.equilateral(*mn)) for mn in EXTREMES_MN}
    return graphs, time.perf_counter() - t0
