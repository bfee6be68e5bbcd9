import random

import pytest
from hypothesis import given, strategies as st

from qxopt import topology
from qxopt.topology import CouplingGraph, allows, bfs, builtin, load, path_count, shortest_paths


def test_qx2_edges():
    g = builtin("qx2")
    assert g.num_physical == 5
    assert g.edges == {(0, 1), (0, 2), (1, 2), (4, 2), (4, 3), (3, 2)}


def test_qx4_edges():
    g = builtin("qx4")
    assert g.num_physical == 5
    assert g.edges == {(3, 4), (3, 2), (2, 4), (2, 0), (2, 1), (1, 0)}
    assert allows(g, 1, 0)


def test_unknown_builtin():
    with pytest.raises(ValueError, match="qx9"):
        builtin("qx9")


def test_allows_is_directional():
    g = builtin("qx2")
    assert allows(g, 0, 1)
    assert not allows(g, 1, 0)
    assert not allows(g, 1, 4)


def test_allows_rejects_bad_index():
    with pytest.raises(ValueError):
        allows(builtin("qx2"), 0, 5)


def test_load_small_graph():
    g = load("qubits 2\n0 1\n")
    assert g.num_physical == 2
    assert g.edges == {(0, 1)}
    single = load("qubits 1\n")
    assert single.num_physical == 1
    assert single.edges == frozenset()


def test_load_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        load("qubits 3\n0 1\n")


def test_load_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        load("qubits 2\n0 0\n0 1\n")


def test_load_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        load("qubits 2\n0 1\n0 1\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("qubits x\n0 1\n", "line 1: expected an integer, got 'x'"),
        ("# device\nqubits 2\n0 1.5\n", "line 3: expected an integer, got '1.5'"),
        # ASCII digits only, after an optional minus sign.
        ("qubits 1_0\n" + "".join(f"{q} {q + 1}\n" for q in range(9)), "line 1: expected an integer, got '1_0'"),
        ("qubits +2\n0 1\n", "line 1: expected an integer, got '+2'"),
        ("qubits \u0662\n0 1\n", "line 1: expected an integer, got '\u0662'"),
        ("qubits 2\n0 \u0661\n", "line 2: expected an integer, got '\u0661'"),
    ],
    ids=["header", "edge", "underscore", "plus-sign", "arabic-indic-header", "arabic-indic-edge"],
)
def test_load_reports_line_of_non_integer(text, message):
    with pytest.raises(ValueError) as info:
        load(text)
    assert str(info.value) == message


def test_load_qx4_text_equals_builtin():
    text = "qubits 5\n" + "\n".join(f"{c} {t}" for c, t in sorted(builtin("qx4").edges))
    assert load(text) == builtin("qx4")


def test_distance_and_shortest_paths():
    g = builtin("qx2")
    assert bfs(g, 1)[2] == 1
    assert bfs(g, 1)[4] == 2
    assert shortest_paths(g, 1, 4) == [[1, 2, 4]]
    # 0 and 3 connect through 2 only at distance two
    assert shortest_paths(g, 0, 3) == [[0, 2, 3]]


@given(st.integers(0, 10_000))
def test_shortest_paths_come_sorted_and_shortest(seed):
    # A random spanning tree plus random extra couplings.
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    edges = {(rng.randrange(q), q) for q in range(1, n)}
    edges |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))}
    g = load(f"qubits {n}\n" + "".join(f"{a} {b}\n" for a, b in sorted(edges)))
    for a in range(n):
        for b in range(n):
            paths = shortest_paths(g, a, b)
            assert paths and paths == sorted(paths)
            assert all(len(p) == bfs(g, a)[b] + 1 for p in paths)


@given(st.integers(0, 10_000))
def test_path_count_is_the_number_of_shortest_paths(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    edges = {(rng.randrange(q), q) for q in range(1, n)}
    edges |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))}
    g = load(f"qubits {n}\n" + "".join(f"{a} {b}\n" for a, b in sorted(edges)))
    want = sum(len(shortest_paths(g, a, b)) for a in range(n) for b in range(n) if a != b)
    assert path_count(g) == want


def _grid(k):
    edges = [(q, q + 1) for q in range(k * k) if q % k != k - 1] + [(q, q + k) for q in range(k * k - k)]
    return CouplingGraph(k * k, edges)


def test_path_counts_are_pinned():
    ladder8 = load("qubits 8\n0 1\n2 1\n2 3\n4 5\n6 5\n6 7\n0 4\n5 1\n2 6\n7 3\n")
    assert [path_count(builtin("qx2")), path_count(builtin("qx4")), path_count(ladder8)] == [20, 20, 96]
    assert [path_count(_grid(k)) for k in range(3, 8)] == [140, 744, 3_248, 13_024, 50_436]


def test_loading_a_long_line_runs_one_search():
    # Connectivity is one search from qubit 0, not an all-pairs table.
    bfs.cache_clear()
    graph = load("qubits 2000\n" + "".join(f"{q} {q + 1}\n" for q in range(1999)))
    info = bfs.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert bfs(graph, 0)[1999] == 1999
    assert bfs.cache_info().misses == 1


@pytest.mark.parametrize("source", [-1, 5])
def test_distance_refuses_a_source_outside_the_device(source):
    with pytest.raises(ValueError, match="outside 0..4"):
        bfs(builtin("qx2"), source)[2]


def test_header_with_too_few_edges_is_refused_without_a_search(monkeypatch):
    def no_search(graph, source):
        raise AssertionError("searched a graph with fewer than N - 1 edges")

    monkeypatch.setattr(topology, "bfs", no_search)
    with pytest.raises(ValueError, match="^coupling graph is not connected$"):
        load("qubits 5\n0 1\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("qubits 0\n", "line 1: num_physical must be positive"),
        ("qubits 2\n0 2\n", "line 2: edge (0, 2) outside 0..1"),
        ("qubits 2\n-1 0\n", "line 2: edge (-1, 0) outside 0..1"),
        ("qubits 2\n0 0\n0 1\n", "line 2: self-loop edge (0, 0)"),
        ("# device\nqubit 2\n0 1\n", "line 2: expected 'qubits N' header"),
        ("qubits 2 3\n0 1\n", "line 1: expected 'qubits N' header"),
        ("qubits 2\n0\n", "line 2: expected 'control target', got '0'"),
        ("qubits 2\n0 1 # ok\n1 0 2\n", "line 3: expected 'control target', got '1 0 2'"),
        ("", "missing 'qubits N' header"),
        ("# only a comment\n", "missing 'qubits N' header"),
        ("qubits 3\n0 1\n1 0\n", "coupling graph is not connected"),
    ],
    ids=[
        "zero-qubits", "edge-out-of-range", "negative-edge", "self-loop", "bad-header", "header-arity",
        "one-token", "three-tokens", "empty", "no-header", "disconnected",
    ],
)
def test_load_pins_each_refusal(text, message):
    with pytest.raises(ValueError) as info:
        load(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "num_physical,edges,message",
    [
        (0, [], "num_physical must be positive"),
        (2, [(0, 2)], "edge (0, 2) outside 0..1"),
        (2, [(-1, 0)], "edge (-1, 0) outside 0..1"),
        (2, [(1, 1)], "self-loop edge (1, 1)"),
    ],
    ids=["zero-qubits", "edge-out-of-range", "negative-edge", "self-loop"],
)
def test_coupling_graph_keeps_its_own_checks(num_physical, edges, message):
    with pytest.raises(ValueError) as info:
        CouplingGraph(num_physical, frozenset(edges))
    assert str(info.value) == message
