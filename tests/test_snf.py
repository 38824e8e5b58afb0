import random

from essedge.snf import (smith_normal_form, abelian_invariants,
                         solve_integer, in_column_span, homology_invariants)

from conftest import cokernel_reducer


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_snf_randomised():
    rng = random.Random(5)
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
        d, u, v = smith_normal_form(matrix)
        product = _matmul(_matmul(u, matrix), v)
        for i in range(m):
            for j in range(n):
                expected = d[i] if i == j and i < len(d) else 0
                assert product[i][j] == expected
        for i in range(len(d) - 1):
            if d[i]:
                assert d[i + 1] % d[i] == 0
            else:
                assert d[i + 1] == 0


def test_invariants_examples():
    assert abelian_invariants([[2, 0], [0, 0]], 2) == (2, 0)
    assert abelian_invariants([], 3) == (0, 0, 0)
    assert abelian_invariants([[1, 0], [0, 1]], 2) == ()
    assert abelian_invariants([[2, 0], [0, 2]], 2) == (2, 2)
    assert abelian_invariants([[6, 0], [0, 4]], 2) == (2, 12)


def test_solve_integer():
    assert solve_integer([[2]], [1]) is None
    x = solve_integer([[2, 3]], [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    rng = random.Random(6)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        target = [sum(matrix[i][j] * x0[j] for j in range(n))
                  for i in range(m)]
        x = solve_integer(matrix, target)
        assert x is not None
        for i in range(m):
            assert sum(matrix[i][j] * x[j] for j in range(n)) == target[i]


def test_in_column_span():
    assert in_column_span([[2, 0], [0, 3]], [4, 3])
    assert not in_column_span([[2, 0], [0, 3]], [1, 0])
    assert in_column_span([], [0, 0])
    assert not in_column_span([], [1, 0])


def test_in_column_span_agrees_with_solve_integer():
    rng = random.Random(8)
    members = 0
    for _ in range(400):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        columns = [[rng.choice([0, 0, 1, -1, 2, -3, 4, 6]) for _ in range(n)]
                   for _ in range(k)]
        if rng.random() < 0.5:
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            target = [sum(c * col[i] for c, col in zip(coeffs, columns))
                      for i in range(n)]
        else:
            target = [rng.randint(-5, 5) for _ in range(n)]
        matrix = [[col[i] for col in columns] for i in range(n)]
        expected = solve_integer(matrix, target) is not None
        assert in_column_span(columns, target) == expected
        members += expected
    assert 0 < members < 400


def test_cokernel_reducer():
    reduce_vec = cokernel_reducer([[2, 0]], 2)
    assert reduce_vec([2, 0]) == (0, 0)
    assert any(reduce_vec([1, 0]))
    assert any(reduce_vec([0, 1]))


def test_homology_torus_cw():
    # torus: one vertex, two edges, one face with boundary aba'b'
    d1 = [[0, 0]]
    d2 = [[0], [0]]
    assert homology_invariants(d1, d2, 2) == (0, 0)


def test_homology_rp2_cw():
    # projective plane: one vertex, one edge, one face attached by a^2
    d1 = [[0]]
    d2 = [[2]]
    assert homology_invariants(d1, d2, 1) == (2,)
