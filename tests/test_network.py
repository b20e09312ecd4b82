"""Network sampling: reproducibility, exact identities, degenerate graphs."""

import numpy as np
import pytest

from hawkes_meanfield.errors import ContractError, ParameterError
from hawkes_meanfield.network import (
    NetworkConfiguration,
    _draw_bernoulli,
    build_complementary_network,
    compute_weight_statistics,
    row_blocks,
    sample_network,
)
from hawkes_meanfield.rng import NETWORK, stream

# one row block, one partial block, several blocks with a partial last one
DRAW_SIZES = (1, 300, 1100)
# edge probabilities around the raw-word threshold: none, below the 2**-53
# spacing of the doubles, more than 53 binary digits (0.3, 0.8), an exact
# half, the largest double below one, and one (threshold 2**64)
EDGE_QS = (0.0, 2.0**-60, 0.3, 0.5, 0.8, 1.0 - 2.0**-53, 1.0)


def test_same_seed_reproduces_matrices():
    a = sample_network(80, 0.8, 0.5, seed=123)
    b = sample_network(80, 0.8, 0.5, seed=123)
    np.testing.assert_array_equal(a.adjacency, b.adjacency)
    np.testing.assert_array_equal(a.signs, b.signs)


def test_different_seeds_differ():
    a = sample_network(80, 0.8, 0.5, seed=123)
    b = sample_network(80, 0.8, 0.5, seed=124)
    assert not np.array_equal(a.adjacency, b.adjacency)


def test_edge_density_near_q():
    # n^2 = 40000 Bernoulli(0.3) draws, SE of the mean = sqrt(pq)/200
    net = sample_network(200, 0.5, 0.3, seed=5)
    density = net.adjacency.mean()
    se = np.sqrt(0.3 * 0.7) / 200
    assert abs(density - 0.3) < 4 * se


def test_sign_mean_near_2p_minus_1():
    net = sample_network(400, 0.8, 0.5, seed=17)
    se = np.sqrt(4 * 0.8 * 0.2 / 400)
    assert abs(net.signs.mean() - 0.6) < 4 * se


def test_self_loops_are_sampled():
    net = sample_network(60, 0.5, 1.0, seed=2)
    assert net.adjacency.all(), "q=1 must give the complete graph with loops"


def test_degenerate_edge_probabilities():
    assert sample_network(30, 0.5, 0.0, seed=3).adjacency.sum() == 0
    assert sample_network(30, 0.5, 1.0, seed=3).adjacency.sum() == 900


def test_matrices_are_immutable():
    net = sample_network(10, 0.5, 0.5, seed=1)
    with pytest.raises(ValueError):
        net.adjacency[0, 0] = 1
    with pytest.raises(ValueError):
        net.signs[0] = -1


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        sample_network(0, 0.5, 0.5, seed=1)
    with pytest.raises(ParameterError):
        sample_network(10, 1.5, 0.5, seed=1)
    with pytest.raises(ParameterError):
        sample_network(10, 0.5, -0.1, seed=1)
    # one p/q rule; a value that is no real number is refused, not compared
    for p, q in ((None, 0.5), ("x", 0.5), (0.5, [0.5]), (True, 0.5),
                 (0.5, np.nan)):
        with pytest.raises(ParameterError) as err:
            sample_network(10, p, q, seed=1)
        assert str(err.value) == \
            f"p and q must lie in [0, 1], got p={p!r}, q={q!r}"
    for seed in (-1, 0.5, None):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            sample_network(5, 0.5, 0.5, seed)
        with pytest.raises(ParameterError, match="seed must be an integer"):
            build_complementary_network(6, seed)


def test_explicit_matrices_validated():
    with pytest.raises(ContractError):
        NetworkConfiguration(n=3, p=0.5, q=0.5,
                             adjacency=np.zeros((2, 3), dtype=np.uint8),
                             signs=np.ones(3, dtype=np.int8))
    with pytest.raises(ContractError):
        NetworkConfiguration(n=3, p=0.5, q=0.5,
                             adjacency=np.zeros((3, 3), dtype=np.uint8),
                             signs=np.array([1, 0, -1], dtype=np.int8))
    with pytest.raises(ContractError):
        NetworkConfiguration(n=2, p=0.5, q=0.5,
                             adjacency=np.full((2, 2), 2, dtype=np.uint8),
                             signs=np.ones(2, dtype=np.int8))
    with pytest.raises(ContractError) as err:
        NetworkConfiguration(n=3, p=0.5, q=0.5,
                             adjacency=np.zeros((3, 3), dtype=np.uint8),
                             signs=np.ones(2, dtype=np.int8))
    assert str(err.value) == "signs must have shape (3,), got (2,)"
    with pytest.raises(ParameterError) as err:
        NetworkConfiguration(n=0, p=0.5, q=0.5,
                             adjacency=np.zeros((0, 0), dtype=np.uint8),
                             signs=np.ones(0, dtype=np.int8))
    assert str(err.value) == "need at least one vertex, got n=0"


def test_draw_sizes_cover_single_partial_and_multiple_blocks():
    blocks = [row_blocks(n, n) for n in DRAW_SIZES]
    assert len(blocks[0]) == 1
    assert len(blocks[1]) == 1 and blocks[1][0].stop == 300
    last = blocks[2][-1]
    assert len(blocks[2]) > 1 and last.stop - last.start < blocks[2][0].stop


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_row_blocked_draw_matches_one_shot_reference(n):
    p, q, seed = 0.7, 0.35, 13
    g = stream(seed, NETWORK)
    adjacency = (g.random((n, n)) < q).astype(np.uint8)
    signs = np.where(g.random(n) < p, 1, -1).astype(np.int8)
    net = sample_network(n, p, q, seed)
    np.testing.assert_array_equal(net.adjacency, adjacency)
    np.testing.assert_array_equal(net.signs, signs)


@pytest.mark.parametrize("q", EDGE_QS)
@pytest.mark.parametrize("n", DRAW_SIZES)
def test_raw_word_draw_matches_uniform_doubles(n, q):
    p, seed = 0.6, 29
    g = stream(seed, NETWORK)
    adjacency = g.random((n, n)) < q
    signs = np.where(g.random(n) < p, 1, -1).astype(np.int8)
    net = sample_network(n, p, q, seed)
    np.testing.assert_array_equal(net.adjacency, adjacency)
    np.testing.assert_array_equal(net.signs, signs)
    drawn, ref = stream(seed, NETWORK), stream(seed, NETWORK)
    _draw_bernoulli(drawn, np.empty((n, n), dtype=np.uint8), q)
    ref.random((n, n))
    assert drawn.random() == ref.random(), "the stream moved differently"


@pytest.mark.parametrize("q", EDGE_QS)
@pytest.mark.parametrize("n", (3, 1100))
def test_raw_word_draw_into_a_strided_view(n, q):
    # build_complementary_network draws its columns 2.. through such a view
    drawn, ref = stream(31, NETWORK), stream(31, NETWORK)
    out = np.full((n, n), 7, dtype=np.uint8)
    _draw_bernoulli(drawn, out[:, 2:], q)
    assert (out[:, :2] == 7).all()
    np.testing.assert_array_equal(out[:, 2:], ref.random((n, n - 2)) < q)
    assert drawn.random() == ref.random(), "the stream moved differently"


@pytest.mark.parametrize("n", (2, 4, 300, 1100))
def test_complementary_row_blocked_draw_matches_one_shot_reference(n):
    seed, m = 13, n // 2
    g = stream(seed, NETWORK)
    perm = g.permutation(n)
    ones = (m + 1) // 2
    pattern = np.concatenate([np.ones(ones, dtype=np.int8),
                              -np.ones(m - ones, dtype=np.int8)])
    signs = np.empty(n, dtype=np.int8)
    signs[perm[:m]] = g.permutation(pattern)
    signs[perm[m:]] = g.permutation(pattern)
    adjacency = np.zeros((n, n), dtype=np.uint8)
    adjacency[perm[:m], 0] = 1
    adjacency[perm[m:], 1] = 1
    adjacency[:, 2:] = g.random((n, n - 2)) < 0.5
    net = build_complementary_network(n, seed)
    np.testing.assert_array_equal(net.adjacency, adjacency)
    np.testing.assert_array_equal(net.signs, signs)


def test_signed_rows_matches_definition():
    net = sample_network(25, 0.7, 0.4, seed=9)
    theta = 1.0 / 25
    expected = theta * np.diag(net.signs.astype(float)) @ net.adjacency
    np.testing.assert_allclose(net.signed_rows(theta), expected)


def test_weight_decomposition_is_exact():
    # U_j V_ji - (2p-1) q = U_j (V_ji - q) + q (U_j - (2p-1)) termwise,
    # so the three scaled sums satisfy w_n_i = q w_n + w_tilde identically
    for seed, p, q in [(1, 0.8, 0.5), (2, 0.3, 0.9), (3, 0.5, 0.2)]:
        stats = compute_weight_statistics(sample_network(150, p, q, seed))
        np.testing.assert_allclose(stats.w_n_i, q * stats.w_n + stats.w_tilde,
                                   atol=1e-12)


def test_mean_square_weight_matches_exact_expectation():
    # E[(W^{N,i})^2] = q^2 4p(1-p) + q(1-q) holds at every N, not just in
    # the limit; check the across-seed average against the closed form
    p, q, n = 0.8, 0.5, 64
    target = q * q * 4 * p * (1 - p) + q * (1 - q)
    values = [compute_weight_statistics(sample_network(n, p, q, s)).mean_square_w
              for s in range(300)]
    values = np.asarray(values)
    se = values.std(ddof=1) / np.sqrt(len(values))
    assert abs(values.mean() - target) < 3 * se


def test_complementary_halves_partition_the_vertices():
    net = build_complementary_network(64, seed=11)
    col0 = np.flatnonzero(net.adjacency[:, 0])
    col1 = np.flatnonzero(net.adjacency[:, 1])
    assert len(col0) == len(col1) == 32
    assert len(np.intersect1d(col0, col1)) == 0
    assert len(np.union1d(col0, col1)) == 64


def test_complementary_sign_multisets_match():
    net = build_complementary_network(64, seed=11)
    col0 = np.flatnonzero(net.adjacency[:, 0])
    col1 = np.flatnonzero(net.adjacency[:, 1])
    assert sorted(net.signs[col0]) == sorted(net.signs[col1])
    stats = compute_weight_statistics(net)
    assert stats.w_n_i[0] == stats.w_n_i[1]


def test_complementary_sign_residual_follows_parity():
    # equal half sums force total 0 when n/2 is even, +-2 when n/2 is odd
    assert build_complementary_network(12, seed=4).sign_sum == 0
    assert abs(build_complementary_network(10, seed=4).sign_sum) == 2
    assert build_complementary_network(500, seed=4).sign_sum == 0


def test_complementary_requires_even_n():
    with pytest.raises(ParameterError):
        build_complementary_network(7, seed=1)
    with pytest.raises(ParameterError):
        build_complementary_network(0, seed=1)
    # a size is an integer, even where numpy would take a float
    for n in (10.0, 2.5, True, "10", None):
        with pytest.raises(ParameterError, match="even n >= 2"):
            build_complementary_network(n, seed=1)
        with pytest.raises(ParameterError, match="^n must be an integer"):
            sample_network(n, 0.5, 0.5, seed=1)


def test_complementary_remaining_columns_are_random():
    net = build_complementary_network(200, seed=8)
    rest = net.adjacency[:, 2:]
    se = np.sqrt(0.25 / rest.size)
    assert abs(rest.mean() - 0.5) < 4 * se


@pytest.mark.parametrize("build", [
    lambda n: sample_network(n, 0.8, 0.5, seed=1),
    lambda n: build_complementary_network(n, seed=1),
], ids=["erdos_renyi", "complementary"])
def test_unallocatable_adjacency_is_a_parameter_error(build):
    # n^2 bytes overflow numpy's size limit, so nothing is allocated
    with pytest.raises(ParameterError, match="10000000000 x 10000000000"):
        build(10 ** 10)
