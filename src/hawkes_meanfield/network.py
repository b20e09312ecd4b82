"""Random interaction networks: signed directed Erdos-Renyi graphs.

The graph is encoded by an adjacency matrix with rows indexed by the source
vertex and columns by the target: ``adjacency[j, i]`` is 1 when spikes of
vertex j feed the intensity of vertex i.  Every ordered pair is sampled
independently with probability q, self-loops included.  Each vertex also
carries a spin ``signs[j]`` in {+1, -1} (P(+1) = p) that makes it excitatory
or inhibitory towards all of its targets at once.

Only the uint8 adjacency and the int8 spins are stored: one byte per ordered
pair.  Uniforms are drawn and reduced one row block at a time, so sampling
never holds an (n, n) float matrix; the event loops read the adjacency
directly, and ``signed_rows`` is the dense definition the reconvolution
oracle and the tests check them against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, is_integer, is_real
from .rng import NETWORK, stream

__all__ = [
    "NetworkConfiguration",
    "WeightStatistics",
    "sample_network",
    "build_complementary_network",
    "compute_weight_statistics",
]

# float64 items per row block when drawing or reducing the adjacency (2 MiB)
_BLOCK_ITEMS = 1 << 18


def row_blocks(n: int, width: int):
    """Slices covering rows 0..n-1, each at most _BLOCK_ITEMS / width rows."""
    step = max(1, _BLOCK_ITEMS // width)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _draw_bernoulli(g, out, prob):
    """Fill the uint8 matrix `out` with 1{U < prob}, row block by row block.

    The matrix equals (g.random(out.shape) < prob) bit for bit, and the
    stream is left where that draw leaves it, but no double is formed.
    Generator.random maps a raw 64-bit Philox word w to U = m * 2**-53 with
    the integer m = w >> 11.  prob * 2**53 is exact (a power-of-two scaling),
    so U < prob exactly when m < k = ceil(prob * 2**53), that is when
    w < k << 11.  prob = 1 gives k << 11 = 2**64, which no uint64 holds:
    every entry is then 1, and the words are drawn all the same.  Consecutive
    blocks of raw words are the words of one (rows, width) draw; each block
    is released before the next is drawn.
    """
    rows, width = out.shape
    bits = g.bit_generator
    k = math.ceil(prob * 2.0**53)
    for sl in row_blocks(rows, width):
        block = out[sl]
        if k == 1 << 53:
            bits.random_raw(block.size)
            block.fill(1)
        else:
            np.less(bits.random_raw(block.shape), np.uint64(k << 11),
                    out=block.view(np.bool_))


def _check_n(n):
    """The one vertex-count rule of a network: an integer >= 1."""
    if not is_integer(n):
        raise ParameterError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"need at least one vertex, got n={n}")


def _check_pq(p, q):
    """The one p/q rule: both are real numbers in [0, 1]."""
    if not all(is_real(x) and 0.0 <= x <= 1.0 for x in (p, q)):
        raise ParameterError(
            f"p and q must lie in [0, 1], got p={p!r}, q={q!r}")


@dataclass(frozen=True)
class NetworkConfiguration:
    """A sampled network, immutable once constructed.

    Attributes
    ----------
    n : int
        Number of vertices.
    p : float
        Probability of an excitatory spin (+1).
    q : float
        Directed edge probability.
    adjacency : ndarray of uint8, shape (n, n)
        adjacency[j, i] == 1 iff j -> i is present.
    signs : ndarray of int8, shape (n,)
        Vertex spins, each +1 or -1.

    It holds the matrices only, not how they were made: sample_network and
    build_complementary_network draw them from a seed the caller keeps, and
    explicit matrices go to the constructor directly.
    """

    n: int
    p: float
    q: float
    adjacency: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        _check_pq(self.p, self.q)
        adj = np.asarray(self.adjacency, dtype=np.uint8)
        if adj.shape != (self.n, self.n):
            raise ContractError(
                f"adjacency must have shape ({self.n}, {self.n}), got {adj.shape}"
            )
        if adj.max(initial=0) > 1:
            raise ContractError("adjacency entries must be 0 or 1")
        signs = np.asarray(self.signs, dtype=np.int8)
        if signs.shape != (self.n,):
            raise ContractError(f"signs must have shape ({self.n},), got {signs.shape}")
        if not np.all(np.abs(signs) == 1):
            raise ContractError("signs must all be +1 or -1")
        adj.flags.writeable = False
        signs.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "signs", signs)

    @property
    def sign_sum(self) -> int:
        return int(self.signs.sum(dtype=np.int64))

    def signed_rows(self, theta: float) -> np.ndarray:
        """Dense float matrix theta * U_j * V_{ji} (8 n^2 bytes).

        The definition of the weights: the event loops build row j as
        (theta * U_j) * float(V_j.) on the fly, bit for bit equal to this
        row, and the reconvolution oracle reads this matrix.
        """
        return (theta * self.signs.astype(np.float64))[:, None] * self.adjacency


@dataclass(frozen=True)
class WeightStatistics:
    """Empirical weight functionals of one sampled network.

    w_n is the centered sign sum N^{-1/2} sum_j (U_j - (2p-1)); w_n_i its
    per-target analogue with edge weights, w_tilde the part with centered
    edges only.  The exact decomposition w_n_i = q * w_n + w_tilde holds
    entrywise up to float regrouping.
    """

    n: int
    w_n: float
    w_n_i: np.ndarray
    w_tilde: np.ndarray
    mean_square_w: float


def _empty_adjacency(n):
    """Uninitialised (n, n) uint8 matrix; ParameterError if numpy refuses."""
    try:
        return np.empty((n, n), dtype=np.uint8)
    except (ValueError, MemoryError) as exc:
        raise ParameterError(f"cannot allocate the {n} x {n} adjacency "
                             f"({n * n / 2**30:.3g} GiB): {exc}") from exc


def sample_network(n: int, p: float, q: float, seed: int) -> NetworkConfiguration:
    """Draw a signed Erdos-Renyi network.

    All n^2 ordered pairs (self-loops included) get independent Bernoulli(q)
    edges; spins are independent with P(+1) = p.  Identical seeds reproduce
    identical matrices regardless of what any simulation did before or after.
    """
    _check_n(n)
    _check_pq(p, q)
    g = stream(seed, NETWORK)
    adjacency = _empty_adjacency(n)
    _draw_bernoulli(g, adjacency, q)
    signs = np.where(g.random(n) < p, 1, -1).astype(np.int8)
    return NetworkConfiguration(n=n, p=float(p), q=float(q),
                                adjacency=adjacency, signs=signs)


def build_complementary_network(n: int, seed: int) -> NetworkConfiguration:
    """Build the deterministic-degree network with complementary targets 0 and 1.

    Vertex 0 receives from a uniformly random half of the vertices and vertex 1
    from the other half, so the two in-neighbourhoods are disjoint and both
    have size exactly n/2.  The two halves carry identical sign multisets,
    which forces the per-target weights of vertices 0 and 1 to coincide while
    their martingale inputs stay disjoint.  Remaining columns are iid
    Bernoulli(1/2) as in the plain graph.  p = q = 1/2 by construction.

    The total spin sum is 0 when n/2 is even; when n/2 is odd the equal-sum
    constraint forces |sum_j U_j| = 2, which is recorded via ``sign_sum``.
    """
    if not is_integer(n) or n < 2 or n % 2 != 0:
        raise ParameterError(f"complementary construction needs even n >= 2, got {n}")
    adjacency = _empty_adjacency(n)
    m = n // 2
    g = stream(seed, NETWORK)
    perm = g.permutation(n)
    half0, half1 = perm[:m], perm[m:]

    ones = (m + 1) // 2        # majority count; == m//2 when m is even
    pattern = np.concatenate([np.ones(ones, dtype=np.int8),
                              -np.ones(m - ones, dtype=np.int8)])
    signs = np.empty(n, dtype=np.int8)
    signs[half0] = g.permutation(pattern)
    signs[half1] = g.permutation(pattern)

    adjacency[:, 0] = 0
    adjacency[:, 1] = 0
    adjacency[half0, 0] = 1
    adjacency[half1, 1] = 1
    if n > 2:
        _draw_bernoulli(g, adjacency[:, 2:], 0.5)
    return NetworkConfiguration(n=n, p=0.5, q=0.5, adjacency=adjacency,
                                signs=signs)


def compute_weight_statistics(net: NetworkConfiguration) -> WeightStatistics:
    """Evaluate the weight functionals of one network exactly.

    Returns centered sums scaled by N^{-1/2}; every entry satisfies the
    algebraic identity w_n_i = q * w_n + w_tilde because
    U_j V_{ji} - (2p-1) q = U_j (V_{ji} - q) + q (U_j - (2p-1)) termwise.
    """
    n = net.n
    u = net.signs.astype(np.float64)
    root_n = np.sqrt(n)
    # integer-valued sums, exact in any order: one float row block at a time
    uv_col = np.zeros(n)                  # sum_j U_j V_{ji} per target i
    for sl in row_blocks(n, n):
        uv_col += u[sl] @ net.adjacency[sl].astype(np.float64)
    u_sum = u.sum()
    w_n = (u_sum - n * (2 * net.p - 1)) / root_n
    w_n_i = (uv_col - n * (2 * net.p - 1) * net.q) / root_n
    w_tilde = (uv_col - net.q * u_sum) / root_n
    return WeightStatistics(
        n=n,
        w_n=float(w_n),
        w_n_i=w_n_i,
        w_tilde=w_tilde,
        mean_square_w=float(np.mean(w_n_i**2)),
    )
