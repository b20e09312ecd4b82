"""Counter-based random streams.

Every stochastic object in the package draws from a Philox generator keyed by
(seed, purpose, index...) through numpy's SeedSequence spawn keys.  Streams
with different keys are statistically independent, and a consumer that skips a
stream entirely does not disturb any other stream.  That is what makes the
network reproducible across backends and intensity scalings: the graph always
comes from stream (seed, NETWORK) no matter what the event loop does later.

Stream purposes:

====================  =======================================================
key                   consumed by
====================  =======================================================
(seed, NETWORK)       adjacency then signs (or the complementary-network
                      permutation and sign pattern), in that order
(seed, CANDIDATES)    global thinning: candidate inter-arrival exponentials
(seed, VERTEX_PICK)   global thinning: uniform vertex assignment
(seed, ACCEPT)        global thinning: acceptance uniforms
(seed, TIMECHANGE, i) time-change backend, vertex i: first gap, then
                      (uniform, gap) per candidate
(seed, FLUCT, s, c)   fluctuation sample s, component c (0 = shared part:
                      scalar W then Brownian increments; c = k >= 1: scalar
                      Wtilde^k then Brownian increments for the k-th vertex);
                      the limit samplers only, not the clt experiment,
                      which uses the exact limit moments
(seed, REPLICATE, r)  replicate seed derivation (two uint32 words)
====================  =======================================================

OUTPUT_REVISION counts the changes to this layout, and to float rounding,
that moved a report, plot-data or command-line artifact of an unchanged
config.  Every manifest records it, so a replay can say when its outputs may
not be byte-identical to the run that wrote the manifest.  Bump it in the
change that regenerates the golden digests.
"""

import numpy as np

from .errors import ParameterError, is_integer

NETWORK = 0
CANDIDATES = 1
VERTEX_PICK = 2
ACCEPT = 3
TIMECHANGE = 4
FLUCT = 5
REPLICATE = 90

OUTPUT_REVISION = 1


def _check_seed(seed, name="seed"):
    """The one seed rule: an integer >= 0, a numpy one too, but no bool.

    stream checks the seed of every generator (25,209 of them in one call
    of the lln_timechange workload), so the check stays one isinstance and
    one compare.
    """
    if not (is_integer(seed) and seed >= 0):
        raise ParameterError(f"{name} must be an integer >= 0, got {seed!r}")


def stream(seed, *key):
    """Return a fresh Philox generator for the given purpose key.

    Parameters
    ----------
    seed : int
        Master seed.
    *key : int
        Purpose constant followed by any sub-indices (vertex, sample, ...).
    """
    _check_seed(seed)
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def replicate_seed(master_seed, index):
    """Derive the seed for replicate `index` of an experiment.

    The derived value is itself a full 64-bit seed, so replicates started
    from it have disjoint streams from each other and from the master.
    """
    _check_seed(master_seed)
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(REPLICATE, int(index)))
    lo, hi = ss.generate_state(2)
    return int(lo) | (int(hi) << 32)
