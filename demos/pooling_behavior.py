"""Top-k pooling next to global average and max pooling.

A detector that scores local artifacts wants the k strongest responses
per channel, not the channel mean (which dilutes a small artifact) and
not only the single max (which is brittle). This script pools one small
map every way the package supports and then lets the two training-only
randomizations run long enough to show their statistics.
"""

import numpy as np

from localfocus import Tensor, TkpConfig
from localfocus.pooling import gap_pool, gmp_pool, rbld_probabilities, tkp_pool


def main():
    maps = np.array([[
        [0.1, 0.9, 0.1, 0.1],
        [0.1, 0.1, 0.1, 0.8],
        [0.1, 0.1, 0.9, 0.1],
        [0.1, 0.1, 0.1, 0.1],
    ]])
    print("One 4x4 channel with three strong local responses:")
    print(maps[0], end="\n\n")

    batch = Tensor(maps[None])  # the pooling ops take an N x C x H x W batch
    print(f"global average keeps {gap_pool(batch).data[0, 0]:.4f} -- the artifacts drown")
    print(f"global max keeps     {gmp_pool(batch).data[0, 0]:.4f} -- a single pixel decides")
    vec, _, pooled = tkp_pool(batch, TkpConfig(k=4))
    print(f"top-4 keeps          {vec.data[0]} (ascending)")
    print("ties resolve by flat map position, so the order is reproducible:")
    print(f"selected flat indices {pooled.selected_indices[0]}", end="\n\n")

    k, p_min, p_max = 4, 0.1, 0.3
    print(f"Rank-based dropout ramps from {p_min} (weakest kept) to {p_max} (strongest):")
    print(f"target rates {rbld_probabilities(k, p_min, p_max)}")
    print("(the regularizers run only when pooling is given an rng)")
    cfg = TkpConfig(k=k, p_min=p_min, p_max=p_max, rbld_enabled=True, rks_enabled=False)
    rng = np.random.default_rng(7)
    drops = np.zeros(k)
    trials = 4000
    for _ in range(trials):
        drops += tkp_pool(Tensor(maps[None] + 1.0), cfg, rng)[2].dropped[0]
    print(f"observed     {drops / trials}", end="\n\n")

    print("Random-k sampling picks positions uniformly without replacement,")
    print("then sorts the sampled values ascending like the top-k vector:")
    cfg = TkpConfig(k=k, rbld_enabled=False, rks_enabled=True)
    for _ in range(3):
        _, star, pooled = tkp_pool(batch, cfg, rng)
        print(f"  positions {pooled.star_indices[0]}  values {star.data[0]}")


if __name__ == "__main__":
    main()
