"""All six selection strategies on one toy pool, plus the label-shift story.

The pool is a skewed mixture (55/25/15/5 percent labels).  With scores
correlated to the rare label, plain TopN floods the batch with one
class; uniform sub-sampling before TopN keeps the batch close to the
pool's label distribution while still preferring informative points.
"""

import numpy as np

from sim2real_al.sampling import (select_batchbald, select_clue,
                                  select_coreset, select_random,
                                  select_subsample_topn, select_topn)

rng = np.random.default_rng(0)
n = 400
labels = rng.choice(4, size=n, p=[0.55, 0.25, 0.15, 0.05])
features = rng.normal(size=(n, 2)) + labels[:, None] * 2.0
scores = 5.0 * (labels == 3) + rng.normal(size=n)      # loves the rare class
prob_samples = rng.dirichlet(np.ones(4), size=(n, 8))  # fake MC passes
pool = list(range(n))
B = 24


def histogram(ids):
    counts = np.bincount(labels[list(ids)], minlength=4)
    return "/".join(str(c) for c in counts)


print(f"pool label counts: {histogram(pool)} (labels 0/1/2/3)\n")
picks = {
    "random": select_random(pool, B, seed=1),
    "topn": select_topn([(i, scores[i]) for i in pool], B),
    "subsample_topn": select_subsample_topn(pool, lambda ids: scores[ids],
                                            0.25, B, seed=1),
    "coreset": select_coreset(features, features[:10], B),
    "batchbald": select_batchbald(prob_samples, B, mc_count=60, seed=1),
    "clue": select_clue(features, np.abs(scores), B, seed=1),
}
for name, ids in picks.items():
    print(f"{name:15s} batch labels {histogram(ids)}")

print("\ntopn collapses onto label 3; subsample_topn keeps the batch "
      "roughly pool-shaped while still ranking by score inside the draw.")
