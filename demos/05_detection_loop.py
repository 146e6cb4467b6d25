"""The detection track: skill surrogate, fusion stack, mAP learning curve.

The surrogate detector's per-class output noise shrinks as labeled
instances of that class accumulate, so the mAP curve climbs from the
sim-only floor toward the real-only ceiling.  Images are scored with
the avg+sum acquisition over fused detections; sub-sampling keeps the
picked batches diverse despite the skewed pool.
"""

import numpy as np

from sim2real_al import loop as al
from sim2real_al.acquisition import AcquisitionConfig
from sim2real_al.sampling import SelectionConfig

spec = al.DetectionExperimentSpec(sim_scenes=60, pool_scenes=150,
                                  test_scenes=80)
seed = 2

for strategy in ("subsample_topn", "random"):
    datasets, oracle, learner = al.build_detection_experiment(spec, seed)
    cfg = al.ALRunConfig(
        iterations=6,
        selection=SelectionConfig(strategy=strategy, batch_size=15,
                                  subsample_fraction=0.5),
        acquisition=AcquisitionConfig(comb="sum", agg="avg",
                                      w_cls=1.0, w_reg=0.01))
    curve = al.run_al(cfg, datasets, learner, oracle, seed)
    report = al.gap_report(curve)

    print(f"\n=== {strategy} ===")
    print(f"sim-only mAP {curve.sim_perf:.3f}, real-only mAP "
          f"{curve.real_perf:.3f}")
    print("iter  labeled  mAP    batch-icv")
    for p in curve.points:
        print(f"{p.iteration:4d}  {p.labeled_count:7d}  {p.metric:.3f}  "
              f"{p.icv:9.2f}")
    bridged = (f"{report.bridged_fraction:.1%}"
               if report.bridged_fraction is not None else "not bridged")
    print(f"95%-gap bridged at: {bridged}")

# peek inside the surrogate: skill before and after labeling everything.
# Each split is one Scenes batch: flat per-object classes and boxes, with
# offsets that mark the scenes; the oracle is pool_scenes.take
datasets, oracle, learner = al.build_detection_experiment(spec, seed)
pool = datasets.pool_scenes
print(f"\npool: {pool.n_images} scenes, {len(pool)} objects, per class "
      f"{np.bincount(pool.classes, minlength=spec.n_classes).tolist()}; "
      f"the first batch of 15 holds {len(oracle(range(15)))} objects")
sim_model = learner.with_sim(datasets.sim_scenes)
full_model = sim_model.with_real(datasets.pool_scenes)
print("per-class skill  sim-only:", np.round(sim_model.competence(), 3),
      " after all pool labels:", np.round(full_model.competence(), 3))
print("(class 0 dominates the skewed pool, class 2 is rare; uncertainty "
      "scoring hunts exactly the classes with low skill)")
