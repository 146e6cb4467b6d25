"""Cluster-and-fuse walkthrough: from raw anchor samples to one detection.

Three anchors fire around the same object, each with a handful of
Monte-Carlo box and score samples.  Spatial clustering groups them,
product fusion collapses the cluster into one detection, and the two
entropy measures read off how unsure the detector still is.
"""

import numpy as np

from sim2real_al.acquisition import detection_entropies
from sim2real_al.fusion import (Anchors, bayesod_inference, cluster_anchors,
                                iou_matrix)

rng = np.random.default_rng(7)

# one object near (20, 20)-(52, 52); anchors jitter around it
gt = np.array([20.0, 20.0, 52.0, 52.0])
scores, boxes = [], []
for k in range(3):
    boxes.append(gt + rng.normal(0, 2.0, size=(10, 4)))
    logits = np.full((10, 3), -4.0)
    logits[:, 1] = 2.0                      # class 1 is the right one
    logits += rng.normal(0, 0.8, size=(10, 3))
    scores.append(1 / (1 + np.exp(-logits)))

# a distractor anchor far away, low score
far = np.array([100.0, 100.0, 120.0, 120.0])
scores.append(rng.uniform(0.05, 0.3, size=(10, 3)))
boxes.append(far + rng.normal(0, 1.0, size=(10, 4)))

# one image's anchors: (A, T, C) scores and (A, T, 4) boxes
anchors = Anchors(scores=np.stack(scores), boxes=np.stack(boxes))

mean_boxes = anchors.boxes.mean(axis=1)
print("pairwise IoU of the first two anchor mean boxes:",
      round(float(iou_matrix(mean_boxes[:1], mean_boxes[1:2])[0, 0]), 3))

# cluster k holds anchors members[offsets[k]:offsets[k + 1]], center first
members, offsets = cluster_anchors(anchors, iou_threshold=0.5)
sizes = np.diff(offsets)
print(f"{len(anchors)} anchors -> {len(sizes)} clusters (sizes {sizes.tolist()})")

# one Detections batch: a row per fused detection in each array, and
# one entropy pair per detection, computed for the whole batch at once
detections = bayesod_inference(anchors, iou_threshold=0.5)
labels = detections.class_probs.argmax(axis=1)
u_cls, u_reg = detection_entropies(detections)
for i, probs in enumerate(detections.class_probs):
    print(f"detection {i}: label={labels[i]} conf={probs[labels[i]]:.3f} "
          f"members={detections.cluster_size[i]}")
    print(f"  box mean {np.round(detections.box_mean[i], 1)}")
    print(f"  semantic entropy {u_cls[i]:.3f} nats, spatial entropy {u_reg[i]:.3f} nats")

print("\nthe fused box of the 3-anchor cluster is much tighter than any "
      "single anchor's sample cloud: covariance shrinks as 1/M.")
