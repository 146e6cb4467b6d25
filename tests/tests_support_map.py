"""Shared brute-force mAP oracle and the enumerated instance family.

The oracle maximizes AP over every valid injective detection-to-GT
matching, independently of the greedy evaluator under test.  Instances
use pairwise-disjoint GT boxes and detections that overlap at most one
GT, where greedy confidence-ordered matching is provably optimal.
"""

import itertools

import numpy as np
from tests_support_reference import Detection, Scene

from sim2real_al import loop as al
from sim2real_al.fusion import iou_matrix


def make_det(cls, conf, box, n_classes=2):
    probs = np.zeros(n_classes)
    probs[cls] = conf
    return Detection(class_probs=probs, box_mean=np.asarray(box, float),
                     box_cov=np.eye(4))


def make_scene(classes, boxes):
    return Scene(gt_classes=np.asarray(classes, int),
                 gt_boxes=np.asarray(boxes, float).reshape(-1, 4))


def brute_force_map(dets_per_img, scenes, thr):
    """Mean over GT classes of the max AP over all valid matchings."""
    classes = sorted({int(c) for s in scenes for c in s.gt_classes})
    aps = []
    for cls in classes:
        dets = []
        for img, ds in enumerate(dets_per_img):
            for di, d in enumerate(ds):
                if d.label == cls:
                    dets.append((d.confidence, img, di, d.box_mean))
        dets.sort(key=lambda d: (-d[0], d[1], d[2]))
        gts = [(img, gi) for img, s in enumerate(scenes)
               for gi, c in enumerate(s.gt_classes) if int(c) == cls]
        cand = []
        for _, img, _, box in dets:
            overlaps = iou_matrix([box], scenes[img].gt_boxes)[0]
            opts = [None]
            for g_img, gi in gts:
                if g_img == img and overlaps[gi] >= thr:
                    opts.append((g_img, gi))
            cand.append(opts)
        best = 0.0
        for choice in (itertools.product(*cand) if cand else [()]):
            used = [c for c in choice if c is not None]
            if len(used) != len(set(used)):
                continue
            tp = np.array([c is not None for c in choice], dtype=float)
            best = max(best, al._average_precision(tp, len(gts)))
        aps.append(best)
    return float(np.mean(aps))


def build_instances():
    """Every configuration of <= 3 disjoint GT boxes and <= 3 detections,
    each detection either on one GT (1px offset) or in empty space."""
    gt_boxes = [[0.0, 0, 10, 10], [20.0, 20, 30, 30], [40.0, 0, 50, 10]]
    confs = [0.9, 0.8, 0.7]
    instances = []
    for n_gt in (1, 2, 3):
        scene = make_scene([0] * n_gt, gt_boxes[:n_gt])
        for n_det in (0, 1, 2, 3):
            for targets in itertools.product(range(n_gt + 1), repeat=n_det):
                dets = []
                for d, tgt in enumerate(targets):
                    if tgt < n_gt:
                        box = np.asarray(gt_boxes[tgt]) + [1, 0, 1, 0]
                    else:
                        box = np.array([70.0 + 11 * d, 70, 80 + 11 * d, 80])
                    dets.append(make_det(0, confs[d], box))
                instances.append(([dets], [scene]))
    # a few two-class configurations
    scene2 = make_scene([0, 1], [[0, 0, 10, 10], [20, 20, 30, 30]])
    instances.append(([[make_det(0, 0.9, [1, 0, 11, 10]),
                        make_det(1, 0.8, [21, 20, 31, 30])]], [scene2]))
    instances.append(([[make_det(1, 0.9, [21, 20, 31, 30]),
                        make_det(0, 0.8, [60, 60, 70, 70]),
                        make_det(1, 0.7, [1, 0, 11, 10])]], [scene2]))
    instances.append(([[make_det(0, 0.9, [1, 0, 11, 10]),
                        make_det(0, 0.8, [0, 1, 10, 11])]], [scene2]))
    return instances
