"""`classify-mix`: grasp classification at CLI defaults over fixtures and variants.

Two cost classes: pairs decided by form/force closure or a rule (about
1-2 ms) and pairs decided by the caging search (200-1200 ms).  Their counts
are fixed by construction: every pass holds all caging-decided fixture
pairs once and every cheap pair three times (the fixture object and two
seeded size variants), so p50 sits inside the cheap class and p90 inside
the caging class.  Expected verdicts for every item any seed can draw are
in verdicts.json, written by make_verdicts.py.
"""

from __future__ import annotations

import json
import random

from common import OpFailed

from multigrip import config, grasp, modes, objects

OBJECTS = ("box", "complex_bracket", "large_cylinder", "small_cylinder",
           "thin_plate")
VARIANT_SCALES = (0.8, 0.85, 0.9, 0.95, 1.05, 1.1, 1.15, 1.2)
CHEAP_COPIES = 3  # fixture object plus two seeded size variants


def scaled_object_text(text: str, scale: float) -> str:
    """Object-file text with every length (`*_mm`) multiplied by scale."""
    if scale == 1.0:
        return text
    out = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip().endswith("_mm") and not key.lstrip().startswith("#"):
            line = f"{key}= {float(value) * scale!r}"
        out.append(line)
    return "\n".join(out) + "\n"


def item_key(name: str, scale: float, mode: int) -> str:
    return f"{name}@{scale:g}#{mode}"


def classify(desc, cfg, table, mode):
    return grasp.classify_grasp(
        desc.spec, table.entry(mode), face_width=cfg.face_width,
        thin_threshold=cfg.thin_object, stroke=cfg.stroke_limit)


class ClassifyMix:
    def __init__(self, seed: int, root: str):
        self.cfg = config.load_config(f"{root}/fixtures/default.cfg")
        self.table = modes.build_mode_table(self.cfg.counts, self.cfg.order_3s,
                                            self.cfg.order_4s)
        with open(f"{root}/perfbench/verdicts.json", encoding="utf-8") as fh:
            self.verdicts = json.load(fh)
        texts = {}
        for name in OBJECTS:
            with open(f"{root}/fixtures/objects/{name}.object", encoding="utf-8") as fh:
                texts[name] = fh.read()
        rng = random.Random(seed)
        cheap, caging = [], []
        for name in OBJECTS:
            for mode in range(1, len(self.table) + 1):
                path = self.verdicts[item_key(name, 1.0, mode)]["path"]
                if path == "caging":
                    caging.append((name, 1.0, mode))
                    continue
                same_path = [s for s in VARIANT_SCALES
                             if self.verdicts[item_key(name, s, mode)]["path"] == path]
                scales = [1.0] + rng.sample(same_path, CHEAP_COPIES - 1)
                cheap += [(name, s, mode) for s in scales]
        rng.shuffle(cheap)
        rng.shuffle(caging)
        # spread the caging items evenly so any prefix keeps the class shares
        order = []
        for j, item in enumerate(caging):
            order += cheap[len(order) - j:(j + 1) * len(cheap) // len(caging)]
            order.append(item)
        descs = {}
        for name, scale, _ in order:
            if (name, scale) not in descs:
                descs[name, scale] = objects.parse_object_file(
                    scaled_object_text(texts[name], scale))
        self.items = [(item_key(n, s, m), descs[n, s], m) for n, s, m in order]
        # the same caging pairs warm up for every seed (small cylinder, thin
        # plate), so set-up time does not depend on the seed
        self.warmup_items = [max((i for i in self.items if self._kind(i) == kind),
                                 key=lambda i: i[0])
                             for kind in ("cheap", "disk", "polygon")]

    def _kind(self, item) -> str:
        if self.verdicts[item[0]]["path"] != "caging":
            return "cheap"
        return "disk" if isinstance(item[1].spec.shape, objects.Circle) else "polygon"

    def op(self, item):
        return classify(item[1], self.cfg, self.table, item[2])

    def check(self, item, result) -> None:
        want = self.verdicts[item[0]]
        if result.outcome.value != want["outcome"] or len(result.contacts) != want["contacts"]:
            raise OpFailed(f"{item[0]}: {result.outcome.value} with "
                           f"{len(result.contacts)} contacts, expected "
                           f"{want['outcome']} with {want['contacts']}")
