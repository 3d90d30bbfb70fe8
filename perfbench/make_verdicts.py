"""Write verdicts.json: the expected `classify-mix` verdict for every item.

Covers each fixture object at its own size in every mode, and the size
variants of the pairs that closure or a rule decides.  `path` records
whether the caging search ran, which sets the item's cost class.

Run from the repository root after a deliberate change to grasp verdicts:

    PYTHONPATH=src python3 perfbench/make_verdicts.py
"""

from __future__ import annotations

import json
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from classify import (OBJECTS, VARIANT_SCALES, classify, item_key,  # noqa: E402
                      scaled_object_text)

from multigrip import config, grasp, modes, objects  # noqa: E402


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = config.load_config(f"{root}/fixtures/default.cfg")
    table = modes.build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    caged = []
    original = grasp.caging_test
    grasp.caging_test = lambda *a, **k: caged.append(1) or original(*a, **k)
    warnings.simplefilter("ignore")
    verdicts = {}

    def record(name, text, scale, mode):
        desc = objects.parse_object_file(scaled_object_text(text, scale))
        caged.clear()
        result = classify(desc, cfg, table, mode)
        path = ("caging" if caged else
                "closure" if result.outcome in (grasp.GraspOutcome.FORM_CLOSURE,
                                                grasp.GraspOutcome.FORCE_CLOSURE)
                else "rule")
        verdicts[item_key(name, scale, mode)] = {
            "outcome": result.outcome.value,
            "contacts": len(result.contacts), "path": path}
        return path

    for name in OBJECTS:
        with open(f"{root}/fixtures/objects/{name}.object", encoding="utf-8") as fh:
            text = fh.read()
        for mode in range(1, len(table) + 1):
            if record(name, text, 1.0, mode) != "caging":
                for scale in VARIANT_SCALES:
                    record(name, text, scale, mode)
    with open(f"{root}/perfbench/verdicts.json", "w", encoding="utf-8") as fh:
        json.dump(verdicts, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
