import json

import numpy as np

from rfpp.acceptance import CriterionResult, SuiteReport


def test_suite_report_serialises_numpy_scalars():
    # criterion details built from numpy comparisons hold numpy.bool, which
    # json cannot encode by itself
    details = {"flat_ok": np.float64(1.0) == 1.0, "count": np.int64(3),
               "ratio": np.float32(0.5), "rows": [{"ok": np.bool_(False)}]}
    report = SuiteReport("full", [CriterionResult(
        11, "frontier density machinery", False, "tolerance", details,
        digest="0")])
    out = json.loads(report.to_json())["criteria"][0]["details"]
    assert out == {"flat_ok": True, "count": 3, "ratio": 0.5,
                   "rows": [{"ok": False}]}
