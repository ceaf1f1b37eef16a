"""Regenerate perfbench/refs.json from the code in this checkout.

    python3 perfbench/make_refs.py

Runs every call of every workload once (robustness with the reference seed)
and records the values the correctness gate compares.  The committed file was
made at the commit that added the benchmark; regenerate it only when the
expected physics changes, never to make a failing run pass.

The Monte Carlo range used for other seeds is [lowest corner - 0.01, 1]: every
sample's error factors lie inside the box whose corners are evaluated exactly,
and the fidelity falls off fastest along the g-error axis that the corners span.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MC_RANGE_MARGIN = 0.01


def main() -> int:
    from run import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    refs = {}
    work = HERE / "out" / f"refs-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            entry = refs[name] = {}
            for call in workloads.build(name, work / name, {}, workloads.REF_SEED):
                values = call.values(call.invoke())
                entry[call.label] = values
                print(f"{name}/{call.label}: {len(values)} values", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rob = refs["robustness"]["robustness"]
    lowest = min(v for k, v in rob.items() if k.startswith("corner/"))
    refs["robustness"]["robustness_mc_range"] = [lowest - MC_RANGE_MARGIN, 1.0]
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
