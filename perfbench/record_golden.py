"""Record the output digests that the benchmark compares against.

    python3 perfbench/record_golden.py

Run it at a commit whose outputs are trusted; it takes about forty
minutes.  It writes perfbench/golden.json afresh with one digest per
operation: the recorded rounds of the check workload (CheckWorkload.cycle)
and round 0 of the cli workload, whose rounds repeat its commands, for
seeds 0 .. GOLDEN_SEEDS-1, and every input the search workload can draw,
whatever the seed.  An operation whose output fails its own check is not
recorded, and the script exits 1.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def search_ops():
    import bihomega as bh
    from workloads import (LIE_SCALES, TWO_DIM_PARAMS, WEIGHTS,
                           SearchWorkload, lie_instance, two_dim_instance)
    w = SearchWorkload(0)
    for choice in range(len(TWO_DIM_PARAMS)):
        two = two_dim_instance(bh, choice)
        for weight in WEIGHTS:
            yield w._rb_op(bh, f"search/rb/two_dim/{choice}/{weight}", two,
                           weight)
        yield w._pairs_op(bh, f"search/pairs/two_dim/{choice}", two)
    for scale in LIE_SCALES:
        lie = lie_instance(bh, scale)
        for weight in WEIGHTS:
            yield w._rb_op(bh, f"search/rb/lie/{scale}/{weight}", lie, weight)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import bihomega.cli  # noqa: F401  (the cli ops look it up at call time)
    from workloads import GOLDEN_SEEDS, CheckWorkload, make_workload

    golden = {}
    bad = 0

    def record(ops):
        nonlocal bad
        for op in ops:
            ok, dig = op.check(op.run())
            if ok:
                golden[op.key] = dig
            else:
                bad += 1
                print(f"not recorded: {op.key} fails its check",
                      file=sys.stderr)

    record(search_ops())
    for name, rounds in (("check", CheckWorkload.cycle), ("cli", 1)):
        for seed in range(GOLDEN_SEEDS):
            workload = make_workload(name, seed)
            for r in range(rounds):
                record(workload.ops(r))
            workload.cleanup()
            print(f"{name}/{seed}: {len(golden)} digests so far",
                  file=sys.stderr)
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
