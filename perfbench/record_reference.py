"""Record the exact workload's reference values at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/exact_reference.json from one `overlap-lab oracle` run on
the seed-0 exact measure. Re-record only after a change that is meant to
alter exact estimates, and say why in the change that does it.
"""

import json
import shutil
import sys
import time

import gate
from run import DEADLINE_S, REFERENCE, ROOT, Runner
from workloads import exact_oracle


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / "reference"
    tmp.mkdir(parents=True)
    try:
        wl = exact_oracle(ROOT, tmp, 0)
        exact = next(inv for inv in wl.timed if inv.expect == "exact")
        result = Runner(tmp, time.perf_counter() + DEADLINE_S).invoke(exact)
        rows = gate.reference_rows(result.reports.rows)
    finally:
        shutil.rmtree(tmp)
    REFERENCE.write_text(json.dumps({"seed": 0, "rows": rows}, indent=1)
                         + "\n")
    print(f"wrote {len(rows)} reference rows to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
