"""Time overlap-lab's set-up in a fresh process and print it as JSON.

    python3 perfbench/setup_probe.py CONFIG.json

Set-up is what every invocation pays before its first check: importing the
package, parse_config, build_model and the kernel warm-up.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from overlap_lab import _kernels  # noqa: E402
from overlap_lab.cli import build_model, parse_config  # noqa: E402


def main() -> int:
    config = parse_config(sys.argv[1])
    build_model(config.measure)
    _kernels.warmup()
    elapsed = time.perf_counter() - T0
    print(json.dumps({"setup_s": elapsed,
                      "using_numba": bool(_kernels.USING_NUMBA)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
