"""Print the sha256 of every scenario's report at the default seed.

    python3 perfbench/pin_digests.py > perfbench/digests.json

``digests.json`` pins the report bytes the benchmark checks.  A digest
that later differs is a defect to report, not a reason to re-pin; run
this only to pin a new workload or a deliberate report change.
"""

import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import worker, workloads  # noqa: E402


def main():
    pinned = {}
    for name in workloads.WORKLOADS:
        cli, scenarios, scenes = worker.setup(name, workloads.DEFAULT_SEED)
        pinned[name] = {
            sc.key: workloads.report_digest(worker.run_scenario(cli, scenes[sc.scene_key], sc)[2])
            for sc in scenarios
        }
    print(json.dumps(pinned, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
