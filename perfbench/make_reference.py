"""Write reference.json: each workload's digest at the default seed.

    python3 perfbench/make_reference.py

Run it only to record the outputs of a commit whose numbers are known to
be right; the benchmark counts any later drift from them as a failed pass.
"""

import json
import os
import sys

from run import OUT, THREAD_VARS


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import workloads  # after pinning threads: it loads numpy

    out_dir = OUT / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        _, payload = workload.setup(workloads.DEFAULT_SEED)[0]
        reference[name] = workload.digest(workload.run(payload, out_dir))
        print(f"{name}: digest recorded", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
