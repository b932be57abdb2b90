"""Write perfbench/reference.json: the CSV digests each workload must reproduce.

    python3 perfbench/make_reference.py

Runs every workload at --jobs 2 for each seed in SEEDS (pinned workloads at
the default seed only) and stores the sha256 of each CSV. Regenerate only for
a change that is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, JOBS, OUT, REFERENCE, WORKLOADS, Deadline, call_child, csv_digests

SEEDS = (DEFAULT_SEED, *range(20))


def main() -> int:
    reference: dict[str, dict[str, dict[str, str]]] = {}
    for name, wl in WORKLOADS.items():
        for seed in (DEFAULT_SEED,) if wl.pinned_seed else SEEDS:
            out_dir = OUT / "reference" / name
            args = ["--seed", str(seed), "--jobs", str(JOBS), *wl.cli_args]
            if call_child("run", out_dir, args, Deadline(600)) is None:
                return 1
            reference.setdefault(name, {})[str(seed)] = csv_digests(out_dir)
            print(name, seed, flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
