"""Record the output digest of every op at the default seed.

    python3 perfbench/record_digests.py [workload ...]

Writes perfbench/digests.json.  run.py fails any op whose output no
longer matches: seed-independent ops (catalog instances, whose outputs
do not depend on the generator the seed picks) are checked at every
seed, seed-bound ops at the default seed.  Re-record only for a change
that is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main(names: list[str]) -> int:
    path = run.HERE / "digests.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    sys.path.insert(0, str(run.ROOT / "src"))
    for name in names or sorted(run.workloads.WORKLOADS):
        wl = run.workloads.WORKLOADS[name]
        checker = run.Checker({}, run.DEFAULT_SEED)
        _, _, state, _ = run.timed_setup(wl, run.DEFAULT_SEED, "full", 1)
        try:
            m = run.measure(state.ops, checker, 0.0, wl.deadline_s, max_passes=1)
        finally:
            state.close()
        if m.failed:
            for reason, count in m.failures.items():
                print(f"{name}: failure x{count}: {reason}", file=sys.stderr)
            return 1
        recorded[name] = dict(sorted(checker.fresh.items()))
        print(f"{name}: {len(checker.fresh)} digests")
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
