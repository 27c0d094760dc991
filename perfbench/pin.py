"""Regenerate ``pins.json``: grid points, verdicts and result digests.

Run from the repository root after a change that is *meant* to alter
simulated results (``python3 perfbench/pin.py``); a host-speed change
must leave the pins as they are.  Points are keyed by report subject
(``"<network name> <policy>(<algo>)"``, ``dyn``/``joint`` bare).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    import repro.analysis.verify as verify
    import workloads
    from repro.analysis.static_plan import verify_zoo_static
    from repro.zoo import available

    digests = {}
    original = verify.verify_result

    def capture(result, network=None, subject=""):
        digests[workloads.point_key(subject)] = \
            workloads.result_digest(result)
        return original(result, network=network, subject=subject)

    points, verdicts = {}, {}
    for name in available():
        reports = verify_zoo_static(names=[name])
        points[name] = [workloads.point_key(r.subject) for r in reports]
        verdicts.update((workloads.point_key(r.subject), workloads.verdict(r))
                        for r in reports)
    verify.verify_result = capture
    try:
        for name in workloads.DYNAMIC_NETWORKS:
            for report in verify.verify_zoo(names=[name], mode="dynamic"):
                key = workloads.point_key(report.subject)
                if workloads.verdict(report) != verdicts[key]:
                    print(f"static and dynamic verdicts differ at {key}",
                          file=sys.stderr)
                    return 1
    finally:
        verify.verify_result = original
    with open(workloads.PINS_PATH, "w") as handle:
        json.dump({"points": points, "verdicts": verdicts,
                   "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(verdicts)} verdicts, {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
