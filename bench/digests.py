"""Recorded report digests, and the tool that records them.

``digests.json`` maps every unit any seed can draw to the digest of its
report, serialised as the CLI serialises it.  A run compares each unit it
completes against this table, so a change to any library output shows as a
failed unit.  Re-record only when a report is meant to change:

    python3 bench/digests.py             # every workload
    python3 bench/digests.py span-k5     # one workload

The sweep table is stored per q as one string per scanned curve (the
curve_scan order), holding the 8-hex digests of its codes for k = 3, 4, ...
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

DIGEST_FILE = Path(__file__).with_name("digests.json")
WIDTH = 8


class DigestTable:
    def __init__(self, path: Path = DIGEST_FILE):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def lookup(self, workload: str, key: str) -> str | None:
        table = self.data.get(workload, {})
        if workload != "sweep":
            return table.get(key)
        q, index, k = key.split(":")
        row = table.get(q, [])
        start = WIDTH * (int(k) - 3)
        if not 0 <= int(index) < len(row) or len(row[int(index)]) < start + WIDTH:
            return None
        return row[int(index)][start: start + WIDTH]

    def store(self, workload: str, key: str, value: str) -> None:
        table = self.data.setdefault(workload, {})
        if workload != "sweep":
            table[key] = value
            return
        q, index, k = key.split(":")
        row = table.setdefault(q, [])
        while len(row) <= int(index):
            row.append("")
        if len(row[int(index)]) != WIDTH * (int(k) - 3):
            raise ValueError(f"sweep digests must be stored in k order: {key}")
        row[int(index)] += value

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, sort_keys=True, indent=0) + "\n")


def record(names) -> int:
    import workloads

    table = DigestTable()
    workers = os.cpu_count() or 1
    failed = 0
    for name in names:
        table.data[name] = {}
        t0 = time.monotonic()
        units = workloads.all_units(name, workers)
        for unit in units:
            res = unit.run()
            problems = unit.check(res)
            if problems:
                failed += 1
                print(f"{name} {unit.key}: {problems}", file=sys.stderr)
            table.store(name, unit.key, workloads.digest(unit.payload(res)))
        print(f"{name}: {len(units)} units in {time.monotonic() - t0:.0f}s", file=sys.stderr)
        table.save()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    sys.exit(record(sys.argv[1:] or workloads.NAMES))
