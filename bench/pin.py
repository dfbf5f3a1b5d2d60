"""Pin the stdout digest of every catalog command into ``digests.json``.

Run from the repository root, on the commit whose output is the reference:

    python3 bench/pin.py

Each command runs once through ``lagc.cli.main`` and must first pass its
independent check; the script stops without writing if any command fails,
so a digest is never pinned for a wrong output.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import HERE, SRC, WORK, execute, import_cli, materialize
from checks import check
from workloads import WORKLOADS, catalog


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli = import_cli()
    directory = WORK / "pin"
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    bad = 0
    for workload in sorted(WORKLOADS):
        for index, command in enumerate(catalog(workload)):
            rc, out, seconds = execute(cli.main, materialize(command, directory, index))
            why = check(command, rc, out)
            print(f"{workload:15s} {command.slot:22s} {seconds:8.4f}s rc={rc} {why}", flush=True)
            if why:
                bad += 1
                continue
            digests[command.key] = [rc, hashlib.sha256(out.encode()).hexdigest()]
    if bad:
        print(f"{bad} commands failed their independent check; nothing written")
        return 1
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
