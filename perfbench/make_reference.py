"""Regenerate the reference records the benchmark checks its outputs against.

    python3 perfbench/make_reference.py

* ``reference/ops.json`` — the operations DOE of ops_serial/ops_pool run
  through the ``solver: scalar`` oracle (about 20 s on one core);
* ``reference/mc_yield.json`` — the mc_yield chain at the default seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402


def write(name: str, specs, records) -> None:
    path = checks.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"specs": specs, "records": records}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    from repro import api

    ops = workloads.ops_spec(workloads.DEFAULT_SEED, solver="scalar")
    write("ops", [ops], checks.strip_volatile(api.run(ops).records))
    specs = workloads.mc_specs(workloads.DEFAULT_SEED)
    write("mc_yield", specs, [checks.strip_volatile(api.run(spec).records) for spec in specs])
    return 0


if __name__ == "__main__":
    sys.exit(main())
