"""Record the report digests of every workload at seeds 1-10 in digests.json.

    python3 bench/record_digests.py

Run it from the root of the checkout whose outputs are the reference.
``run.py`` prints, for information only, whether a run's digest matches.
"""
from __future__ import annotations

import json

import run


def main() -> None:
    cli = run.import_cli()
    out = run.ROOT / ".bench_out" / "digests"
    table = {"commit": run.code_record()["git_commit"], "seeds": "1-10",
             "workloads": {}}
    for name, sizes in run.WORKLOADS.items():
        table["workloads"][name] = {
            str(seed): run.run_once(cli, sizes["full"], seed, out)["digest"]
            for seed in range(1, 11)}
        print(name, flush=True)
    (run.BENCH_DIR / "digests.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
