"""Record the reference outputs that the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the law table and the SVG files are expected to stay
byte-identical from then on):

    python3 lawbench/record_reference.py laws 42 0 1 2     # law tables per seed
    python3 lawbench/record_reference.py svg               # SVG digests

``laws`` runs the full suite (about 20 s a seed) and stores the sha256 of
each table; for seed 42 it also stores the table itself and takes the
verdict of every law from it.  ``svg`` renders the cube-io SVG files for two
seeds and stores their digests, after checking that the seeds agree (the
rendered shapes are fixed, so they must).  Other entries are kept.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

from run import OpClock, load_program
from workloads import HERE, CubeIO, Lawlab, sha256

PATH = os.path.join(HERE, "reference.json")


def record_laws(ref: dict, seeds: list[int]) -> None:
    laws = ref.setdefault("lawlab", {"verdicts": {}, "table_sha256": {}})
    prog = load_program()
    for seed in seeds:
        report = prog.lawlab.run_suite(n_instances=Lawlab.INSTANCES, seed=seed)
        table = prog.cli.format_table(report)
        laws["table_sha256"][str(seed)] = sha256(table)
        if seed == 42:
            laws["table_seed_42"] = table.splitlines()
            laws["verdicts"] = {o.law_id: o.classification.value for o in report.outcomes}
        print(f"seed {seed}: {sha256(table)}", flush=True)


def render_svgs(seed: int) -> dict:
    prog = load_program()
    workload = CubeIO()
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        ops = workload.setup(prog, seed, workdir)["ops"]
        digests = {}
        for argv, kind, name in ops:
            with OpClock().op():
                prog.cli.main(argv)
            if kind == "svg":
                with open(argv[-1], encoding="utf-8") as handle:
                    digests[name] = sha256(handle.read())
    return digests


def record_svg(ref: dict) -> None:
    first, second = render_svgs(1), render_svgs(2)
    if first != second:
        raise SystemExit(f"SVG output depends on the seed: {first} vs {second}")
    ref["svg_sha256"] = first
    print(json.dumps(first, indent=2))


def main(argv: list[str]) -> int:
    ref = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as handle:
            ref = json.load(handle)
    if argv[:1] == ["laws"] and len(argv) > 1:
        record_laws(ref, [int(s) for s in argv[1:]])
    elif argv == ["svg"]:
        record_svg(ref)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
