"""Regenerate the stored reference outputs in perfbench/references/.

Run from the root of a checkout, only when a change to the program is meant
to change its outputs:

    python3 perfbench/make_references.py [--workload NAME] [--scale full|smoke]

Each input variant runs once with the BLAS thread count pinned to 1, must
pass its workload checks, and has its numeric output fields stored.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

from worker import import_hcderiv, pin_threads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--scale", action="append")
    args = parser.parse_args(argv)
    root = os.getcwd()
    pin_threads()
    import_hcderiv(root)
    import workloads

    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "references-work")
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        for scale in args.scale or workloads.SCALES:
            count = 1 if name == "radius" else workloads.VARIANTS
            variants = {}
            for variant in range(count):
                inputs = workloads.prepare(name, variant, scale, work)
                opdir = os.path.join(work, "op")
                os.makedirs(opdir, exist_ok=True)
                out = workloads.run_op(inputs, opdir)
                if out["rc"] != 0:
                    raise SystemExit(f"{name} {scale} variant {variant}: exit code {out['rc']}")
                fields, problems, rate_gap = workloads.output_fields(inputs, out)
                if problems:
                    raise SystemExit(f"{name} {scale} variant {variant}: {problems}")
                variants[str(variant)] = fields
                print(f"{name} {scale} variant {variant}: {len(fields)} fields, rate gap {rate_gap}")
            path = os.path.join(workloads.REFERENCE_DIR, f"{name}-{scale}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump({"workload": name, "scale": scale, "variants": variants}, fh,
                          indent=1, sort_keys=True)
                fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
