"""Record reference.json: the fingerprint of every vetted item.

Run only on a commit whose outputs are the reference (the seed commit
of the benchmark):

    python3 perfbench/record_reference.py

Each variant must exit 0 and meet its validity limits; the script
stops with exit code 1 and writes nothing if one does not.
"""

import json
import os
import shutil
import sys
import time

import checks
import worker
import workloads


def main():
    hs = worker.import_hskdv()
    if hs is None:
        return 2
    workdir = os.path.join(worker.ROOT, ".perfbench_work", "record")
    reference, bad = {}, []
    for item in workloads.all_variants():
        outdir = os.path.join(workdir, item.name)
        t0 = time.perf_counter()
        code = hs["cli"].main(item.argv + ["--out", outdir])
        seconds = time.perf_counter() - t0
        fp, problem = checks.check(item, code, outdir, None)
        shutil.rmtree(outdir, ignore_errors=True)
        print("%-18s %6.2fs %s  %s" % (item.name, seconds,
                                       problem or "ok", item.key))
        if problem:
            bad.append(item.key)
        else:
            reference[item.key] = fp
    shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("%d variants failed; reference not written" % len(bad))
        return 1
    path = os.path.join(worker.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d fingerprints to %s" % (len(reference), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
