"""Record the reference data that the correctness gates and the output
digests compare against, into perfbench/reference/.

Run it only at a commit whose outputs are the reference: the commit the
benchmark was defined on, or one whose change of output is intended and
reviewed.  It takes about a minute.

Usage, from the root of a checkout: python3 perfbench/record_reference.py
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402  (BLAS threads are fixed before numpy loads)
import shutil  # noqa: E402

import maps  # noqa: E402
import workloads  # noqa: E402
from runner import REFERENCE, WORK, import_qvpmaps  # noqa: E402


def run_once(wl):
    wl.clean()
    for op in wl.ops:
        out = op.run()
        if out.error is not None or out.rc not in (None, 0):
            raise SystemExit(f"{wl.name}: {op.label} failed: {out.error or out.stderr}")


def write(name, data, indent=1):
    with open(os.path.join(REFERENCE, f"{name}.json"), "w") as fh:
        json.dump(data, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def in_dir(name):
    d = os.path.join(WORK, "record", name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    os.chdir(d)


def main():
    import_qvpmaps()
    found = {}
    for cls in (workloads.Symline, workloads.Fig2Mesh, workloads.Diagrams):
        in_dir(cls.name)
        wl = cls(0, {})
        run_once(wl)
        data = dict(wl.observe(), digests=wl.digests())
        if cls is workloads.Fig2Mesh:
            data["heteroclinic_points"] = found["symline"]["heteroclinic"]
        found[cls.name] = data
        write(cls.name, data)

    in_dir("algebra")
    whole_pool = {c: (n, n) for c, (n, _) in maps.CATEGORIES.items()}
    wl = workloads.Algebra(0, {}, whole_pool)
    wl.clean()
    table = {c: {} for c in whole_pool}
    refused = []
    for op in wl.ops:
        out = op.run()
        path = op.outputs[0]
        kind, category, index = wl.expected[path]
        column = table[category].setdefault(kind, [None] * whole_pool[category][0])
        if out.rc == 0:
            column[index] = workloads.digest(path)
        else:
            refused.append(f"{op.label}: {out.stderr.strip()}")
    write("algebra", {"pool_seed": maps.POOL_SEED, "digests": table, "refused_at_record": refused},
          indent=None)
    print(f"recorded; {len(refused)} pool operations failed:", *refused, sep="\n  ")


if __name__ == "__main__":
    main()
