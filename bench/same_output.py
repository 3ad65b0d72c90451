"""Check that the working tree's commands print what a base commit's print.

Run from the repository root:

    python3 bench/same_output.py --base HEAD~1

Every config recorded in ``perfbench/refs/*.jsonl`` runs through
``chapgas.cli.main`` on the files of the base commit (exported with
``git archive``, as ``bench/ab.py`` does) and on the working tree, in one
process per tree. Both read the same config files. The script lists each
config whose exit code, stdout sha256 or stderr sha256 differs between the
two trees, and exits 1 if any does, 0 if none does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import export, git

# One tree's pass, in a child process: argv is the tree's src directory and
# a file of [id, argv] lines; it prints [id, exit code, stdout sha256,
# stderr sha256] per line. A traceback counts as exit code null.
RUNNER = r"""
import contextlib, hashlib, io, json, sys, traceback
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import chapgas.cli
if Path(chapgas.cli.__file__).resolve().parent != src / "chapgas":
    sys.exit(f"imported chapgas from {chapgas.cli.__file__}, not {src}")
def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
for line in open(sys.argv[2], encoding="utf-8"):
    ident, argv = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = chapgas.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
    print(json.dumps([ident, code, sha(out.getvalue()), sha(err.getvalue())]))
"""


def write_jobs(root: Path, scratch: Path) -> Path:
    """One config file per ref, and the jobs file that lists their argv."""
    configs = scratch / "configs"
    configs.mkdir()
    jobs = scratch / "jobs.jsonl"
    refs = sorted((root / "perfbench" / "refs").glob("*.jsonl"))
    lines = [line for path in refs for line in path.read_text(encoding="utf-8").splitlines()]
    with jobs.open("w", encoding="utf-8") as fh:
        for i, ref in enumerate(map(json.loads, lines)):
            path = configs / f"{i}.json"
            path.write_text(json.dumps(ref["config"], sort_keys=True) + "\n", encoding="utf-8")
            fh.write(json.dumps([ref["id"], [ref["command"], "--config", str(path)]]) + "\n")
    return jobs


def outcomes(tree: Path, jobs: Path) -> dict:
    """{id: [exit code, stdout sha256, stderr sha256]} of every job on tree."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tree / "src"), str(jobs)],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return {ident: rest for ident, *rest in map(json.loads, proc.stdout.splitlines())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    args = ap.parse_args(argv)

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    base = git("rev-parse", args.base, cwd=root)
    scratch = Path(tempfile.mkdtemp(prefix="same-output-"))
    try:
        jobs = write_jobs(root, scratch)
        export(base, scratch / "base", root)
        before = outcomes(scratch / "base", jobs)
        after = outcomes(root, jobs)
    finally:
        shutil.rmtree(scratch)

    fields = ("exit", "stdout", "stderr")
    differ = 0
    for ident in before:
        changed = [f for f, a, b in zip(fields, before[ident], after[ident]) if a != b]
        if changed:
            differ += 1
            codes = f"exit {before[ident][0]} -> {after[ident][0]}"
            print(f"differs: {ident}: {', '.join(changed)} ({codes})")
    print(f"{len(before)} configs against {base[:12]}: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
