"""Committed reference results, keyed by job fingerprint.

``refs.txt`` holds one line per universe job: the first
``KEY_CHARS`` hex digits of the job fingerprint and the first
``KEY_CHARS`` hex digits of the SHA-256 of the canonical JSON of its
:func:`repro.flow.result_summary`, as computed by a direct
:func:`repro.flow.run_experiment` call. A benchmark op is correct when
the SHA-256 of the canonical JSON of the summary it got back starts
with the committed digest, so served and in-process results are both
held to byte equality with ``run_experiment``.

Lines starting with ``# digest`` pin the op-sequence digest of seed 0
for each workload, so a changed generator is caught too.

Regenerate with ``python3 perfbench/refs.py`` (a few minutes), or only
the digest lines with ``python3 perfbench/refs.py --digests-only``.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
from typing import Dict, List, Mapping, Tuple

HERE = pathlib.Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.txt"
KEY_CHARS = 16

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from repro.flow import result_summary, run_experiment  # noqa: E402
from repro.io import canonical_json  # noqa: E402

import workloads  # noqa: E402


def summary_digest(summary: Mapping) -> str:
    """Truncated SHA-256 of a summary's canonical JSON."""
    doc = canonical_json(dict(summary)).encode("ascii")
    return hashlib.sha256(doc).hexdigest()[:KEY_CHARS]


def fp_key(fingerprint: str) -> str:
    return fingerprint[:KEY_CHARS]


def load() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(fingerprint key -> summary digest, workload -> seed-0 digest)."""
    refs: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    with open(REFS_PATH, encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if parts[:2] == ["#", "digest"]:
                digests[parts[2]] = parts[3]
            elif parts and not parts[0].startswith("#"):
                refs[parts[0]] = parts[1]
    return refs, digests


def _reference(job) -> str:
    result = run_experiment(
        job.app, scale=job.scale, seed=job.seed, params=job.params,
        simulate=job.simulate, design_overrides=job.design_overrides or None,
        graph_source=job.graph_source,
    )
    return summary_digest(result_summary(result))


def main(argv: List[str]) -> int:
    lines = ["# perfbench reference summaries: fingerprint[:16] "
             "sha256(canonical summary)[:16]"]
    lines += [f"# digest {w} {workloads.sequence_digest(w, 0)}"
              for w in workloads.WORKLOADS]
    if argv == ["--digests-only"]:
        # The generator changed but not the universe: keep the rows.
        rows = load()[0]
    else:
        rows = compute_rows()
    lines += [f"{k} {v}" for k, v in sorted(rows.items())]
    REFS_PATH.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(rows)} references to {REFS_PATH}", file=sys.stderr)
    return 0


def compute_rows() -> Dict[str, str]:
    rows: Dict[str, str] = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.universe(workload)
        for i, job in enumerate(jobs):
            key = fp_key(job.fingerprint())
            if key in rows:
                raise SystemExit(f"fingerprint key collision: {key}")
            rows[key] = _reference(job)
            if i % 500 == 0:
                print(f"{workload}: {i}/{len(jobs)}", file=sys.stderr)
    return rows


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
