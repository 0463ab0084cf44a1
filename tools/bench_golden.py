#!/usr/bin/env python3
"""Golden fingerprints of every bench's stats JSON.

Each entry of RUNS names one golden: a bench binary, the reduced
environment it runs under and one or more argument lists.  Every
argument list must produce the same canonical VSTREAM_STATS_JSON -
the "vstream-bench-1" / "vstream-soak-1" document with every
`wall_clock_seconds` key removed, re-serialised compactly in
document order - and its SHA-256 must match the line committed in
tests/golden/bench_fingerprints.txt.  Running one golden under
several `--jobs` / `--shards` values therefore pins both the model
output and its independence from the worker and shard counts.

The top-level CMakeLists.txt registers one ctest per golden line
(`golden_<name>`), so `ctest -j` spreads them across cores.

Usage:
  tools/bench_golden.py --bench-dir build/bench --check NAME
  tools/bench_golden.py --bench-dir build/bench --check-all
  tools/bench_golden.py --bench-dir build/bench --update

A change that alters model output on purpose regenerates the file
with --update in the same commit and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / \
    "golden" / "bench_fingerprints.txt"

# Reduced size shared by the figure benches.
SMALL = {"VSTREAM_FRAMES": "8"}

# golden name -> (bench binary, environment, argument lists)
RUNS: dict[str, tuple[str, dict[str, str], list[list[str]]]] = {
    name: (name, SMALL, [["--jobs", "4"]])
    for name in (
        "bench_ablation_dvfs",
        "bench_ablation_mapping",
        "bench_ablation_te",
        "bench_ablation_write_queue",
        "bench_dcc_combo",
        "bench_fault_sweep",
        "bench_fig01_breakdown",
        "bench_fig02_cdf",
        "bench_fig04_batching",
        "bench_fig05_actpre",
        "bench_fig06_race_to_sleep",
        "bench_fig07_locality",
        "bench_fig09_mach",
        "bench_fig10_display",
        "bench_fig12_sensitivity",
    )
}
RUNS["bench_fig11_energy"] = (
    "bench_fig11_energy", SMALL, [["--jobs", "1"], ["--jobs", "4"]])
RUNS["bench_dedup"] = (
    "bench_dedup", SMALL, [["--sessions", "200", "--jobs", "4"]])
# Manager mode fails its own invariants at 8 frames, so it keeps the
# default frame count and runs fewer sessions instead.
RUNS["bench_soak"] = (
    "bench_soak", {}, [["--sessions", "60", "--jobs", "4"]])
# Fleet sessions have a fixed length; 400 is the smallest fleet whose
# admission queue still engages (a soak invariant).
RUNS["bench_soak_fleet"] = (
    "bench_soak", {},
    [["--shards", "1", "--sessions", "400"],
     ["--shards", "4", "--sessions", "400", "--jobs", "4"]])


def strip_wall_clock(node):
    """Drop every wall_clock_seconds key, recursively."""
    if isinstance(node, dict):
        return {k: strip_wall_clock(v) for k, v in node.items()
                if k != "wall_clock_seconds"}
    if isinstance(node, list):
        return [strip_wall_clock(v) for v in node]
    return node


def fingerprint(bench_dir: pathlib.Path, name: str) -> str:
    """Run every variant of golden @name; return the shared digest."""
    binary, env_extra, arg_lists = RUNS[name]
    digests = []
    with tempfile.TemporaryDirectory(prefix="vstream-golden-") as tmp:
        for args in arg_lists:
            out = pathlib.Path(tmp) / "stats.json"
            env = dict(os.environ)
            for var in ("VSTREAM_FRAMES", "VSTREAM_WIDTH",
                        "VSTREAM_HEIGHT", "VSTREAM_JOBS",
                        "VSTREAM_SOAK_SESSIONS",
                        "VSTREAM_DEDUP_SESSIONS"):
                env.pop(var, None)
            env.update(env_extra)
            env["VSTREAM_STATS_JSON"] = str(out)
            cmd = [str(bench_dir / binary)] + args
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  check=False)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout[-4000:])
                raise SystemExit(f"{name}: {' '.join(cmd)} exited "
                                 f"{proc.returncode}")
            doc = strip_wall_clock(json.loads(out.read_text()))
            canon = json.dumps(doc, separators=(",", ":"),
                               ensure_ascii=False)
            digests.append(
                hashlib.sha256(canon.encode("utf-8")).hexdigest())
    if len(set(digests)) != 1:
        runs = "; ".join(f"{' '.join(a)} -> {d[:16]}"
                         for a, d in zip(arg_lists, digests))
        raise SystemExit(f"{name}: output depends on the run: {runs}")
    return digests[0]


def read_golden() -> dict[str, str]:
    table = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            name, digest = line.split()
            table[name] = digest
    return table


def write_golden(table: dict[str, str]) -> None:
    lines = [
        "# SHA-256 of each bench's canonical stats JSON (minus",
        "# wall_clock_seconds) at reduced size; see",
        "# tools/bench_golden.py.  Regenerate with --update.",
    ]
    lines += [f"{name} {table[name]}" for name in sorted(table)]
    GOLDEN.write_text("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True, type=pathlib.Path)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", metavar="NAME")
    mode.add_argument("--check-all", action="store_true")
    mode.add_argument("--update", action="store_true")
    opts = ap.parse_args()

    if opts.update:
        write_golden({name: fingerprint(opts.bench_dir, name)
                      for name in RUNS})
        print(f"wrote {GOLDEN}")
        return 0

    golden = read_golden()
    names = sorted(RUNS) if opts.check_all else [opts.check]
    failed = 0
    for name in names:
        if name not in RUNS or name not in golden:
            print(f"{name}: no such golden")
            failed += 1
            continue
        got = fingerprint(opts.bench_dir, name)
        if got != golden[name]:
            print(f"{name}: fingerprint {got} != golden {golden[name]}")
            failed += 1
        else:
            print(f"{name}: ok {got[:16]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
