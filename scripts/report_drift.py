#!/usr/bin/env python3
"""Run the command line on the seeded benchmark documents, and compare two such runs.

    python scripts/report_drift.py run DIR [--seeds 11 12 13] [--rounds 2]
    python scripts/report_drift.py compare BASE DIR

`run` generates the documents of every perfbench workload (its generators
are imported read-only from `perfbench/`) for the given seeds and rounds,
exactly as `perfbench/run.py` draws them, and drives `loewner.cli.main` in
process from the `src/` next to this script: `analyze`, `normalform`,
`chain` and `verify` (on the chain) for a field, `normalform` for a family.
DIR receives every report and `exits.json`, the exit code of each command.

`compare` reads two such directories and prints, per workload and command:
how many reports are byte-identical, every changed exit code or `passed`
flag, and the largest drift of each top-level key over all its numbers,
as `rel` = max |a - b| / max(|a|, |b|) and `scaled` = max |a - b| over
max(1, largest |number| under that key).  For verify's checks it counts
the numbers that rose and fell.  Its exit code is 1 when an exit code or a
`passed` flag changed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _commands(family: bool) -> tuple[str, ...]:
    return ("normalform",) if family else ("analyze", "normalform", "chain", "verify")


def run(out: Path, seeds, rounds: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import inputs
    import workloads
    from loewner.cli import main

    out.mkdir(parents=True, exist_ok=True)
    exits = {}
    for name, slots in workloads.WORKLOADS.items():
        for seed in seeds:
            for r in range(rounds):
                for i, slot in enumerate(slots):
                    # perfbench/run.py's draw for job r * len(slots) + i
                    doc = slot.make(np.random.default_rng([seed, r * len(slots) + i]))
                    job = f"{name}-s{seed}-r{r}-{i}"
                    source = out / f"{job}.input.json"
                    source.write_text(inputs.dump(doc))
                    for cmd in _commands(slot.family):
                        src = out / f"{job}.chain.json" if cmd == "verify" else source
                        argv = [cmd, "--input", str(src), "--output", str(out / f"{job}.{cmd}.json")]
                        try:
                            with contextlib.redirect_stdout(io.StringIO()), \
                                    contextlib.redirect_stderr(io.StringIO()):
                                exits[f"{job}.{cmd}"] = main(argv)
                        except Exception as e:  # a traceback on the command line
                            exits[f"{job}.{cmd}"] = f"raised {type(e).__name__}"
                    print(job, " ".join(f"{c}={exits[f'{job}.{c}']}"
                                        for c in _commands(slot.family)), flush=True)
    (out / "exits.json").write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")


def _numbers(value, path=()):
    """(path, number) for every int or float leaf, bools and None excluded."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _numbers(value[k], path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _numbers(v, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _passed(value, path=()):
    """{path: flag} for every `passed` entry."""
    flags = {}
    if isinstance(value, dict):
        for k, v in value.items():
            if k == "passed":
                flags[path] = v
            else:
                flags.update(_passed(v, path + (k,)))
    return flags


def compare(base: Path, new: Path) -> int:
    exits_a = json.loads((base / "exits.json").read_text())
    exits_b = json.loads((new / "exits.json").read_text())
    changed = 0
    for key in sorted(set(exits_a) | set(exits_b)):
        if exits_a.get(key) != exits_b.get(key):
            changed += 1
            print(f"exit code changed: {key}: {exits_a.get(key)} -> {exits_b.get(key)}")

    # (workload, command) -> counts, and top-level key -> [rel, diff, scale]
    reports = defaultdict(lambda: {"n": 0, "identical": 0, "keys": {}, "structure": 0})
    checks = defaultdict(lambda: [0, 0, 0.0, 0.0])   # rose, fell, largest before, after
    for path_b in sorted(new.glob("*.json")):
        name = path_b.name
        path_a = base / name
        if name == "exits.json" or name.endswith(".input.json") or not path_a.exists():
            continue
        job, cmd, _ = name.rsplit(".", 2)
        group = reports[(job.split("-s")[0], cmd)]
        group["n"] += 1
        text_a, text_b = path_a.read_bytes(), path_b.read_bytes()
        if text_a == text_b:
            group["identical"] += 1
            continue
        a, b = json.loads(text_a), json.loads(text_b)
        flags_a = _passed(a)
        for flag_path, flag in _passed(b).items():
            before = flags_a.get(flag_path)
            if before != flag:
                changed += 1
                print(f"passed changed: {name} {'.'.join(flag_path) or '(top)'}: {before} -> {flag}")
        for key in sorted(set(a) | set(b)):
            num_a, num_b = list(_numbers(a.get(key))), list(_numbers(b.get(key)))
            if [p for p, _ in num_a] != [p for p, _ in num_b]:
                group["structure"] += 1
                print(f"structure differs: {name} key {key}")
                continue
            stats = group["keys"].setdefault(key, [0.0, 0.0, 1.0])
            for (p, x), (_, y) in zip(num_a, num_b):
                diff = abs(x - y)
                stats[0] = max(stats[0], diff / max(abs(x), abs(y)) if diff else 0.0)
                stats[1] = max(stats[1], diff)
                stats[2] = max(stats[2], abs(x))
                if key == "checks" and diff:
                    c = checks[".".join(map(str, p))]
                    c[0 if y > x else 1] += 1
                    c[2], c[3] = max(c[2], x), max(c[3], y)

    for (workload, cmd), group in sorted(reports.items()):
        print(f"{workload} {cmd}: {group['n']} reports, {group['identical']} byte-identical"
              + (f", {group['structure']} with other structure" if group["structure"] else ""))
        for key, (rel, diff, scale) in sorted(group["keys"].items()):
            if diff:
                print(f"    {key:28s} rel {rel:.2e}  scaled {diff / scale:.2e}")
    for name, (rose, fell, before, after) in sorted(checks.items()):
        print(f"verify checks.{name}: rose {rose}, fell {fell}, largest {before:.3e} -> {after:.3e}")
    print(f"{changed} exit codes or passed flags changed")
    return 1 if changed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="write every report of the seeded documents to DIR")
    r.add_argument("dir", type=Path)
    r.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    r.add_argument("--rounds", type=int, default=2)
    c = sub.add_parser("compare", help="compare the reports of two runs")
    c.add_argument("base", type=Path)
    c.add_argument("dir", type=Path)
    args = ap.parse_args()
    if args.mode == "run":
        run(args.dir, args.seeds, args.rounds)
    else:
        sys.exit(compare(args.base, args.dir))
