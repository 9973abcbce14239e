"""Workloads, their jobs, and the correctness rules applied to every job.

A workload is a round of slots.  A slot fixes the shape of an input (its
dimension, spectrum band, planted resonance); the seed draws everything
else.  Each job writes one generated document, drives `loewner.cli.main`
in process exactly as the command line would, and checks the reports
against what the generator planted.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs

# a normal-form report is wrong when its identity defect exceeds this
DEFECT_TOL = 1e-10


@dataclass(frozen=True)
class Slot:
    label: str
    q: int
    resonant: bool = False
    timevarying: bool = False
    degree: int = 0                 # families only
    nominal: tuple = ()             # families only

    @property
    def family(self) -> bool:
        return self.degree > 0

    @property
    def gated(self) -> tuple[str, ...]:
        """The commands every job of this slot runs to the end.

        A planted field's `verify` runs only when its `chain` passes, and
        that turns on roundoff (see NOTES.md): one planted job per run
        would make its job time 2 s or 14 s by a coin flip.  So the planted
        slot enters the gated statistic through its `chain`; its `verify`
        is still timed and printed.
        """
        if self.family:
            return ("normalform",)
        return ("chain",) if self.resonant else ("chain", "verify")

    def make(self, rng) -> dict:
        if self.family:
            return inputs.family_doc(rng, self.q, self.degree, self.nominal, self.resonant)
        return inputs.field_doc(rng, self.q, self.timevarying, self.resonant)


# The costliest slot leads each round, so the time left before a round is
# never judged on a cheaper one.
WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "fields-autonomous": (
        Slot("q2-resonant", 2, resonant=True),
        Slot("q3", 3),
        Slot("q2", 2),
        Slot("q2", 2),
    ),
    "fields-timevarying": (
        Slot("q3", 3, timevarying=True),
        Slot("q3", 3, timevarying=True),
        Slot("q2", 2, timevarying=True),
        Slot("q2", 2, timevarying=True),
    ),
    # working orders 6, 6, 4 and 5, window 36: for each nominal spectrum
    # the order stays the same over the whole jitter box
    "families": (
        Slot("q4-d3", 4, degree=3, nominal=(0.76, 0.52, 0.51, 0.50)),
        Slot("q3-d4", 3, degree=4, nominal=(0.76, 0.54, 0.50)),
        Slot("q4-d4", 4, degree=4, nominal=(0.77, 0.71, 0.69, 0.67)),
        Slot("q3-d3", 3, degree=3, nominal=(0.66, 0.56, 0.46)),
    ),
}


@dataclass
class Job:
    """Outcome of one job: command wall times, report digests, verdicts.

    `failures` are jobs the program itself reported as failed (nonzero
    exit, a verify check that did not pass); `wrong` are reports that
    claim success but contradict what the generator planted.  Both make
    the job count as failed.
    """

    index: int
    slot: str
    input_sha256: str
    seconds: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    shape: str = ""                 # working order and window of the reports

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.wrong)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    def gated_s(self, slot: Slot) -> float:
        """Seconds of the slot's gated commands, as measured: a failed
        job counts with the commands it ran."""
        return sum(self.seconds.get(name, 0.0) for name in slot.gated)


def _command(job: Job, name: str, source: Path, report: Path, probe=None):
    """Run one CLI command in process; return its parsed report, or None
    after recording why there is none.

    A command starts with no garbage left by earlier jobs, as a fresh
    command-line process would, and after two passes of the speed probe.
    """
    from loewner.cli import main

    err = io.StringIO()
    gc.collect()
    if probe:
        probe.record()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([name, "--input", str(source), "--output", str(report)])
    except Exception:
        # the command line would end in a traceback: a failed job, not a crash
        code = None
        job.failures.append(f"{name}: {traceback.format_exc(limit=1).splitlines()[-1]}")
    job.seconds[name] = time.perf_counter() - t0
    if code is None:
        return None
    # verify writes its report before exiting 1 on a failed check
    if code != 0 and not (name == "verify" and code == 1 and report.exists()):
        message = err.getvalue().strip().splitlines()
        job.failures.append(f"{name}: exit {code}" + (f" ({message[-1]})" if message else ""))
        return None
    text = report.read_bytes()
    job.reports[name] = hashlib.sha256(text).hexdigest()
    return json.loads(text)


def warm_up(slot: Slot, doc: dict, workdir: Path) -> Job:
    """Run the slot's first command once, filling the package's (q, order)
    tables and lazy imports before anything is timed."""
    job = Job(-1, slot.label, inputs.digest(doc))
    source = workdir / "warmup.input.json"
    source.write_text(inputs.dump(doc))
    name = "normalform" if slot.family else "chain"
    _command(job, name, source, workdir / f"warmup.{name}.json")
    return job


def run_job(index: int, slot: Slot, doc: dict, workdir: Path, probe=None) -> Job:
    job = Job(index, slot.label, inputs.digest(doc))
    source = workdir / f"job{index}.input.json"
    source.write_text(inputs.dump(doc))
    if slot.family:
        nf = _command(job, "normalform", source, workdir / f"job{index}.nf.json", probe)
        if nf is not None:
            job.shape = f"order={nf['work_order']} window={nf['work_horizon']}"
            planted = "resonant-normal-form" if slot.resonant else "linearizable"
            if nf["certificate"] != planted:
                job.wrong.append(f"certificate {nf['certificate']}, planted {planted}")
            if not nf["defect_sup"] <= DEFECT_TOL:
                job.wrong.append(f"defect_sup {nf['defect_sup']:.3g} > {DEFECT_TOL:g}")
        return job

    chain_path = workdir / f"job{index}.chain.json"
    chain = _command(job, "chain", source, chain_path, probe)
    if chain is None:
        return job
    job.shape = f"order={chain['order']}"
    found = bool(chain["resonances"]["resonances"])
    if slot.resonant and (chain["certificate"] is not None or not found):
        job.wrong.append("planted resonance not reported, or certificate issued")
    if not slot.resonant and (chain["certificate"] is None or found):
        job.wrong.append("resonance-free chain reports a resonance or no certificate")
    verify = _command(job, "verify", chain_path, workdir / f"job{index}.verify.json", probe)
    if verify is not None and verify["passed"] is not True:
        job.failures.append("verify: " + ",".join(verify["failures"]))
    return job
