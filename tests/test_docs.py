"""Docs lint: the documentation must stay navigable and truthful.

Cheap static checks, run as part of tier-1 so documentation drift fails
the build like a code regression would:

* every relative link or file reference in README/EXPERIMENTS/DESIGN
  points at something that exists in the checkout;
* every CLI subcommand is documented in the README;
* every benchmark artifact script is documented in benchmarks/README.md.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
        "benchmarks/README.md"]

_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")


def _links(doc):
    text = (REPO / doc).read_text()
    for match in _LINK.finditer(text):
        target = match.group(1).strip()
        if target and "://" not in target and not target.startswith("mailto:"):
            yield target


@pytest.mark.parametrize("doc", DOCS)
def test_doc_exists(doc):
    assert (REPO / doc).is_file(), f"{doc} is referenced by the docs lint"


@pytest.mark.parametrize("doc", DOCS)
def test_internal_links_resolve(doc):
    base = (REPO / doc).parent
    broken = [t for t in _links(doc) if not (base / t).exists()]
    assert not broken, f"{doc} has broken relative links: {broken}"


def test_every_cli_subcommand_is_documented_in_readme():
    from repro.cli.main import build_parser

    parser = build_parser()
    (subparsers,) = [
        action for action in parser._subparsers._group_actions
        if hasattr(action, "choices")
    ]
    readme = (REPO / "README.md").read_text()
    missing = [cmd for cmd in subparsers.choices if cmd not in readme]
    assert not missing, f"README.md does not mention CLI subcommands: {missing}"


def test_readme_documents_every_trace_format():
    from repro.traces.ingest import available_formats

    readme = (REPO / "README.md").read_text()
    missing = [fmt for fmt in available_formats() if f"`{fmt}`" not in readme]
    assert not missing, f"README.md does not mention trace formats: {missing}"


def test_benchmarks_readme_covers_every_bench_script():
    doc = (REPO / "benchmarks" / "README.md").read_text()
    scripts = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert scripts, "no benchmark scripts found"
    missing = [s for s in scripts if s not in doc]
    assert not missing, f"benchmarks/README.md does not document: {missing}"


def test_benchmarks_readme_covers_every_artifact():
    """Each bench script's BENCH_*.json artifact name appears in the doc."""
    doc = (REPO / "benchmarks" / "README.md").read_text()
    artifacts = set()
    for script in (REPO / "benchmarks").glob("bench_*.py"):
        artifacts.update(re.findall(r"BENCH_\w+\.json", script.read_text()))
    assert artifacts, "no artifacts referenced by benchmark scripts"
    missing = sorted(a for a in artifacts if a not in doc)
    assert not missing, f"benchmarks/README.md does not document: {missing}"


def test_design_documents_bit_identity_guarantees():
    """DESIGN.md must keep the single section spelling out when results
    are bit-identical (tier off, faults off, obs off)."""
    design = (REPO / "DESIGN.md").read_text().lower()
    assert "bit-identical" in design or "bit identical" in design
    for needle in ("tier", "fault", "obs"):
        assert needle in design


def test_experiments_table_ids_are_unique():
    """Every row of the EXPERIMENTS.md claims table carries a unique ID,
    and the ingestion experiment (I29) is recorded."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    ids = [
        m.group(1)
        for m in re.finditer(r"^\| ([A-Z]\d+) \|", text, flags=re.MULTILINE)
    ]
    assert len(ids) == len(set(ids)), f"duplicate experiment ids: {ids}"
    assert "I29" in ids, "EXPERIMENTS.md is missing the I29 ingestion row"


def test_readme_documents_every_event_kind(tiny_spec, web_trace):
    """Every event kind a trace-level replay emits (drive, cache, faults
    and tier all active) is named in README's observability section."""
    from repro.disk.faults import moderate_faults
    from repro.disk.simulator import DiskSimulator
    from repro.obs import Observer
    from repro.tier import TierConfig

    obs = Observer("trace", event_capacity=1 << 18)
    DiskSimulator(
        tiny_spec, seed=3, faults=moderate_faults(),
        tier=TierConfig(mode="wb"), obs=obs,
    ).run(web_trace)
    kinds = {event.kind for event in obs.events}
    readme = (REPO / "README.md").read_text()
    missing = sorted(kind for kind in kinds if f"`{kind}`" not in readme)
    assert not missing, f"README.md does not mention event kinds: {missing}"
