"""Documentation health checks: links must resolve, examples must run.

Documentation rots silently unless it is executed: this module resolves
every relative Markdown link in README.md and docs/*.md against the
repository tree, and runs the ``>>>`` doctest blocks embedded in
docs/ARCHITECTURE.md.  The CI ``docs`` job runs exactly these checks.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Markdown files whose links are checked, relative to the repo root.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def relative_links(markdown_path: Path):
    """Yield (link, resolved target path) for every relative link."""
    for match in _LINK.finditer(markdown_path.read_text(encoding="utf-8")):
        link = match.group(1)
        if link.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = link.split("#", 1)[0]
        if not target:
            continue
        yield link, (markdown_path.parent / target).resolve()


def test_doc_files_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md") in DOC_FILES
    assert (REPO_ROOT / "docs" / "BENCHMARKS.md") in DOC_FILES


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_relative_links_resolve(doc):
    broken = [
        link for link, target in relative_links(doc) if not target.exists()
    ]
    assert not broken, f"{doc.relative_to(REPO_ROOT)} has broken links: {broken}"


def test_architecture_doctests_pass():
    """The ``>>>`` blocks in ARCHITECTURE.md are executable and correct."""
    # No option flags, so this check stays exactly as strict as the CI
    # job's direct `python -m doctest docs/ARCHITECTURE.md` step.
    failures, tests = doctest.testfile(
        str(REPO_ROOT / "docs" / "ARCHITECTURE.md"),
        module_relative=False,
    )
    assert tests > 0, "ARCHITECTURE.md lost its executable examples"
    assert failures == 0


def test_observability_doctests_pass():
    """The traced-query example in OBSERVABILITY.md runs as written."""
    failures, tests = doctest.testfile(
        str(REPO_ROOT / "docs" / "OBSERVABILITY.md"),
        module_relative=False,
    )
    assert tests > 0, "OBSERVABILITY.md lost its executable example"
    assert failures == 0


#: Surfaces deleted together with the planner's batch splitting, then with
#: the thread-per-connection server, the newline-JSON framing and wire
#: versions 2-4, then with the replica fleet, then with the selectable
#: kernel tier, then with the DSR engine's pluggable local strategy, then
#: with the planner's cost model, then with the shared-memory shard publish.
#: (``ctx.send_message`` is
#: Pregel's vertex API in ``repro.giraph`` — a different, live thing.)
#: The ``[x]`` classes keep the removed names out of a plain grep of this file.
REMOVED_SURFACES = re.compile(
    r"max_batch_pairs|batch[0-9N]\.|plan_epoch_retry"
    r"|DSRSocketServer|(?<!ctx\.)(?<!def )\bsend_message|recv_message"
    r"|loads_versioned|MAX_LINE_BYTES|max_line_bytes|_drain_lines|_compat_tail"
    r"|BINARY_FRAMING_MIN_VERSION|_KIND_MIN_VERSION|async_server|max_requests"
    r"|--max-requests|serve\b.*--async|bench_async_front_door|BENCH_async_qps"
    r"|Replica[F]leet|repro\.fleet|estimate_query_[c]ost|local_cost_[f]actor"
    r"|rebuild_local_[s]trategy|fleet\.rebuild|dsr_fleet_|dsr_replica_ejections_total"
    r"|REPRO_[K]ERNELS|use_[k]ernels|set_kernel_[b]ackend|numpy_[a]vailable"
    r"|resolve_[k]ernels|KERNEL_[N]AMES|_condense_[r]uns|\.\[numpy\]"
    r"|claim_real_[i]d|share_vertex_ids_[w]ith|_first_virtual_[i]d|_id_[i]ndexes"
    r"|local_index_[o]ptions|strategy_[k]wargs|set_reachability_[b]its"
    r"|as_reach_[q]uery|estimate_[c]ost|degree_[s]tats|csr_if_[c]ached"
    r"|ThreadExecutor|supports_[c]losures"
    r"|Shm[L]edger|REPRO_[S]HM|shm_[s]egment|from_[s]hared|supports_shm_[h]ydration"
    r"|dsr_shard_shm_[a]ttach_total"
    r"|Health[S]upervisor|Circuit[B]reaker|health_probe_[i]nterval|--health-[i]nterval"
    r"|dsr_breaker_|dsr_health_[p]robes"
    r"|add_isolated_[v]ertex|rehydrate_[p]artition|num_[r]anks|_check_rank_[c]ardinality"
)


def _lines_outside_migration_notes(path: Path):
    """Numbered lines of a file, minus README-style "Migrating ..." sections
    (the one place that must keep naming what was removed)."""
    migrating = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("#"):
            migrating = line.lstrip("#").strip().startswith("Migrating")
        if not migrating:
            yield number, line


def test_no_doc_or_source_names_a_removed_surface():
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for path in DOC_FILES + sorted((REPO_ROOT / "src").rglob("*.py"))
        for number, line in _lines_outside_migration_notes(path)
        if REMOVED_SURFACES.search(line)
    ]
    assert not offenders, "\n".join(offenders)
