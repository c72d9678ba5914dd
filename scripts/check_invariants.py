#!/usr/bin/env python3
"""Repo invariant linter: contracts clang-tidy and -Wthread-safety can't see.

Checks (each is a named rule; any violation exits non-zero):

  epoch-zero      Epoch 0 is reserved ("never published"): every epoch
                  stamp defaults to 0 so a live generation may never BE 0,
                  or stale slots would read as current. Concretely: each
                  `++epoch_` bump must be followed by the wrap guard that
                  restarts at 1 within a few lines, and `epoch_ = 0` may
                  appear only as a declaration initializer.
  raw-std-sync    std::mutex / lock_guard / unique_lock / scoped_lock /
                  condition_variable are banned outside src/core/mutex.h —
                  raw std locking is invisible to the Clang thread-safety
                  analysis, so it silently re-opens the holes the
                  annotations close. Use topk::Mutex / MutexLock / CondVar.
  naked-alloc     No naked `new` / malloc-family calls: every container in
                  the tree owns through std containers or the posting
                  arenas (kernel/filter_validate CSR arena). A raw
                  allocation is either a leak risk or an arena bypass.
  bench-schema    Checked-in BENCH_*.json baselines carry the sections
                  scripts/compare_benchmarks.py gates on; a section
                  silently dropped from a baseline would turn the CI
                  regression gate into a no-op.
  kernel-layering src/kernel/*.h may include only core/*, kernel/*, and
                  the two leaf invidx headers (drop_policy.h,
                  visited_set.h). Kernels are the bottom layer; an engine
                  include would invert the dependency stack.
  decode-noalloc  Decode* function bodies in src/storage/ may not allocate
                  (push_back / resize / new / malloc-family): decode runs
                  in the per-block query hot loop against caller-owned
                  scratch, and a hidden allocation there is a per-query
                  heap churn regression the benches would only catch
                  later. Deliberate scratch setup is exempted line-by-line
                  with an `// alloc-ok: <why>` marker. Covers the SIMD
                  kernels too: any column-0 definition whose name contains
                  Decode (GroupVarintDecodeGroup, DecodeValuesSimd) or the
                  DeltaPrefixSum variants.
  block-skip-guard Skip-metadata readers in src/storage/ (any
                  *SelectedBlocks / *InRange / *InRankWindow sweep; today
                  CompressedPostingArena::DecodeBlocksInRange, which
                  passes) must discard a block on metadata alone — a
                  guard `continue` before the first BlockBytes() call —
                  so a skipped block's payload byte range is never
                  computed, never read. A reader that touches payload
                  bytes before the skip decision silently faults in
                  mmap-cold pages the sweep promised to leave on disk.
  generation-bump every live-store mutation entry point (Insert / Delete /
                  InstallMergedLocked in src/mutate/) must bump the store
                  generation via BumpGenerationLocked. A mutation that
                  skips the bump leaves generation readers and mutation
                  listeners looking at a world that no longer exists.
  syscall-status  In src/storage/, a fallible syscall whose result is
                  discarded (the call IS the statement: `fsync(fd);` rather
                  than `if (fsync(fd) != 0) ...`) silently converts an I/O
                  failure into corruption discovered much later — the
                  exact bug class the crash-safe snapshot protocol exists to
                  prevent. Every such call must check its result and carry
                  the errno into a Status (Status::IOErrorFromErrno), or mark
                  a deliberate best-effort discard with
                  `// syscall-ok: <why>`.
  filter-phase-callers
                  FilterPhase( may appear only under src/kernel/ (where
                  RangeSearch, the one filter -> validate range pipeline,
                  calls it) and in src/coarse/coarse_index.cc (medoid
                  retrieval). Every other range path goes through
                  RangeSearch, so a second copy of the pipeline — and a
                  second owner of the theta >= dmax rule — cannot come
                  back.
  result-cache-callers
                  A result-cache lookup or insert (`<...cache...>.Lookup*(`
                  / `.Insert*(` through `.` or `->`) may appear only in
                  src/serve/result_cache.h, whose ResultCache::Serve is
                  the serve step the caching frontend (QueryFrontend)
                  runs: lookup, stop check, run, stop check, insert. A
                  frontend that looked up or inserted on its own would be
                  a second copy of the rule that a stopped answer is never
                  cached.
  scalar-oracle   LinearScanKnn( and LinearScanQuery( are the scalar
                  reference scans the differential suites and the
                  benchmark's answer checker trust; src/ may call them only
                  from their own files (src/metric/knn.* and
                  src/metric/linear_scan.*). Serving paths use the batched
                  siblings (LinearScanKnnBatched / LinearScanQueryBatched),
                  so a serving path cannot slip back onto the reference.
  serving-drop    A RangeSearch( call under src/serve/ or src/mutate/ must
                  pass kServingDrop (invidx/drop_policy.h), never a
                  DropMode:: literal. Which posting lists a serving read
                  touches is decided by that one constant; a serving path
                  that spelled its own mode would quietly run a second
                  list policy beside the other serving reads.
  scalar-distance-serving
                  FootruleDistance( may not appear under src/serve/,
                  src/mutate/, src/coarse/ or src/kernel/. Code there
                  validates through FootruleValidator (kernel/
                  footrule_batch.h), the one batched, early-exiting
                  validate; a scalar per-candidate distance loop there is
                  a second, slower copy of validation.

Run from anywhere: paths resolve relative to the repo root (parent of this
script's directory). `--self-test` feeds each rule a synthetic violation
and fails if any rule does not fire.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# epoch-zero ----------------------------------------------------------------

# A bump must reach its `epoch_ = 1` wrap reset within this many lines.
EPOCH_WRAP_WINDOW = 5
EPOCH_BUMP_RE = re.compile(r"\+\+\s*epoch_|epoch_\s*\+\+|epoch_\s*\+=\s*1")
EPOCH_RESET_RE = re.compile(r"epoch_\s*=\s*1\b")
EPOCH_ZERO_ASSIGN_RE = re.compile(r"\bepoch_\s*=\s*0\b")
# `uint32_t epoch_ = 0;` (a declaration initializer) is the one legal spelling.
EPOCH_ZERO_DECL_RE = re.compile(
    r"\b(?:uint\d+_t|size_t|int|long|unsigned)\s+epoch_\s*=\s*0\b")

# raw-std-sync --------------------------------------------------------------

STD_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b")
STD_SYNC_ALLOWED = {"src/core/mutex.h"}

# naked-alloc ---------------------------------------------------------------

ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"  # `new T`, `new T[n]` — placement new is also banned
    r"|\bnew\s*\("       # ...spelled separately so both report
    r"|\b(?:malloc|calloc|realloc|free)\s*\(")
ALLOC_ALLOWED: set[str] = set()  # arenas use std::vector storage today

# bench-schema --------------------------------------------------------------

BENCH_REQUIRED_SECTIONS = {
    "BENCH_baseline.json": [
        "schema_version", "meta", "footrule_kernel", "kernel", "simd",
        "index_build", "query_latency", "storage",
    ],
}

# generation-bump -----------------------------------------------------------

# Files holding live-store mutation entry points. Every matching method
# definition must bump the generation (BumpGenerationLocked).
GENERATION_FILE_PREFIXES = ("src/mutate/",)
GENERATION_ENTRY_RE = re.compile(
    r"\b\w+::(Insert|Delete|InstallMergedLocked)\s*\(")
GENERATION_BUMP_RE = re.compile(r"\bBumpGenerationLocked\s*\(")

# decode-noalloc ------------------------------------------------------------

# A decode-kernel definition starts at column 0 (calls sit indented; the
# tree is clang-formatted, so definitions never are). The name test is
# substring-based so GroupVarintDecodeGroup and the SIMD bodies
# (DecodeValuesSimd, DeltaPrefixSumInPlace) are covered alongside the
# plain Decode* entry points.
DECODE_DEF_RE = re.compile(r"^[^\s/].*\b(?:\w*Decode\w*|DeltaPrefixSum\w*)\s*\(")
DECODE_ALLOC_RE = re.compile(
    r"\b(?:push_back|emplace_back|emplace|resize|reserve|insert|assign)\s*\("
    r"|\bnew\b|\b(?:malloc|calloc|realloc)\s*\(")
DECODE_ALLOC_OK_MARKER = "alloc-ok:"

# block-skip-guard -----------------------------------------------------------

# Skip-metadata reader definitions: the block-selective sweeps over a
# compressed arena. Same column-0 convention as DECODE_DEF_RE.
SKIP_READER_DEF_RE = re.compile(
    r"^[^\s/].*\b\w*(?:SelectedBlocks|InRange|InRankWindow)\s*\(")
BLOCK_BYTES_RE = re.compile(r"\bBlockBytes\s*\(")
SKIP_CONTINUE_RE = re.compile(r"\bcontinue\s*;")

# syscall-status ------------------------------------------------------------

# Directories where unchecked fallible syscalls are banned (persistence
# code: a swallowed I/O error here IS data loss).
SYSCALL_DIR_PREFIXES = ("src/storage/",)
# The fallible calls the persistence layer actually uses. Infallible or
# can't-meaningfully-fail calls (getpid, strerror) are deliberately absent.
SYSCALL_NAMES = (
    "open", "close", "fopen", "fclose", "fflush", "fwrite", "fread",
    "fputs", "fseek", "ftell", "fsync", "fdatasync", "rename", "remove",
    "unlink", "ftruncate", "mmap", "munmap", "msync", "madvise", "fstat",
)
# Statement-position call: the (optionally ::/std::-qualified, optionally
# (void)-cast) syscall is the first token of the statement, so its return
# value cannot be feeding any check.
SYSCALL_STMT_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:::|std::)?(" + "|".join(SYSCALL_NAMES) +
    r")\s*\(")
SYSCALL_OK_MARKER = "syscall-ok:"

# kernel-layering -----------------------------------------------------------

LOCAL_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
KERNEL_ALLOWED_INCLUDE_PREFIXES = ("core/", "kernel/")
KERNEL_ALLOWED_INCLUDE_EXACT = {
    "invidx/drop_policy.h",  # leaf enum, no engine deps
    "invidx/visited_set.h",  # leaf epoch-stamped bitset, no engine deps
}


# filter-phase-callers ------------------------------------------------------

FILTER_PHASE_CALL_RE = re.compile(r"\bFilterPhase\s*\(")
FILTER_PHASE_ALLOWED_PREFIXES = ("src/kernel/",)
FILTER_PHASE_ALLOWED_FILES = {"src/coarse/coarse_index.cc"}

# result-cache-callers ------------------------------------------------------

RESULT_CACHE_CALL_RE = re.compile(
    r"\b\w*[Cc]ache\w*\s*(?:\.|->)\s*(?:Lookup|Insert)\w*\s*\(")
RESULT_CACHE_ALLOWED_FILES = {"src/serve/result_cache.h"}

# scalar-oracle -------------------------------------------------------------

# Scalar reference function -> the src/ files (stem, any suffix) that own it.
SCALAR_ORACLES = {
    "LinearScanKnn": "src/metric/knn",
    "LinearScanQuery": "src/metric/linear_scan",
}
SCALAR_ORACLE_RE = re.compile(
    r"\b(" + "|".join(SCALAR_ORACLES) + r")\s*\(")


# serving-drop --------------------------------------------------------------

SERVING_DROP_DIR_PREFIXES = ("src/serve/", "src/mutate/")
RANGE_SEARCH_CALL_RE = re.compile(r"\bRangeSearch\s*\(")
SERVING_DROP_RE = re.compile(r"\bkServingDrop\b")
DROP_MODE_LITERAL_RE = re.compile(r"\bDropMode::\w+")

# scalar-distance-serving ---------------------------------------------------

SCALAR_DISTANCE_DIR_PREFIXES = (
    "src/serve/", "src/mutate/", "src/coarse/", "src/kernel/")
SCALAR_DISTANCE_RE = re.compile(r"\bFootruleDistance\s*\(")


def strip_comments_and_strings(line: str) -> str:
    """Blanks string/char literals and drops a trailing // comment.

    Line-local (block comments spanning lines are not handled); good
    enough for this tree, which clang-format keeps free of mid-line /*.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Failure:
    def __init__(self, rule: str, where: str, message: str):
        self.rule, self.where, self.message = rule, where, message

    def __str__(self) -> str:
        return f"{self.where}: [{self.rule}] {self.message}"


def source_files() -> list[Path]:
    return sorted(p for p in SRC.rglob("*") if p.suffix in (".h", ".cc"))


def check_epoch_zero(path: Path, lines: list[str]) -> list[Failure]:
    failures = []
    rel = path.relative_to(REPO_ROOT).as_posix()
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if EPOCH_BUMP_RE.search(line):
            window = [strip_comments_and_strings(l)
                      for l in lines[i:i + 1 + EPOCH_WRAP_WINDOW]]
            if not any(EPOCH_RESET_RE.search(l) for l in window):
                failures.append(Failure(
                    "epoch-zero", f"{rel}:{i + 1}",
                    "epoch bump without the wrap guard restarting at 1 "
                    f"within {EPOCH_WRAP_WINDOW} lines — a wrapped counter "
                    "would publish the reserved epoch 0"))
        if EPOCH_ZERO_ASSIGN_RE.search(line) and not EPOCH_ZERO_DECL_RE.search(line):
            failures.append(Failure(
                "epoch-zero", f"{rel}:{i + 1}",
                "`epoch_ = 0` outside a declaration initializer publishes "
                "the reserved epoch"))
    return failures


def check_raw_std_sync(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if rel in STD_SYNC_ALLOWED:
        return []
    failures = []
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        match = STD_SYNC_RE.search(line)
        if match:
            failures.append(Failure(
                "raw-std-sync", f"{rel}:{i + 1}",
                f"{match.group(0)} is invisible to -Wthread-safety; use the "
                "annotated wrappers in core/mutex.h"))
    return failures


def check_naked_alloc(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if rel in ALLOC_ALLOWED:
        return []
    failures = []
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        if line.lstrip().startswith("#"):
            continue  # preprocessor: `#include <new>` is not an allocation
        match = ALLOC_RE.search(line)
        if match:
            failures.append(Failure(
                "naked-alloc", f"{rel}:{i + 1}",
                f"naked allocation ({match.group(0).strip()}) — own through "
                "std containers or the posting arenas"))
    return failures


def check_bench_schema() -> list[Failure]:
    failures = []
    for name, required in BENCH_REQUIRED_SECTIONS.items():
        path = REPO_ROOT / name
        if not path.exists():
            failures.append(Failure(
                "bench-schema", name, "baseline file missing"))
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            failures.append(Failure("bench-schema", name, f"unreadable: {err}"))
            continue
        for section in required:
            if section not in data:
                failures.append(Failure(
                    "bench-schema", name,
                    f"missing section '{section}' — compare_benchmarks.py "
                    "would silently stop gating it"))
    return failures


def check_generation_bump(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith(GENERATION_FILE_PREFIXES) or path.suffix != ".cc":
        return []
    failures = []
    i, n = 0, len(lines)
    while i < n:
        match = GENERATION_ENTRY_RE.search(
            strip_comments_and_strings(lines[i]))
        if not match:
            i += 1
            continue
        # Walk the definition body by brace balance.
        name, start = match.group(1), i
        depth, seen_open = 0, False
        satisfied = False
        while i < n:
            code = strip_comments_and_strings(lines[i])
            if GENERATION_BUMP_RE.search(code):
                satisfied = True
            depth += code.count("{") - code.count("}")
            seen_open = seen_open or "{" in code
            if seen_open and depth <= 0:
                break
            i += 1
        if not satisfied:
            failures.append(Failure(
                "generation-bump", f"{rel}:{start + 1}",
                f"mutation entry point {name}() does not call "
                "BumpGenerationLocked — serve-layer caches would keep "
                "answering from the pre-mutation world"))
        i += 1
    return failures


def check_decode_noalloc(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith("src/storage/"):
        return []
    failures = []
    i, n = 0, len(lines)
    while i < n:
        if not DECODE_DEF_RE.match(strip_comments_and_strings(lines[i])):
            i += 1
            continue
        # Walk the definition body by brace balance; the signature may
        # span lines before the opening brace.
        start = i
        depth, seen_open = 0, False
        while i < n:
            code = strip_comments_and_strings(lines[i])
            if (seen_open and DECODE_ALLOC_RE.search(code)
                    and DECODE_ALLOC_OK_MARKER not in lines[i]):
                failures.append(Failure(
                    "decode-noalloc", f"{rel}:{i + 1}",
                    "allocation inside a Decode* body (started at line "
                    f"{start + 1}) — decode runs in the per-block query hot "
                    "loop; mark deliberate scratch setup with "
                    f"'// {DECODE_ALLOC_OK_MARKER} <why>'"))
            depth += code.count("{") - code.count("}")
            seen_open = seen_open or "{" in code
            if seen_open and depth <= 0:
                break
            if not seen_open and ";" in code:
                break  # declaration, not a definition
            i += 1
        i += 1
    return failures


def check_block_skip_guard(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith("src/storage/"):
        return []
    failures = []
    i, n = 0, len(lines)
    while i < n:
        if not SKIP_READER_DEF_RE.match(strip_comments_and_strings(lines[i])):
            i += 1
            continue
        # Walk the definition body by brace balance. The first BlockBytes
        # call must come after a metadata-guard `continue` — otherwise the
        # reader computed a payload byte range for a block it might still
        # skip. Delegating wrappers (no BlockBytes at all) pass trivially.
        start = i
        depth, seen_open, seen_continue = 0, False, False
        while i < n:
            code = strip_comments_and_strings(lines[i])
            if seen_open and SKIP_CONTINUE_RE.search(code):
                seen_continue = True
            if seen_open and BLOCK_BYTES_RE.search(code):
                if not seen_continue:
                    failures.append(Failure(
                        "block-skip-guard", f"{rel}:{i + 1}",
                        "BlockBytes() reached before the metadata-guard "
                        "`continue` in a skip-metadata reader (definition "
                        f"at line {start + 1}) — a skipped block's payload "
                        "bytes must never be touched"))
                break  # first BlockBytes decides; rest of body is fine
            depth += code.count("{") - code.count("}")
            seen_open = seen_open or "{" in code
            if seen_open and depth <= 0:
                break
            if not seen_open and ";" in code:
                break  # declaration, not a definition
            i += 1
        i += 1
    return failures


def check_syscall_status(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith(SYSCALL_DIR_PREFIXES):
        return []

    def starts_statement(index: int) -> bool:
        """True when line `index` begins a statement (not a wrapped
        continuation of a checked expression clang-format broke onto its
        own line, e.g. the second `fwrite(...) != 1 ||` of a chain)."""
        for j in range(index - 1, -1, -1):
            prev = strip_comments_and_strings(lines[j]).strip()
            if not prev:
                continue
            return prev.endswith((";", "{", "}", ":")) or prev.startswith("#")
        return True

    failures = []
    for i, raw in enumerate(lines):
        line = strip_comments_and_strings(raw)
        match = SYSCALL_STMT_RE.match(line)
        if match and SYSCALL_OK_MARKER not in raw and starts_statement(i):
            failures.append(Failure(
                "syscall-status", f"{rel}:{i + 1}",
                f"{match.group(1)}() result discarded — check it and carry "
                "errno into a Status (Status::IOErrorFromErrno), or mark a "
                "deliberate best-effort discard with "
                f"'// {SYSCALL_OK_MARKER} <why>'"))
    return failures


def check_kernel_layering(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith("src/kernel/") or path.suffix != ".h":
        return []
    failures = []
    for i, raw in enumerate(lines):
        match = LOCAL_INCLUDE_RE.match(raw)
        if not match:
            continue
        include = match.group(1)
        if include.startswith(KERNEL_ALLOWED_INCLUDE_PREFIXES):
            continue
        if include in KERNEL_ALLOWED_INCLUDE_EXACT:
            continue
        failures.append(Failure(
            "kernel-layering", f"{rel}:{i + 1}",
            f'kernel header includes "{include}" — kernels are the bottom '
            "layer and may depend only on core/, kernel/, and the leaf "
            "invidx headers"))
    return failures


def check_filter_phase_callers(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if (rel.startswith(FILTER_PHASE_ALLOWED_PREFIXES)
            or rel in FILTER_PHASE_ALLOWED_FILES):
        return []
    failures = []
    for i, raw in enumerate(lines):
        if FILTER_PHASE_CALL_RE.search(strip_comments_and_strings(raw)):
            failures.append(Failure(
                "filter-phase-callers", f"{rel}:{i + 1}",
                "FilterPhase() outside src/kernel/ and the coarse medoid "
                "retrieval — answer range queries through RangeSearch "
                "(kernel/range_search.h), the one filter -> validate "
                "pipeline"))
    return failures


def check_result_cache_callers(path: Path,
                               lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if rel in RESULT_CACHE_ALLOWED_FILES:
        return []
    failures = []
    for i, raw in enumerate(lines):
        if RESULT_CACHE_CALL_RE.search(strip_comments_and_strings(raw)):
            failures.append(Failure(
                "result-cache-callers", f"{rel}:{i + 1}",
                "result-cache lookup/insert outside src/serve/result_cache.h "
                "— serve through ResultCache::Serve, the one step that "
                "orders lookup, shed, stop check and insert"))
    return failures


def check_scalar_oracle(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    failures = []
    for i, raw in enumerate(lines):
        for match in SCALAR_ORACLE_RE.finditer(strip_comments_and_strings(raw)):
            name = match.group(1)
            if rel.rsplit(".", 1)[0] == SCALAR_ORACLES[name]:
                continue
            failures.append(Failure(
                "scalar-oracle", f"{rel}:{i + 1}",
                f"{name}() is the scalar reference scan — serve through "
                f"{name}Batched() with a FootruleValidator instead"))
    return failures


def check_serving_drop(path: Path, lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith(SERVING_DROP_DIR_PREFIXES):
        return []
    code = [strip_comments_and_strings(l) for l in lines]
    failures = []
    for i, line in enumerate(code):
        for match in RANGE_SEARCH_CALL_RE.finditer(line):
            # Collect the argument list by paren balance; it may span lines.
            args, depth = [], 0
            j, col = i, match.end() - 1
            while j < len(code):
                for c in code[j][col:]:
                    depth += (c == "(") - (c == ")")
                    args.append(c)
                    if depth == 0:
                        break
                if depth == 0:
                    break
                j, col = j + 1, 0
            call = "".join(args)
            literal = DROP_MODE_LITERAL_RE.search(call)
            if literal or not SERVING_DROP_RE.search(call):
                shown = literal.group(0) if literal else "no kServingDrop"
                failures.append(Failure(
                    "serving-drop", f"{rel}:{i + 1}",
                    f"RangeSearch() in a serving path passes {shown} — "
                    "serving reads use kServingDrop (invidx/drop_policy.h), "
                    "the one place that decides which lists they touch"))
    return failures


def check_scalar_distance_serving(path: Path,
                                  lines: list[str]) -> list[Failure]:
    rel = path.relative_to(REPO_ROOT).as_posix()
    if not rel.startswith(SCALAR_DISTANCE_DIR_PREFIXES):
        return []
    failures = []
    for i, raw in enumerate(lines):
        if SCALAR_DISTANCE_RE.search(strip_comments_and_strings(raw)):
            failures.append(Failure(
                "scalar-distance-serving", f"{rel}:{i + 1}",
                "FootruleDistance() is the scalar per-pair distance — "
                "validate through FootruleValidator (kernel/footrule_batch.h)"))
    return failures


def run_checks() -> list[Failure]:
    failures: list[Failure] = []
    for path in source_files():
        lines = path.read_text().splitlines()
        failures += check_epoch_zero(path, lines)
        failures += check_raw_std_sync(path, lines)
        failures += check_naked_alloc(path, lines)
        failures += check_generation_bump(path, lines)
        failures += check_kernel_layering(path, lines)
        failures += check_decode_noalloc(path, lines)
        failures += check_block_skip_guard(path, lines)
        failures += check_syscall_status(path, lines)
        failures += check_filter_phase_callers(path, lines)
        failures += check_result_cache_callers(path, lines)
        failures += check_scalar_oracle(path, lines)
        failures += check_serving_drop(path, lines)
        failures += check_scalar_distance_serving(path, lines)
    failures += check_bench_schema()
    return failures


# --self-test ---------------------------------------------------------------

def self_test() -> int:
    """Feeds each rule a synthetic violation; fails if any rule is asleep."""
    fake = SRC / "kernel" / "fake.h"  # path only; never written to disk
    fake_mutate = SRC / "mutate" / "fake.cc"
    fake_storage = SRC / "storage" / "fake.cc"
    cases = [
        ("epoch-zero bump without reset",
         lambda: check_epoch_zero(fake, ["++epoch_;", "touched_.clear();"])),
        ("epoch-zero published zero",
         lambda: check_epoch_zero(fake, ["epoch_ = 0;"])),
        ("raw-std-sync",
         lambda: check_raw_std_sync(fake, ["std::mutex mu;"])),
        ("naked-alloc new",
         lambda: check_naked_alloc(fake, ["auto* p = new Node();"])),
        ("naked-alloc malloc",
         lambda: check_naked_alloc(fake, ["void* p = malloc(64);"])),
        ("kernel-layering",
         lambda: check_kernel_layering(fake, ['#include "serve/frontend.h"'])),
        ("generation-bump missing",
         lambda: check_generation_bump(fake_mutate, [
             "RankingId MutableStore::Insert(RankingView record) {",
             "  delta_.store.AddUnchecked(record.items());",
             "  return 0;", "}"])),
        ("generation-bump comment is not a bump",
         lambda: check_generation_bump(fake_mutate, [
             "bool MutableStore::Delete(RankingId id) {",
             "  // BumpGenerationLocked() happens elsewhere.",
             "  return true;", "}"])),
        ("decode-noalloc push_back in hot loop",
         lambda: check_decode_noalloc(fake_storage, [
             "const uint8_t* DecodeBlock(std::vector<int>* out) {",
             "  for (int i = 0; i < 4; ++i) out->push_back(i);",
             "  return nullptr;", "}"])),
        ("decode-noalloc SIMD group kernel",
         lambda: check_decode_noalloc(fake_storage, [
             "inline const uint8_t* GroupVarintDecodeGroup(uint32_t* out) {",
             "  auto* scratch = new uint32_t[4];",
             "  return nullptr;", "}"])),
        ("decode-noalloc prefix-sum kernel",
         lambda: check_decode_noalloc(fake_storage, [
             "inline void DeltaPrefixSumInPlace(std::vector<int>* v) {",
             "  v->resize(8);", "}"])),
        ("block-skip-guard BlockBytes before the guard",
         lambda: check_block_skip_guard(fake_storage, [
             "std::span<const int> Arena::DecodeSelectedBlocks(size_t i) {",
             "  for (size_t b = 0; b < 4; ++b) {",
             "    const auto [begin, end] = BlockBytes(b);",
             "    if (discard(b)) continue;",
             "    Decode(begin, end);", "  }", "  return {};", "}"])),
        ("block-skip-guard no guard at all",
         lambda: check_block_skip_guard(fake_storage, [
             "std::span<const int> Arena::DecodeBlocksInRankWindow(size_t i) {",
             "  const auto [begin, end] = BlockBytes(0);",
             "  return {};", "}"])),
        ("syscall-status discarded fsync",
         lambda: check_syscall_status(fake_storage, ["  ::fsync(fd);"])),
        ("syscall-status discarded std::fclose",
         lambda: check_syscall_status(fake_storage, ["  std::fclose(f);"])),
        ("syscall-status (void)-cast discard still flagged",
         lambda: check_syscall_status(fake_storage, ["  (void)unlink(tmp);"])),
        ("filter-phase-callers second pipeline in a serving path",
         lambda: check_filter_phase_callers(SRC / "serve" / "fake.cc", [
             "  FilterPhase(*index_, query.view(), theta, DropMode::kNone,"])),
        ("filter-phase-callers engine outside the kernel",
         lambda: check_filter_phase_callers(SRC / "invidx" / "fake.cc", [
             "  const auto c = FilterPhase (index, q, t, d, n, &s);"])),
        ("filter-phase-callers coarse file other than the medoid retrieval",
         lambda: check_filter_phase_callers(SRC / "coarse" / "fake.cc", [
             "  FilterPhase(medoid_index_, q, t, d, n, &s, stats);"])),
        ("result-cache-callers frontend looking up on its own",
         lambda: check_result_cache_callers(SRC / "serve" / "fake.cc", [
             "    if (result_cache_.LookupRange(key, epoch, out, stats)) {"])),
        ("result-cache-callers insert through a pointer",
         lambda: check_result_cache_callers(SRC / "mutate" / "fake.cc", [
             "  cache->Insert(key, epoch, *out);"])),
        ("scalar-oracle k-NN reference in a serving path",
         lambda: check_scalar_oracle(SRC / "serve" / "fake.cc", [
             "  return LinearScanKnn(*store_, query, j, stats);"])),
        ("scalar-oracle range reference in another metric file",
         lambda: check_scalar_oracle(SRC / "metric" / "fake.cc", [
             "  out = LinearScanQuery(store, query, theta);"])),
        ("serving-drop live segment spelling its own mode",
         lambda: check_serving_drop(fake_mutate, [
             "  if (!RangeSearch(seg_store, &index, query, theta_raw,",
             "                   DropMode::kNone, &scratch_, out, stats,",
             "                   control, alive)) {"])),
        ("serving-drop reader with the right mode as a literal",
         lambda: check_serving_drop(SRC / "serve" / "fake.cc", [
             "  RangeSearch(s, &i, q, t, DropMode::kPositionRefined, &x, o);"])),
        ("serving-drop mode passed through a variable",
         lambda: check_serving_drop(SRC / "serve" / "fake.cc", [
             "  RangeSearch(store, &index, q, theta, drop, &s, &out);"])),
        ("scalar-distance-serving batch member loop",
         lambda: check_scalar_distance_serving(SRC / "coarse" / "fake.cc", [
             "    if (FootruleDistance(qs, store_->sorted(c)) <= theta) {"])),
        ("scalar-distance-serving live segment",
         lambda: check_scalar_distance_serving(fake_mutate, [
             "  const RawDistance d = FootruleDistance (q, s.sorted(id));"])),
        ("scalar-distance-serving kernel header",
         lambda: check_scalar_distance_serving(fake, [
             "    return topk::FootruleDistance(a, b) <= theta_raw;"])),
    ]
    negatives = [
        ("epoch-zero legal wrap", lambda: check_epoch_zero(fake, [
            "++epoch_;", "if (epoch_ == 0) {",
            "  std::fill(s.begin(), s.end(), 0);", "  epoch_ = 1;", "}"])),
        ("epoch-zero declaration",
         lambda: check_epoch_zero(fake, ["uint32_t epoch_ = 0;"])),
        ("raw-std-sync comment only",
         lambda: check_raw_std_sync(fake, ["// std::mutex is banned here"])),
        ("naked-alloc 'renew' identifier",
         lambda: check_naked_alloc(fake, ["renewed = true; news_count++;"])),
        ("kernel-layering core include",
         lambda: check_kernel_layering(fake, ['#include "core/types.h"'])),
        ("generation-bump direct bump",
         lambda: check_generation_bump(fake_mutate, [
             "RankingId MutableStore::Insert(RankingView record) {",
             "  delta_.store.AddUnchecked(record.items());",
             "  BumpGenerationLocked();", "  return 0;", "}"])),
        ("generation-bump non-mutating method",
         lambda: check_generation_bump(fake_mutate, [
             "bool MutableStore::Contains(RankingId id) const {",
             "  return true;", "}"])),
        ("decode-noalloc marked scratch setup",
         lambda: check_decode_noalloc(fake_storage, [
             "const uint8_t* DecodeList(std::vector<int>* scratch) {",
             "  scratch->resize(8);  // alloc-ok: grow-only scratch setup",
             "  return nullptr;", "}"])),
        ("decode-noalloc alloc outside a Decode body",
         lambda: check_decode_noalloc(fake_storage, [
             "void BuildArena(std::vector<int>* out) {",
             "  out->push_back(1);", "}"])),
        ("decode-noalloc declaration only",
         lambda: check_decode_noalloc(fake_storage, [
             "const uint8_t* DecodeBlock(std::vector<int>* out);",
             "void Other() { out->push_back(1); }"])),
        ("decode-noalloc clean body",
         lambda: check_decode_noalloc(fake_storage, [
             "const uint8_t* DecodeBlock(uint32_t* out) {",
             "  *out = 1;", "  return nullptr;", "}"])),
        ("block-skip-guard continue precedes BlockBytes",
         lambda: check_block_skip_guard(fake_storage, [
             "std::span<const int> Arena::DecodeSelectedBlocks(size_t i) {",
             "  for (size_t b = 0; b < 4; ++b) {",
             "    if (discard(b)) continue;",
             "    const auto [begin, end] = BlockBytes(b);",
             "    Decode(begin, end);", "  }", "  return {};", "}"])),
        ("block-skip-guard delegating wrapper",
         lambda: check_block_skip_guard(fake_storage, [
             "std::span<const int> Arena::DecodeBlocksInRankWindow(size_t i) {",
             "  return DecodeSelectedBlocks(i, s, k, [](size_t) {",
             "    return false; });", "}"])),
        ("block-skip-guard full decoder is out of scope",
         lambda: check_block_skip_guard(fake_storage, [
             "bool Arena::DecodeListInto(size_t i, int* out) {",
             "  const auto [begin, end] = BlockBytes(0);",
             "  return true;", "}"])),
        ("block-skip-guard declaration only",
         lambda: check_block_skip_guard(fake_storage, [
             "std::span<const int> DecodeBlocksInRankWindow(size_t i) const;"])),
        ("syscall-status checked call",
         lambda: check_syscall_status(fake_storage, [
             "  if (::fsync(fd) != 0) return Err();"])),
        ("syscall-status result captured",
         lambda: check_syscall_status(fake_storage, [
             "  const bool failed = std::fclose(f) != 0;"])),
        ("syscall-status marked best-effort discard",
         lambda: check_syscall_status(fake_storage, [
             "  ::close(fd);  // syscall-ok: errno already captured above"])),
        ("syscall-status outside persistence dirs",
         lambda: check_syscall_status(fake, ["  ::fsync(fd);"])),
        ("syscall-status identifier containing a syscall name",
         lambda: check_syscall_status(fake_storage, [
             "  remove_stale_generations(dir);"])),
        ("filter-phase-callers kernel RangeSearch",
         lambda: check_filter_phase_callers(SRC / "kernel" / "fake.h", [
             "    rows = FilterPhase(*index, query, theta_raw, drop,"])),
        ("filter-phase-callers coarse medoid retrieval",
         lambda: check_filter_phase_callers(
             SRC / "coarse" / "coarse_index.cc", [
                 "    FilterPhase(medoid_index_, query.view(), relaxed,"])),
        ("filter-phase-callers mention in a comment",
         lambda: check_filter_phase_callers(SRC / "serve" / "fake.cc", [
             "  // RangeSearch runs FilterPhase(index, ...) internally."])),
        ("filter-phase-callers RangeSearch call",
         lambda: check_filter_phase_callers(SRC / "serve" / "fake.cc", [
             "  RangeSearch(store, &index, q, theta, drop, &s, &out);"])),
        ("filter-phase-callers FilterScratch type",
         lambda: check_filter_phase_callers(SRC / "serve" / "fake.h", [
             "  FilterScratch filter;"])),
        ("result-cache-callers the serve step itself",
         lambda: check_result_cache_callers(SRC / "serve" / "result_cache.h", [
             "      const bool found = cache.Lookup(key, epoch, out);"])),
        ("result-cache-callers frontend calling the step",
         lambda: check_result_cache_callers(SRC / "serve" / "fake.cc", [
             "      ? result_cache_.Serve(algorithm, request.theta_raw, q,"])),
        ("result-cache-callers mention in a comment",
         lambda: check_result_cache_callers(SRC / "serve" / "fake.cc", [
             "  // the step runs cache.Lookup(key, ...) first."])),
        ("result-cache-callers other container insert",
         lambda: check_result_cache_callers(SRC / "metric" / "fake.cc", [
             "  for (RankingId id : ids) tree.Insert(id, stats);"])),
        ("scalar-oracle batched sibling",
         lambda: check_scalar_oracle(SRC / "serve" / "fake.cc", [
             "  return LinearScanKnnBatched(*store_, q, j, &v, stats);"])),
        ("scalar-oracle own definition",
         lambda: check_scalar_oracle(SRC / "metric" / "knn.cc", [
             "std::vector<Neighbor> LinearScanKnn(const RankingStore& s,"])),
        ("scalar-oracle mention in a comment",
         lambda: check_scalar_oracle(SRC / "serve" / "fake.cc", [
             "  // Bit-identical to LinearScanQuery(store, q, theta)."])),
        ("serving-drop the constant across lines",
         lambda: check_serving_drop(fake_mutate, [
             "  if (!RangeSearch(seg_store, &index, query, theta_raw,",
             "                   kServingDrop, &scratch_, out, stats,",
             "                   control, alive)) {"])),
        ("serving-drop mention in a comment",
         lambda: check_serving_drop(SRC / "serve" / "fake.cc", [
             "  // RangeSearch(s, &i, q, t, DropMode::kNone, ...) sweeps all."])),
        ("serving-drop engine outside the serving dirs",
         lambda: check_serving_drop(SRC / "invidx" / "fake.h", [
             "  RangeSearch(s, &i, q, t, DropMode::kNone, &x, o);"])),
        ("serving-drop split helper name",
         lambda: check_serving_drop(SRC / "serve" / "fake.cc", [
             "bool ResilientReader::SplitRangeSearch(const View& view,"])),
        ("scalar-distance-serving validator in a serving path",
         lambda: check_scalar_distance_serving(SRC / "coarse" / "fake.cc", [
             "  validator.ValidateSpan(*store_, shared, theta, &out, st);"])),
        ("scalar-distance-serving mention in a comment",
         lambda: check_scalar_distance_serving(SRC / "serve" / "fake.cc", [
             "  // Bit-identical to FootruleDistance(q, row) per candidate."])),
        ("scalar-distance-serving reference outside the serving dirs",
         lambda: check_scalar_distance_serving(SRC / "metric" / "fake.cc", [
             "  return FootruleDistance(query, store.sorted(id));"])),
        ("scalar-distance-serving other distance function",
         lambda: check_scalar_distance_serving(SRC / "kernel" / "fake.h", [
             "  const RawDistance d = FootruleDistanceSimd(rows, q);"])),
    ]
    ok = True
    for name, check in cases:
        if not check():
            print(f"self-test FAILED: rule did not fire for: {name}")
            ok = False
    for name, check in negatives:
        hits = check()
        if hits:
            print(f"self-test FAILED: false positive for: {name}: {hits[0]}")
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a synthetic violation")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    failures = run_checks()
    for failure in failures:
        print(failure)
    if failures:
        print(f"\ncheck_invariants: {len(failures)} violation(s)")
        return 1
    print("check_invariants: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
