#!/usr/bin/env python3
"""PipeLLM project lint engine.

A small multi-pass analyzer over the C++ tree: every rule is a
*registered check* producing ``file:line: [check-name] message``
diagnostics, individually suppressible at the offending line, runnable
tree-wide (CI) or restricted to changed files (pre-commit).

Registered checks (``--list-checks`` prints this table):

  File-scoped pattern checks:
    deprecated-platform-alias  no-arg Platform::device()/channel()
    nondeterministic-rand-time rand()/srand()/std::time
    raw-thread                 std::thread/std::async anywhere
    bench-config-drift         hand-rolled ClusterConfig in bench/
    printf-io                  printf-family I/O outside common/logging
    bare-mutex                 std::mutex & friends outside
                               common/mutex.hh — lock discipline is
                               compiler-checked only through the
                               capability-annotated wrappers

  Multi-pass checks:
    layering                   include-graph rules: each src/ module
                               may only include the modules below it in
                               the DESIGN.md §13 layering diagram; src/
                               never includes bench/, tests/, tools/ or
                               examples/
    determinism                fingerprint-affecting code (src/sim,
                               src/serving, src/scenario, src/chaos)
                               must not read wall clocks, iterate
                               unordered containers, or use
                               locale-dependent formatting
    audit-hook-coverage        every IV-consuming / tag-sealing /
                               session-epoch site names a
                               PIPELLM_AUDIT_HOOK in its enclosing
                               function
    fault-test-coverage        every fault::Fault::Kind has Injection +
                               Recovery (+ extra named proof) tests

Suppressing a finding requires a justification on the flagged line or
the line directly above it::

    foo();  // pipellm-lint: allow(check-name) -- why this is OK

A suppression without a reason is itself a finding. Checks named in a
per-check ``allow`` set (whole files that exist to exercise the banned
construct) are listed in the check's configuration below, next to the
rule they exempt.

Usage:
  tools/lint/pipellm_lint.py [--root DIR] [--check NAME]...
      [--changed-files FILE...] [--diff-base GITREF]
      [--compile-commands build/compile_commands.json]
      [--list-checks]

Exits nonzero and prints one line per finding.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SOURCE_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp", ".h", ".c")

# Trees never scanned: the lint test corpus contains deliberately-bad
# fixtures, and build trees contain generated code.
EXCLUDED_PREFIXES = ("tests/lint/fixtures/",)

SUPPRESS_RE = re.compile(
    r"pipellm-lint:\s*allow\(([a-z0-9-]+)\)(.*)$")


class Diagnostic:
    """One finding, printable as file:line: [check] message."""

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class SourceFile:
    """A lazily-loaded source file with 1-based line access."""

    def __init__(self, root, rel):
        self.rel = rel
        self._path = os.path.join(root, rel)
        self._lines = None

    @property
    def lines(self):
        if self._lines is None:
            try:
                with open(self._path, encoding="utf-8",
                          errors="replace") as f:
                    self._lines = f.read().splitlines()
            except OSError:
                self._lines = []
        return self._lines


class Context:
    """Everything a check may look at: the file set, loaded sources,
    and (optionally) real include paths from compile_commands.json."""

    def __init__(self, root, files, changed=None, include_dirs=None):
        self.root = root
        self.files = files  # all tracked rel paths (posix)
        self.changed = changed  # None = tree-wide, else set of rels
        self.include_dirs = include_dirs or []
        self._sources = {}

    def source(self, rel):
        if rel not in self._sources:
            self._sources[rel] = SourceFile(self.root, rel)
        return self._sources[rel]

    def source_files(self, prefixes=None):
        """Source-extension files, honoring changed-files mode."""
        out = []
        for rel in self.files:
            if not rel.endswith(SOURCE_EXTENSIONS):
                continue
            if rel.startswith(EXCLUDED_PREFIXES):
                continue
            if prefixes and not rel.startswith(prefixes):
                continue
            if self.changed is not None and rel not in self.changed:
                continue
            out.append(rel)
        return out


CHECKS = []


def register_check(name, description, tree_level=False):
    """Decorator adding fn(ctx) -> [Diagnostic] to the registry.

    tree_level checks reason about the whole tree (enum coverage) and
    run even in changed-files mode; file-scoped checks are restricted
    to the changed set.
    """

    def wrap(fn):
        CHECKS.append({
            "name": name,
            "description": description,
            "tree_level": tree_level,
            "fn": fn,
        })
        return fn

    return wrap


# ---------------------------------------------------------------------------
# File-scoped pattern checks (the original banned-API rules).

COMMENT_LINE_RE = re.compile(r"^\s*(?://|\*|/\*)")


def pattern_check(regex, roots, allow, message):
    def run(ctx):
        findings = []
        for rel in ctx.source_files(tuple(r + "/" for r in roots)):
            if rel in allow:
                continue
            for lineno, line in enumerate(ctx.source(rel).lines, 1):
                # Prose mentioning a banned API is fine; only code trips.
                if COMMENT_LINE_RE.match(line):
                    continue
                if regex.search(line):
                    findings.append(
                        Diagnostic(rel, lineno, "", message + ": "
                                   + line.strip()))
        return findings

    return run


@register_check(
    "deprecated-platform-alias",
    "the removed no-argument Platform::device()/channel() aliases")
def check_platform_alias(ctx):
    return pattern_check(
        re.compile(r"\bplatform_?\.\s*(?:device|channel)\(\)"),
        ("src", "tests", "bench", "examples"),
        set(),
        "removed Platform::device()/channel() alias; name the device",
    )(ctx)


@register_check(
    "nondeterministic-rand-time",
    "rand()/srand()/std::time — all randomness goes through common/rng")
def check_rand_time(ctx):
    return pattern_check(
        re.compile(
            r"\b(?:s?rand)\s*\(|std::time\b"
            r"|\btime\s*\(\s*(?:NULL|nullptr)\s*\)"),
        ("src", "tests", "bench", "examples"),
        set(),
        "non-deterministic rand()/srand()/std::time; use common/rng.hh",
    )(ctx)


@register_check(
    "raw-thread",
    "std::thread/jthread/async anywhere")
def check_raw_thread(ctx):
    # The simulator is single-threaded: the cluster co-simulation is
    # one min-clock loop, and its determinism rests on that. A thread
    # started anywhere races on the shared timelines.
    return pattern_check(
        re.compile(
            r"\bstd::(?:thread|jthread|async)\b"
            r"|#include\s*<(?:thread|future)>"),
        ("src", "tests", "bench", "examples"),
        set(),
        "raw threading in the single-threaded simulator",
    )(ctx)


@register_check(
    "bench-config-drift",
    "hand-rolled serving::ClusterConfig in bench/ mains")
def check_bench_config(ctx):
    # Figure benches describe experiments in committed .scenario files
    # and run them through scenario::runScenario; assembling a
    # ClusterConfig by hand in a bench main recreates per-experiment
    # drift. Only the simulator-core microbenchmark stays hand-built
    # (it measures the harness, not a paper figure).
    return pattern_check(
        re.compile(r"\bserving::ClusterConfig\b|\bClusterConfig\s+\w+\s*;"),
        ("bench",),
        {
            "bench/bench_simcore.cc",
        },
        "hand-rolled ClusterConfig assembly in bench/",
    )(ctx)


@register_check(
    "printf-io",
    "printf-family I/O outside common/logging")
def check_printf(ctx):
    return pattern_check(
        re.compile(
            r"\b(?:printf|fprintf|sprintf|snprintf|vsnprintf"
            r"|puts|putchar)\s*\("),
        ("src",),
        {
            "src/common/logging.cc",
            "src/common/logging.hh",
        },
        "printf-family I/O outside common/logging",
    )(ctx)


@register_check(
    "bare-mutex",
    "std::mutex family outside the annotated common/mutex.hh wrappers")
def check_bare_mutex(ctx):
    # Clang's thread-safety analysis only sees locks that carry
    # capability attributes; a bare std::mutex member silently opts its
    # guarded state out of the compile-time discipline. std::recursive_
    # mutex is doubly banned — the analysis cannot model re-entrant
    # acquisition at all (DESIGN.md §13).
    return pattern_check(
        re.compile(
            r"\bstd::(?:recursive_)?mutex\b|\bstd::(?:shared_)?timed_mutex\b"
            r"|\bstd::condition_variable(?:_any)?\b"
            r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
        ("src",),
        {
            # The one place allowed to touch the std primitives: the
            # annotated wrappers themselves.
            "src/common/mutex.hh",
        },
        "bare std mutex/lock primitive; use the capability-annotated "
        "wrappers from common/mutex.hh (sim::Mutex/sim::LockGuard)",
    )(ctx)


# ---------------------------------------------------------------------------
# Layering: the include-graph DAG (DESIGN.md §13 diagram).

# Module -> modules it may directly include (besides itself). The
# transitive closure is intentionally NOT granted: each edge is a
# design decision, reviewed when it first appears here.
ALLOWED_DEPS = {
    "common": set(),
    "audit": {"common"},
    "fault": {"common"},
    "trace": {"common"},
    "mem": {"common"},
    "sim": {"common", "audit"},
    "crypto": {"common", "audit", "sim", "fault"},
    "gpu": {"common", "audit", "crypto", "mem", "sim"},
    "llm": {"common", "gpu"},
    "runtime": {"common", "audit", "crypto", "fault", "gpu", "mem",
                "sim"},
    "pipellm": {"common", "audit", "crypto", "fault", "gpu", "mem",
                "runtime", "sim"},
    # serving -> crypto: KvMigrator owns per-pair SecureChannel
    # sessions (inter-replica KV migration links), reviewed with the
    # disaggregated-serving PR.
    "serving": {"common", "audit", "crypto", "fault", "llm", "runtime",
                "sim", "trace"},
    "chaos": {"common", "audit", "fault", "llm", "pipellm", "runtime",
              "serving", "trace"},
    "scenario": {"common", "chaos", "fault", "llm", "pipellm",
                 "runtime", "serving", "trace"},
}

# The cipher primitives are the bottom of the crypto stack: pure
# algorithms validated against NIST vectors, reusable anywhere. Only
# the session layer (channel/engine) may touch simulation or audit
# machinery.
CRYPTO_PRIMITIVES = ("aes", "gcm", "ghash", "iv")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def resolve_include(ctx, inc):
    """Map a quoted include to a repo-relative path.

    With compile_commands.json wired in, each -I directory is tried in
    order (the compiler's view); otherwise the repo root is the only
    include root, which matches the tree's include convention.
    """
    candidates = ctx.include_dirs if ctx.include_dirs else [ctx.root]
    for d in candidates:
        full = os.path.normpath(os.path.join(d, inc))
        if os.path.exists(full):
            rel = os.path.relpath(full, ctx.root)
            if not rel.startswith(".."):
                return rel.replace(os.sep, "/")
    return inc  # unresolved: treat as repo-relative spelling


@register_check(
    "layering",
    "include-graph rules: src modules follow the layering DAG; src "
    "never includes bench/tests/tools/examples")
def check_layering(ctx):
    findings = []
    for rel in ctx.source_files(("src/",)):
        parts = rel.split("/")
        if len(parts) < 3:
            continue
        module = parts[1]
        allowed = ALLOWED_DEPS.get(module)
        stem = os.path.splitext(parts[-1])[0]
        primitive = module == "crypto" and stem in CRYPTO_PRIMITIVES
        for lineno, line in enumerate(ctx.source(rel).lines, 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            inc = resolve_include(ctx, m.group(1))
            inc_parts = inc.split("/")
            # Includes are spelled relative to the repo root with the
            # src/ prefix dropped (target_include_directories adds
            # both), so "sim/foo.hh" means src/sim/foo.hh.
            if inc_parts[0] == "src" and len(inc_parts) > 1:
                inc_parts = inc_parts[1:]
            target = inc_parts[0]
            if target in ("bench", "tests", "tools", "examples"):
                findings.append(Diagnostic(
                    rel, lineno, "",
                    f"src/ must not include {target}/ "
                    f"(got \"{m.group(1)}\"); promote the dependency "
                    f"into a src/ library"))
                continue
            if allowed is None or target not in ALLOWED_DEPS:
                continue  # unknown module or non-module include
            if primitive and target not in ("common", "crypto"):
                findings.append(Diagnostic(
                    rel, lineno, "",
                    f"crypto primitive {stem} may only include "
                    f"common/ and other primitives, not {target}/"))
                continue
            if target != module and target not in allowed:
                findings.append(Diagnostic(
                    rel, lineno, "",
                    f"layer {module}/ may not include {target}/ "
                    f"(allowed: {', '.join(sorted(allowed)) or 'none'})"
                ))
    return findings


# ---------------------------------------------------------------------------
# Determinism: fingerprint-affecting code must not consult wall
# clocks, unordered iteration order, or the process locale.

DETERMINISM_DIRS = ("src/sim/", "src/serving/", "src/scenario/",
                    "src/chaos/")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system|steady|high_resolution)_clock"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|#include\s*<chrono>")

LOCALE_RE = re.compile(
    r"\bstd::locale\b|\bsetlocale\s*\(|\.imbue\s*\(")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_VAR_RE = re.compile(
    r">\s*(\w+)\s*(?:;|=|\{|\()")


@register_check(
    "determinism",
    "no wall clocks, unordered-container iteration, or locale use in "
    "fingerprint-affecting code (sim/serving/scenario/chaos)")
def check_determinism(ctx):
    findings = []
    for rel in ctx.source_files(DETERMINISM_DIRS):
        lines = ctx.source(rel).lines
        unordered_vars = set()
        # Pass 1: names declared with an unordered container type.
        # Heuristic: the identifier following the closing '>' of an
        # unordered_map/set declaration (members and locals alike).
        for line in lines:
            if not UNORDERED_DECL_RE.search(line):
                continue
            m = UNORDERED_VAR_RE.search(line)
            if m:
                unordered_vars.add(m.group(1))
        iter_re = None
        if unordered_vars:
            names = "|".join(re.escape(v) for v in sorted(unordered_vars))
            iter_re = re.compile(
                r"for\s*\([^;)]*:\s*(?:this->)?(?:" + names + r")\b"
                r"|\b(?:" + names + r")\s*\.\s*c?begin\s*\(")
        for lineno, line in enumerate(lines, 1):
            if WALL_CLOCK_RE.search(line):
                findings.append(Diagnostic(
                    rel, lineno, "",
                    "wall-clock time in fingerprint-affecting code; "
                    "simulated time is sim::Tick"))
            if LOCALE_RE.search(line):
                findings.append(Diagnostic(
                    rel, lineno, "",
                    "locale-dependent formatting in "
                    "fingerprint-affecting code"))
            if iter_re and iter_re.search(line):
                findings.append(Diagnostic(
                    rel, lineno, "",
                    "iteration over an unordered container in "
                    "fingerprint-affecting code; iterate a sorted key "
                    "vector or use std::map"))
    return findings


# ---------------------------------------------------------------------------
# Audit-hook coverage: the crypto primitives that consume IVs, seal or
# open tags, or open a fresh session epoch must tell the auditor.

AUDIT_SITES = [
    # (file-prefix, line regex, what the site is)
    ("src/", re.compile(r"\bgcm_->\s*(?:seal|open)\s*\("),
     "raw AEAD seal/open"),
    ("src/gpu/", re.compile(r"\b(?:rx|tx)_iv_\s*\.\s*next\s*\(\)"),
     "bus-crossing IV consumption"),
    ("src/", re.compile(r"::\s*(?:rekey|enableCc)\s*\([^;]*$"),
     "session-epoch transition"),
]

HOOK_RE = re.compile(r"\bPIPELLM_AUDIT_HOOK\s*\(")


def function_spans(lines):
    """(open, close) line pairs for gem5-style function bodies, whose
    braces sit in column 0. Good enough for the .cc layout this tree
    enforces via clang-format."""
    spans = []
    open_line = None
    for lineno, line in enumerate(lines, 1):
        if line.startswith("{") and open_line is None:
            open_line = lineno
        elif line.startswith("}") and open_line is not None:
            spans.append((open_line, lineno))
            open_line = None
    return spans


@register_check(
    "audit-hook-coverage",
    "IV-consuming / tag-sealing / epoch sites name a PIPELLM_AUDIT_HOOK "
    "in their enclosing function")
def check_audit_hooks(ctx):
    findings = []
    for rel in ctx.source_files(("src/",)):
        if not rel.endswith((".cc", ".cpp")):
            continue
        lines = ctx.source(rel).lines
        spans = None
        hook_lines = None
        for prefix, site_re, what in AUDIT_SITES:
            if not rel.startswith(prefix):
                continue
            for lineno, line in enumerate(lines, 1):
                if not site_re.search(line):
                    continue
                if spans is None:
                    spans = function_spans(lines)
                    hook_lines = [i for i, l in enumerate(lines, 1)
                                  if HOOK_RE.search(l)]
                enclosing = None
                for open_line, close_line in spans:
                    if open_line <= lineno <= close_line:
                        enclosing = (open_line, close_line)
                        break
                    # A definition-line match sits just above its body.
                    if lineno < open_line <= lineno + 3:
                        enclosing = (open_line, close_line)
                        break
                if enclosing is None:
                    continue  # declaration in a header chunk etc.
                lo, hi = enclosing
                if not any(lo <= h <= hi for h in hook_lines):
                    findings.append(Diagnostic(
                        rel, lineno, "",
                        f"{what} site has no PIPELLM_AUDIT_HOOK in its "
                        f"enclosing function; the invariant auditor "
                        f"must observe every such event"))
        # no sites → nothing to do for this file
    return findings


# ---------------------------------------------------------------------------
# Fault-model coverage (tree-level).

FAULT_ENUM_FILE = "src/fault/fault.hh"
FAULT_TEST_DIR = "tests/fault"

# Per-kind proofs beyond the Injection/Recovery pair. A restart is only
# safe if the re-keyed session provably rejects pre-crash ciphertexts,
# so that test is load-bearing and may not be deleted or renamed away.
# The migration kinds each pin the ledger side of their recovery: a
# failed/abandoned speculative window must be discarded, never
# verified, or the audit story for migrated KV is broken.
EXTRA_FAULT_TESTS = {
    "ReplicaRestart": ["ReplicaRestartRecoveryNeverReusesPreCrashIvs"],
    "MigrationTagFault":
        ["MigrationTagFaultRecoveryDiscardsSpeculativeWindow"],
    "MigrationStall": ["MigrationStallFallbackAbandonsChunksUnverified"],
    "DestCrashMidMigration":
        ["DestCrashMidMigrationAbandonedChunksNeverVerify"],
}


def fault_kinds(ctx):
    """Parse the ``enum class Kind`` enumerators out of fault.hh."""
    text = "\n".join(ctx.source(FAULT_ENUM_FILE).lines)
    match = re.search(r"enum\s+class\s+Kind\b[^{]*\{(.*?)\}", text,
                      re.DOTALL)
    if not match:
        return []
    body = re.sub(r"/\*.*?\*/", "", match.group(1), flags=re.DOTALL)
    body = re.sub(r"//[^\n]*", "", body)
    kinds = []
    for part in body.split(","):
        name = part.split("=")[0].strip()
        if re.fullmatch(r"[A-Za-z_]\w*", name or ""):
            kinds.append(name)
    return kinds


@register_check(
    "fault-test-coverage",
    "every fault::Fault::Kind has Injection/Recovery (+ extra proof) "
    "tests in tests/fault/",
    tree_level=True)
def check_fault_coverage(ctx):
    if FAULT_ENUM_FILE not in ctx.files:
        return []  # fixture trees without a fault model
    kinds = fault_kinds(ctx)
    if not kinds:
        return [Diagnostic(FAULT_ENUM_FILE, 1, "",
                           "could not parse fault::Fault::Kind "
                           "enumerators")]
    test_re = re.compile(r"TEST(?:_F|_P)?\(\s*\w+\s*,\s*(\w+)\s*\)")
    names = []
    for rel in ctx.files:
        if not rel.startswith(FAULT_TEST_DIR + "/"):
            continue
        if not rel.endswith(SOURCE_EXTENSIONS):
            continue
        names.extend(test_re.findall(
            "\n".join(ctx.source(rel).lines)))
    findings = []
    for kind in kinds:
        wanted = [kind + "Injection", kind + "Recovery"]
        wanted += EXTRA_FAULT_TESTS.get(kind, [])
        for want in wanted:
            if not any(want in name for name in names):
                findings.append(Diagnostic(
                    FAULT_ENUM_FILE, 1, "",
                    f"Fault::Kind::{kind} is missing a test named "
                    f"*{want}* under {FAULT_TEST_DIR}/"))
    return findings


# ---------------------------------------------------------------------------
# Engine.

def tracked_files(root):
    try:
        out = subprocess.run(
            ["git", "ls-files", "--cached", "--others",
             "--exclude-standard"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return out.splitlines()
    except (subprocess.CalledProcessError, OSError):
        files = []
        for dirpath, dirnames, names in os.walk(root):
            dirnames[:] = [d for d in dirnames
                           if d not in (".git", "build", "build-audit",
                                        "build-rel", "build-tsan")]
            for name in names:
                full = os.path.join(dirpath, name)
                files.append(os.path.relpath(full, root))
        return sorted(f.replace(os.sep, "/") for f in files)


def changed_files(root, base):
    out = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=d", base],
        cwd=root, capture_output=True, text=True, check=True).stdout
    return {line.strip() for line in out.splitlines() if line.strip()}


def include_dirs_from_compile_commands(root, path):
    """The union of -I directories, in first-seen order. Quoted
    includes resolve against these exactly as the compiler would."""
    try:
        with open(path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as err:
        print(f"pipellm-lint: cannot read {path}: {err}",
              file=sys.stderr)
        return []
    dirs = []
    seen = set()
    inc_re = re.compile(r"-I\s*(\S+)")
    for entry in entries:
        command = entry.get("command")
        if command is None:
            command = " ".join(entry.get("arguments", []))
        cwd = entry.get("directory", root)
        for m in inc_re.finditer(command):
            d = m.group(1)
            if not os.path.isabs(d):
                d = os.path.normpath(os.path.join(cwd, d))
            if d not in seen:
                seen.add(d)
                dirs.append(d)
    return dirs


def apply_suppressions(ctx, findings):
    """Drop findings carrying a justified allow(<check>) on the line or
    the one above; flag naked suppressions (no reason) instead."""
    kept = []
    for diag in findings:
        lines = ctx.source(diag.path).lines
        suppressed = False
        for lineno in (diag.line, diag.line - 1):
            if not 1 <= lineno <= len(lines):
                continue
            m = SUPPRESS_RE.search(lines[lineno - 1])
            if not m:
                continue
            if m.group(1) != diag.check:
                continue
            reason = m.group(2).strip().lstrip("-— ").strip()
            if not reason:
                kept.append(Diagnostic(
                    diag.path, lineno, diag.check,
                    "suppression without a justification; write "
                    "`pipellm-lint: allow(" + diag.check +
                    ") -- <reason>`"))
                suppressed = True
                break
            suppressed = True
            break
        if not suppressed:
            kept.append(diag)
    return kept


def run_checks(ctx, only=None):
    findings = []
    for check in CHECKS:
        if only and check["name"] not in only:
            continue
        if ctx.changed is not None and check["tree_level"]:
            # Tree-level checks still run in changed-files mode; they
            # are cheap and their verdict depends on the whole tree.
            pass
        for diag in check["fn"](ctx):
            diag.check = check["name"]
            findings.append(diag)
    findings = apply_suppressions(ctx, findings)
    findings.sort(key=lambda d: (d.path, d.line, d.check))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--root", dest="root_opt", default=None,
                        help="repository root (overrides positional)")
    parser.add_argument("--check", action="append", default=None,
                        metavar="NAME",
                        help="run only the named check (repeatable)")
    parser.add_argument("--changed-files", nargs="*", default=None,
                        metavar="FILE",
                        help="restrict file-scoped checks to FILES")
    parser.add_argument("--diff-base", default=None, metavar="GITREF",
                        help="restrict to files changed since GITREF")
    parser.add_argument("--compile-commands", default=None,
                        metavar="JSON",
                        help="resolve includes via the compiler's -I "
                             "dirs from this compile_commands.json")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in CHECKS:
            kind = "tree" if check["tree_level"] else "file"
            print(f"{check['name']:26} [{kind}] {check['description']}")
        return 0

    root = args.root_opt or args.root
    if args.check:
        unknown = set(args.check) - {c["name"] for c in CHECKS}
        if unknown:
            print("pipellm-lint: unknown check(s): "
                  + ", ".join(sorted(unknown)), file=sys.stderr)
            return 2

    changed = None
    if args.changed_files is not None:
        changed = {f.replace(os.sep, "/") for f in args.changed_files}
    elif args.diff_base:
        changed = changed_files(root, args.diff_base)

    include_dirs = []
    if args.compile_commands:
        include_dirs = include_dirs_from_compile_commands(
            root, args.compile_commands)

    ctx = Context(root, tracked_files(root), changed=changed,
                  include_dirs=include_dirs)
    findings = run_checks(ctx, only=set(args.check) if args.check
                          else None)
    if findings:
        print("pipellm-lint failed:")
        for diag in findings:
            print("  " + diag.render())
        return 1
    scope = ("changed files" if changed is not None else "tree")
    ran = len(args.check) if args.check else len(CHECKS)
    print(f"pipellm-lint passed ({ran} checks, {scope})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
