#!/usr/bin/env python3
"""Project lint for the Maxson repository.

Encodes the project-specific invariants that generic tooling cannot know
(see DESIGN.md, "Correctness tooling"):

  thread-create        No raw std::thread / std::jthread construction or
                       std::async outside src/exec/ — all parallelism flows
                       through the shared ThreadPool so the deterministic
                       merge discipline holds. The serving layer (src/serve/)
                       is explicitly covered: it blocks on client threads and
                       the shared pool, never spawning its own. Using
                       std::thread::id (e.g. for trace attribution) is fine;
                       creating threads is not.
  wall-clock           No direct std::chrono clock reads (steady_clock /
                       system_clock / high_resolution_clock) or C time
                       syscalls outside src/common/time_util.h. Every
                       timing site shares one monotonic clock.
  counter-write        MetricsRegistry::GetCounter may be called only at
                       the publication sites that sit *after* the
                       deterministic merge (src/obs itself, engine.cc's
                       PublishMetrics, the rewriter, the midnight cycle).
                       Scan/operator code must accumulate into QueryMetrics
                       and let the merge publish.
  include-hygiene      foo.cc includes its own foo.h first; no "../"
                       includes; headers carry canonical
                       MAXSON_<PATH>_H_ guards.
  nodiscard-guard      Status, Result<T>, and the MetricsRegistry lookup
                       helpers keep their [[nodiscard]] attributes (the
                       -Werror build enforces call sites; this guards the
                       declarations themselves).
  simd-intrinsics      Vendor intrinsics headers (<immintrin.h>, <arm_neon.h>
                       and friends) and __builtin_cpu_supports appear only
                       under src/simd/ — everything else calls the dispatched
                       kernels so one layer owns ISA-specific code and the
                       byte-identical-across-levels contract stays auditable.
  exec-layering        src/exec/ is the scheduling layer *below* parsing and
                       execution: it must not include engine/json/xml/core/
                       serve/catalog/ml/workload/simd headers nor name the
                       parse/execute entry points (MisonParser, CorcReader,
                       RawFilter, ExecutePlan, ExecuteScan). Scan work
                       reaches the scheduler as a SharedScanPassFn callback
                       supplied by the layer above, keeping the dependency
                       arrow engine -> exec one-directional.
  mutex-annotation     No raw std::mutex / std::shared_mutex members in src/
                       outside common/thread_annotations.h — locks are the
                       annotated maxson::Mutex / maxson::SharedMutex so the
                       Clang thread-safety analysis sees them. Every such
                       lock member must be referenced by at least one
                       MAXSON_* annotation in its file (GUARDED_BY /
                       REQUIRES / EXCLUDES / ...), so an unannotated lock
                       cannot silently opt out of the analysis.
  lock-order           Cross-TU lock-acquisition analysis. Parses class
                       lock members, member/local variable types, MAXSON_
                       annotations, and MutexLock / WriterMutexLock /
                       SharedMutexLock acquisition sites into a lock graph
                       (with transitive propagation through method calls).
                       Every observed nesting edge must be declared in
                       LOCK_HIERARCHY below, and the combined declared +
                       observed graph must be acyclic. The analysis is
                       textual and intentionally conservative: it suppresses
                       lambda bodies (they may run outside the critical
                       section that created them) and skips acquisitions it
                       cannot attribute — clang -Wthread-safety remains the
                       precise per-TU check; this rule adds the cross-TU
                       ordering discipline clang cannot see.
  status-discard       A statement that calls a Status / Result<T>-returning
                       function and drops the value. Redundant with the
                       [[nodiscard]] -Werror build for compiled code, but it
                       also covers code behind #if blocks the local build
                       never compiles, and it makes the discipline visible
                       to reviewers without a compiler.
  metric-name          Every "maxson_*" metric string literal in src/ must
                       be declared in src/obs/metric_names.h — the single
                       metric-name registry. A typo'd name cannot silently
                       create a parallel series.
  trailing-whitespace  No trailing blanks (mechanical; --fix rewrites).
  final-newline        Files end with exactly one newline (mechanical;
                       --fix rewrites).

Exit status: 0 when clean, 1 when violations remain, 2 on usage errors.
`--fix` auto-repairs the mechanical categories, then reports whatever is
left. `--self-test` seeds one violation per rule in a temp tree and checks
each rule fires — run by tools/ci.sh so a silently broken rule fails CI.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned for C++ sources, relative to the repo root.
CPP_DIRS = ("src", "tests", "bench", "tools", "examples")
CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")

# counter-write: publication sites that run after the deterministic merge.
COUNTER_WRITE_ALLOWLIST = (
    "src/obs/",              # the registry implementation itself
    "src/engine/engine.cc",  # PublishMetrics + plan-validation failures
    "src/core/maxson.cc",    # midnight-cycle outcome counters
    "src/core/maxson_parser.cc",  # rewrite outcome counters
    "src/serve/",            # serving-layer counters (admission, result
                             # cache) publish outside any query's merge
    "src/exec/shared_scan.cc",  # cross-query scan-sharing counters have no
                                # per-query merge barrier to publish behind
)

# nodiscard-guard: (file, regex that must match somewhere in the file).
NODISCARD_REQUIRED = (
    ("src/common/status.h", r"class\s+\[\[nodiscard\]\]\s+Status\b"),
    ("src/common/result.h", r"class\s+\[\[nodiscard\]\]\s+Result\b"),
    ("src/obs/metrics_registry.h", r"\[\[nodiscard\]\]\s+Counter\*\s+GetCounter"),
    ("src/obs/metrics_registry.h", r"\[\[nodiscard\]\]\s+Gauge\*\s+GetGauge"),
    ("src/obs/metrics_registry.h",
     r"\[\[nodiscard\]\]\s+Histogram\*\s+GetHistogram"),
)

THREAD_CREATE_RE = re.compile(r"std::(?:thread\b(?!::)|jthread\b|async\b)")
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)::now"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)")
COUNTER_WRITE_RE = re.compile(r"\bGetCounter\s*\(")
SIMD_INTRINSICS_RE = re.compile(
    r"#\s*include\s+<(?:[a-z0-9]*mmintrin\.h|x86intrin\.h|arm_neon\.h)>"
    r"|__builtin_cpu_supports\b")
EXEC_BANNED_INCLUDE_RE = re.compile(
    r'#\s*include\s+"(?:engine|json|xml|core|serve|catalog|ml|workload|simd)/')
EXEC_BANNED_IDENT_RE = re.compile(
    r"\b(?:MisonParser|CorcReader|RawFilter|ExecutePlan|ExecuteScan)\b")
PARENT_INCLUDE_RE = re.compile(r'#\s*include\s+"\.\./')
INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')
GUARD_RE = re.compile(r"#\s*ifndef\s+(\S+)")
TRAILING_WS_RE = re.compile(r"[ \t]+$")

# ---------------------------------------------------------------------------
# Lock-order analysis (cross-TU)
# ---------------------------------------------------------------------------

# The declared lock hierarchy: every "outer lock held while inner lock is
# acquired" pair the codebase is allowed to create, as Class::member nodes.
# The lock-order rule fails on any observed nesting edge missing from this
# set and on any cycle in the combined declared + observed graph. Adding an
# edge here is a design decision: document the call path that needs it.
LOCK_HIERARCHY = {
    # The manager lock is the outer lock of the shared-scan layer. Today
    # Subscribe deliberately releases mutex_ before registering morsels
    # (so subscriptions to different tables never contend), but if manager
    # and scheduler locks are ever nested, this is the only legal order —
    # MorselScheduler must never call back into its owning manager.
    ("SharedScanManager::mutex_", "MorselScheduler::mutex_"),
    # MaxsonServer::EnableResultCache clears the result cache under
    # options_mutex_ so "disable" atomically implies "emptied".
    ("MaxsonServer::options_mutex_", "ResultCache::mutex_"),
    # MaxsonSession::CacheBindingSnapshot refreshes the binding cache from
    # CacheRegistry::Snapshot while holding binding_cache_mutex_, making
    # snapshot+version a single atomic read for the plan validator.
    ("MaxsonSession::binding_cache_mutex_", "CacheRegistry::mutex_"),
    # MetricsRegistry::RenderPrometheus reads Histogram::sum() for every
    # histogram series while holding the registry lock so one scrape is a
    # consistent snapshot of the series map. Histogram::Observe never
    # touches the registry lock, so the reverse order cannot occur.
    ("MetricsRegistry::mutex_", "Histogram::sum_mutex_"),
}

LOCK_TYPE_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:maxson::)?(Mutex|SharedMutex)\s+(\w+)\s*;")
RAW_MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(?:recursive_|timed_|shared_)?mutex\s+\w+\s*;")
ANNOTATION_ARG_RE = re.compile(r"MAXSON_[A-Z_]+\(([^()]*)\)")
CLASS_DECL_RE = re.compile(r"^\s*(?:class|struct)\s+(\w+)\b")
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?([A-Za-z_][\w:]*(?:<[\w:,\s<>*]*>)?)"
    r"\s*[*&]?\s+(\w+)\s*(?:MAXSON_\w+\([^()]*\)\s*)?(?:;|=|\{)")
ACQUIRE_RE = re.compile(
    r"\b(?:MutexLock|WriterMutexLock|SharedMutexLock)\s+\w+\s*\(([^()]*)\)")
METHOD_SIG_RE = re.compile(r"\b(\w+)::(~?\w+)\s*\(")
INLINE_SIG_RE = re.compile(r"(?<![\w.>:])(~?\w+)\s*\(")
MEMBER_CALL_RE = re.compile(r"\b(\w+)(?:\.|->)(\w+)\s*\(")
LOCAL_REF_RE = re.compile(
    r"^\s*(?:const\s+)?([\w:]+(?:<[\w:,\s<>*]*>)?)\s*[&*]\s*(\w+)\s*=")
LAMBDA_OPEN_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:->\s*[\w:<>&*\s]+)?$")
REQUIRES_RE = re.compile(r"MAXSON_REQUIRES\(([^()]*)\)")

CPP_KEYWORDS = frozenset((
    "if", "while", "for", "switch", "return", "sizeof", "catch", "new",
    "delete", "do", "else", "case", "default", "throw", "static_assert",
    "alignof", "decltype", "noexcept", "operator",
))


def strip_block_comments_and_literals(lines):
    """Returns code-only lines: block/line comments removed, string and char
    literal *contents* blanked (quotes kept) so brace counting and token
    matching never see quoted text."""
    out = []
    in_block = False
    for raw in lines:
        line = raw.rstrip("\n")
        buf = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            if ch == "/" and line.startswith("//", i):
                break
            if ch == "/" and line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                buf.append(quote)
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                buf.append(quote)
                i += 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


def _norm_type(type_str):
    """shared_ptr<core::Foo>* -> Foo (unwraps one smart-pointer layer)."""
    t = type_str.strip()
    m = re.match(r"(?:std::)?(?:shared_ptr|unique_ptr|optional)\s*<(.+)>$", t)
    if m:
        t = m.group(1).strip()
    t = t.rstrip("*& ")
    return t.split("::")[-1]


class LockModel:
    """What the lock-order pass learns about the tree."""

    def __init__(self):
        self.classes = set()
        self.lock_members = {}    # cls -> set(member name)
        self.member_types = {}    # (cls, member) -> normalized type name
        self.requires = {}        # (cls, method) -> [lock member names]
        self.direct = {}          # (cls, method) -> set(lock node str)
        self.calls = {}           # (cls, method) -> set((cls, method))
        self.nest_edges = []      # (holder, inner, rel, line) direct nesting
        self.call_sites = []      # (rel, line, held(list), callee(cls, meth))

    def is_lock(self, cls, member):
        return member in self.lock_members.get(cls, ())


def _scan_file_for_locks(model, rel, lines):
    """One pass over a src/ file: class/member decls, REQUIRES annotations,
    and lock acquisitions inside (inline or out-of-line) method bodies."""
    code_lines = strip_block_comments_and_literals(lines)
    depth = 0
    class_stack = []       # (name, body_depth)
    pending_class = None
    cur_fn = None          # (cls, method)
    fn_open_depth = 0
    pending_sig = None
    held = []              # (lock node, depth acquired at)
    lambda_depths = []     # brace depths of active lambda bodies
    ns_depths = []         # brace depths of namespace scopes (transparent)
    last_decl_method = None

    def cur_class():
        return class_stack[-1][0] if class_stack else None

    def resolve_lock(arg, cls):
        arg = arg.strip()
        if arg.endswith("()"):
            return arg  # lock factory function, e.g. SinkMutex()
        parts = re.split(r"->|\.", arg)
        if len(parts) == 1:
            if cls is not None and model.is_lock(cls, arg):
                return f"{cls}::{arg}"
            return None
        base, field = parts[0], parts[-1]
        base_cls = model.member_types.get((cls, base))
        if base_cls is not None and model.is_lock(base_cls, field):
            return f"{base_cls}::{field}"
        return None

    locals_map = {}

    for lineno, code in enumerate(code_lines, 1):
        m = CLASS_DECL_RE.match(code)
        if m and cur_fn is None and "{" not in code and code.rstrip().endswith(";"):
            m = None  # forward declaration
        if m and cur_fn is None:
            pending_class = m.group(1)
            model.classes.add(pending_class)

        # Class-scope declarations (members, REQUIRES on method decls).
        if class_stack and cur_fn is None:
            cls = cur_class()
            lm = LOCK_TYPE_RE.match(code)
            if lm:
                model.lock_members.setdefault(cls, set()).add(lm.group(2))
            else:
                mm = MEMBER_DECL_RE.match(code)
                if mm and mm.group(2) not in CPP_KEYWORDS:
                    model.member_types[(cls, mm.group(2))] = _norm_type(
                        mm.group(1))
            sig = INLINE_SIG_RE.search(code)
            if sig and not sig.group(1).startswith("MAXSON_") \
                    and sig.group(1) not in CPP_KEYWORDS:
                last_decl_method = sig.group(1)
            req = REQUIRES_RE.search(code)
            if req and last_decl_method is not None:
                model.requires.setdefault((cls, last_decl_method), set()).update(
                    a.strip() for a in req.group(1).split(","))

        # Definition signatures: out-of-line Cls::Method at namespace scope,
        # inline Method at class-body scope. Namespace braces are
        # transparent — they raise brace depth but not declaration scope.
        scope_depth = class_stack[-1][1] if class_stack else len(ns_depths)
        if cur_fn is None and depth == scope_depth:
            sig_matches = list(METHOD_SIG_RE.finditer(code))
            if sig_matches and not class_stack:
                pending_sig = sig_matches[-1].group(1), sig_matches[-1].group(2)
            elif class_stack:
                sig = INLINE_SIG_RE.search(code)
                if sig and not sig.group(1).startswith("MAXSON_") \
                        and sig.group(1) not in CPP_KEYWORDS \
                        and not ACQUIRE_RE.search(code[:sig.start()]):
                    pending_sig = (cur_class(), sig.group(1))
        if pending_sig is not None and cur_fn is None and ";" in code \
                and "{" not in code:
            pending_sig = None  # was a declaration, not a definition

        # Walk brace / acquisition / call events in position order.
        events = []
        for i, ch in enumerate(code):
            if ch in "{}":
                events.append((i, ch, None))
        in_lambda_now = bool(lambda_depths)
        if cur_fn is not None and not in_lambda_now:
            for am in ACQUIRE_RE.finditer(code):
                events.append((am.start(), "acq", am.group(1)))
            for cm in MEMBER_CALL_RE.finditer(code):
                events.append((cm.start(), "mcall",
                               (cm.group(1), cm.group(2))))
            for bm in INLINE_SIG_RE.finditer(code):
                name = bm.group(1)
                if name not in CPP_KEYWORDS and not name.startswith("MAXSON_"):
                    events.append((bm.start(), "bcall", name))
            lr = LOCAL_REF_RE.match(code)
            if lr:
                locals_map[lr.group(2)] = _norm_type(lr.group(1))
        events.sort(key=lambda e: e[0])

        fn_cls = cur_fn[0] if cur_fn else None
        fn_key = cur_fn
        for pos, kind, payload in events:
            if kind == "{":
                depth += 1
                if re.search(r"\bnamespace\s+[\w:]*\s*$", code[:pos]):
                    ns_depths.append(depth)
                elif LAMBDA_OPEN_RE.search(code[:pos]):
                    lambda_depths.append(depth)
                elif pending_class is not None:
                    class_stack.append((pending_class, depth))
                    pending_class = None
                elif pending_sig is not None and cur_fn is None:
                    cur_fn = pending_sig
                    fn_cls, fn_key = cur_fn[0], cur_fn
                    fn_open_depth = depth
                    pending_sig = None
                    locals_map = {}
                    model.direct.setdefault(fn_key, set())
                    model.calls.setdefault(fn_key, set())
                    for req_lock in model.requires.get(fn_key, ()):
                        node = resolve_lock(req_lock, fn_cls)
                        if node is not None:
                            held.append((node, depth - 1))
            elif kind == "}":
                depth -= 1
                held[:] = [(n, d) for n, d in held if d <= depth]
                while lambda_depths and lambda_depths[-1] > depth:
                    lambda_depths.pop()
                while ns_depths and ns_depths[-1] > depth:
                    ns_depths.pop()
                if cur_fn is not None and depth < fn_open_depth:
                    cur_fn = None
                    fn_cls = fn_key = None
                    held = []
                    locals_map = {}
                if class_stack and depth < class_stack[-1][1]:
                    class_stack.pop()
                    last_decl_method = None
            elif lambda_depths:
                continue  # suppress body of a lambda: it may run later
            elif kind == "acq" and cur_fn is not None:
                node = resolve_lock(payload, fn_cls)
                if node is None:
                    continue
                for holder, _ in held:
                    model.nest_edges.append((holder, node, rel, lineno))
                held.append((node, depth))
                model.direct[fn_key].add(node)
            elif kind == "mcall" and cur_fn is not None:
                recv, meth = payload
                recv_cls = model.member_types.get((fn_cls, recv))
                if recv_cls is None:
                    recv_cls = locals_map.get(recv)
                if recv_cls is None:
                    continue
                model.calls[fn_key].add((recv_cls, meth))
                if held:
                    model.call_sites.append(
                        (rel, lineno, [n for n, _ in held], (recv_cls, meth)))
            elif kind == "bcall" and cur_fn is not None:
                callee = (fn_cls, payload)
                model.calls[fn_key].add(callee)
                if held:
                    model.call_sites.append(
                        (rel, lineno, [n for n, _ in held], callee))


def check_lock_order(root, files, out):
    model = LockModel()
    src_files = [(rel, lines) for rel, lines in sorted(files.items())
                 if rel.startswith("src/")]
    # Declaration pass over the headers first: an inline method body may
    # precede the private section that declares the lock it takes, so body
    # attribution needs the full member map before it can resolve anything.
    for rel, lines in src_files:
        if rel.endswith(".h"):
            _scan_file_for_locks(model, rel, lines)
    model.direct = {}
    model.calls = {}
    model.nest_edges = []
    model.call_sites = []
    for rel, lines in src_files:
        _scan_file_for_locks(model, rel, lines)

    # Transitive closure: locks a method acquires, directly or via callees.
    closure = {fn: set(direct) for fn, direct in model.direct.items()}
    changed = True
    while changed:
        changed = False
        for fn, callees in model.calls.items():
            for callee in callees:
                extra = closure.get(callee, ())
                if extra and not closure.setdefault(fn, set()).issuperset(
                        extra):
                    closure[fn].update(extra)
                    changed = True

    edges = {}  # (holder, inner) -> (rel, line) of first observation
    for holder, inner, rel, lineno in model.nest_edges:
        edges.setdefault((holder, inner), (rel, lineno))
    for rel, lineno, held, callee in model.call_sites:
        for inner in closure.get(callee, ()):
            for holder in held:
                edges.setdefault((holder, inner), (rel, lineno))

    for (holder, inner), (rel, lineno) in sorted(edges.items()):
        if holder == inner:
            out.append(Violation(
                "lock-order", rel, lineno,
                f"acquires {inner} while already holding it — "
                "self-deadlock"))
        elif (holder, inner) not in LOCK_HIERARCHY:
            out.append(Violation(
                "lock-order", rel, lineno,
                f"undeclared nesting: {inner} acquired while holding "
                f"{holder} — declare the edge in tools/lint.py "
                "LOCK_HIERARCHY (with justification) or restructure to "
                "release the outer lock first"))

    # Cycle check over declared + observed edges.
    graph = {}
    for holder, inner in set(edges) | LOCK_HIERARCHY:
        graph.setdefault(holder, set()).add(inner)
    state = {}  # node -> 1 (on stack) / 2 (done)
    cycles = []

    def visit(node, path):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                cycles.append(path[path.index(nxt):] + [nxt])
            elif nxt not in state:
                visit(nxt, path)
        path.pop()
        state[node] = 2

    for node in sorted(graph):
        if node not in state:
            visit(node, [])
    for cycle in cycles:
        first_edge = (cycle[0], cycle[1])
        rel, lineno = edges.get(first_edge, ("tools/lint.py", 0))
        out.append(Violation(
            "lock-order", rel, lineno,
            "lock-order cycle: " + " -> ".join(cycle)))


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based, or 0 for whole-file findings
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_line_comment(line):
    """Removes a // comment (good enough: the banned tokens never appear in
    string literals in this codebase)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def iter_cpp_files(root):
    for top in CPP_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith("build")]
            for name in sorted(filenames):
                if name.endswith(CPP_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def read_lines(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read().splitlines(keepends=True)


def check_thread_create(root, rel, lines, out):
    if not rel.startswith("src/") or rel.startswith("src/exec/"):
        return
    for i, line in enumerate(lines, 1):
        if THREAD_CREATE_RE.search(strip_line_comment(line)):
            out.append(Violation(
                "thread-create", rel, i,
                "raw thread creation outside src/exec/ — use the shared "
                "exec::ThreadPool (TaskGroup / ParallelFor)"))


def check_wall_clock(root, rel, lines, out):
    if not rel.startswith("src/") or rel == "src/common/time_util.h":
        return
    for i, line in enumerate(lines, 1):
        if WALL_CLOCK_RE.search(strip_line_comment(line)):
            out.append(Violation(
                "wall-clock", rel, i,
                "direct clock read — use maxson::MonotonicNow() / Stopwatch "
                "from common/time_util.h"))


def check_counter_write(root, rel, lines, out):
    if not rel.startswith("src/"):
        return
    if any(rel == a or rel.startswith(a) for a in COUNTER_WRITE_ALLOWLIST):
        return
    for i, line in enumerate(lines, 1):
        if COUNTER_WRITE_RE.search(strip_line_comment(line)):
            out.append(Violation(
                "counter-write", rel, i,
                "GetCounter outside the deterministic publication sites — "
                "accumulate into QueryMetrics and let the merge publish"))


def expected_guard(rel):
    # src/foo/bar.h -> MAXSON_FOO_BAR_H_
    stem = rel[len("src/"):]
    return "MAXSON_" + re.sub(r"[/.]", "_", stem).upper() + "_"


def check_include_hygiene(root, rel, lines, out):
    for i, line in enumerate(lines, 1):
        if PARENT_INCLUDE_RE.search(line):
            out.append(Violation(
                "include-hygiene", rel, i,
                'parent-relative #include "../..." — include from the src/ '
                "root instead"))
    if rel.startswith("src/") and rel.endswith(".h"):
        guard = None
        for line in lines:
            m = GUARD_RE.search(line)
            if m:
                guard = m.group(1)
                break
        want = expected_guard(rel)
        if guard != want:
            out.append(Violation(
                "include-hygiene", rel, 1,
                f"include guard {guard or '(missing)'} should be {want}"))
    if rel.startswith("src/") and rel.endswith(".cc"):
        own = rel[len("src/"):-len(".cc")] + ".h"
        if os.path.exists(os.path.join(root, "src", own)):
            for i, line in enumerate(lines, 1):
                m = INCLUDE_RE.search(line)
                if m is None:
                    continue
                if m.group(1) != own:
                    out.append(Violation(
                        "include-hygiene", rel, i,
                        f'first #include must be the own header "{own}"'))
                break


def check_simd_intrinsics(root, rel, lines, out):
    if rel.startswith("src/simd/"):
        return
    for i, line in enumerate(lines, 1):
        if SIMD_INTRINSICS_RE.search(strip_line_comment(line)):
            out.append(Violation(
                "simd-intrinsics", rel, i,
                "intrinsics header / cpu-feature probe outside src/simd/ — "
                "call the dispatched kernels from simd/kernels.h instead"))


def check_exec_layering(root, rel, lines, out):
    if not rel.startswith("src/exec/"):
        return
    for i, line in enumerate(lines, 1):
        code = strip_line_comment(line)
        if EXEC_BANNED_INCLUDE_RE.search(code):
            out.append(Violation(
                "exec-layering", rel, i,
                "src/exec/ must not include the parse/execute layers — the "
                "scheduler receives work as a SharedScanPassFn callback, "
                "never by calling parsers or the engine itself"))
        elif EXEC_BANNED_IDENT_RE.search(code):
            out.append(Violation(
                "exec-layering", rel, i,
                "parse/execute entry point named in src/exec/ — route the "
                "work through a pass callback supplied by the layer above"))


def check_nodiscard_guard(root, rel, lines, out):
    text = "".join(lines)
    for path, pattern in NODISCARD_REQUIRED:
        if rel == path and not re.search(pattern, text):
            out.append(Violation(
                "nodiscard-guard", rel, 0,
                f"required [[nodiscard]] declaration missing: /{pattern}/"))


def check_mutex_annotation(root, rel, lines, out):
    if not rel.startswith("src/") or rel == "src/common/thread_annotations.h":
        return
    annotated = set()
    for line in lines:
        for m in ANNOTATION_ARG_RE.finditer(line):
            for arg in m.group(1).split(","):
                annotated.add(re.split(r"->|\.", arg.strip())[-1])
    for i, line in enumerate(lines, 1):
        code = strip_line_comment(line)
        if RAW_MUTEX_MEMBER_RE.match(code):
            out.append(Violation(
                "mutex-annotation", rel, i,
                "raw std:: mutex member — use the annotated maxson::Mutex / "
                "SharedMutex from common/thread_annotations.h so the Clang "
                "thread-safety analysis covers it"))
            continue
        m = LOCK_TYPE_RE.match(code)
        if m and m.group(2) not in annotated:
            out.append(Violation(
                "mutex-annotation", rel, i,
                f"lock member {m.group(2)} is never referenced by a MAXSON_* "
                "annotation in this file — annotate the data it guards "
                "(MAXSON_GUARDED_BY) or the functions that take it "
                "(MAXSON_REQUIRES / MAXSON_EXCLUDES)"))


STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+)*"
    r"(?:Status|Result<[^;{}=]*>)\s+(\w+)\s*\(")
VOIDISH_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*"
    r"(?:void|bool|int|size_t|uint64_t|int64_t|double|float|auto|"
    r"std::string)[&*]?\s+(\w+)\s*\(")
STMT_CALL_RE = re.compile(r"((?:\w+(?:\.|->|::))*)(\w+)\s*\(")


def check_status_discard(root, files, out):
    # Harvest Status / Result<T>-returning function names from src/ headers;
    # names also declared with a non-discardable return anywhere are dropped
    # as ambiguous (the textual check cannot do overload resolution).
    status_names = set()
    other_names = set()
    for rel, lines in files.items():
        if not rel.startswith("src/") or not rel.endswith(".h"):
            continue
        for line in lines:
            m = STATUS_DECL_RE.match(strip_line_comment(line))
            if m:
                status_names.add(m.group(1))
            m = VOIDISH_DECL_RE.match(strip_line_comment(line))
            if m:
                other_names.add(m.group(1))
    status_names -= other_names
    if not status_names:
        return
    for rel, lines in sorted(files.items()):
        if not rel.startswith("src/"):
            continue
        prev_end = ";"
        for i, line in enumerate(lines, 1):
            code = strip_line_comment(line).strip()
            if not code:
                continue
            starts_statement = prev_end in ";{}:"
            prev_end = code[-1]
            if not starts_statement:
                continue
            m = STMT_CALL_RE.match(code)
            if m and m.group(2) in status_names:
                out.append(Violation(
                    "status-discard", rel, i,
                    f"result of {m.group(2)}() is discarded — handle the "
                    "Status/Result or cast to (void) with a comment saying "
                    "why failure is ignorable"))


METRIC_LITERAL_RE = re.compile(r'"(maxson_[a-z0-9_]+)"')
METRIC_NAMES_HEADER = "src/obs/metric_names.h"


def check_metric_names(root, files, out):
    declared = set()
    for line in files.get(METRIC_NAMES_HEADER, ()):
        declared.update(METRIC_LITERAL_RE.findall(line))
    for rel, lines in sorted(files.items()):
        if not rel.startswith("src/") or rel == METRIC_NAMES_HEADER:
            continue
        for i, line in enumerate(lines, 1):
            for name in METRIC_LITERAL_RE.findall(strip_line_comment(line)):
                if name not in declared:
                    out.append(Violation(
                        "metric-name", rel, i,
                        f'metric "{name}" is not declared in '
                        "src/obs/metric_names.h — add a named constant "
                        "there and use it at the call site"))


def check_trailing_ws(root, rel, lines, out, fix):
    dirty = [i for i, line in enumerate(lines, 1)
             if TRAILING_WS_RE.search(line.rstrip("\n"))]
    if not dirty:
        return
    if fix:
        fixed = [TRAILING_WS_RE.sub("", line.rstrip("\n")) +
                 ("\n" if line.endswith("\n") else "") for line in lines]
        with open(os.path.join(root, rel), "w", encoding="utf-8") as f:
            f.writelines(fixed)
        lines[:] = fixed
        return
    for i in dirty:
        out.append(Violation("trailing-whitespace", rel, i,
                             "trailing whitespace"))


def check_final_newline(root, rel, lines, out, fix):
    if not lines:
        return
    ok = lines[-1].endswith("\n") and (len(lines) == 1 or lines[-1] != "\n")
    # also reject multiple blank lines at EOF
    if lines[-1] == "\n":
        ok = False
    if ok:
        return
    if fix:
        while lines and lines[-1].strip() == "":
            lines.pop()
        if lines:
            lines[-1] = lines[-1].rstrip("\n") + "\n"
        with open(os.path.join(root, rel), "w", encoding="utf-8") as f:
            f.writelines(lines)
        return
    out.append(Violation("final-newline", rel, len(lines),
                         "file must end with exactly one newline"))


def run_lint(root, fix=False):
    violations = []
    files = {}
    for rel in iter_cpp_files(root):
        lines = read_lines(root, rel)
        # Mechanical rules first: --fix then re-reads nothing, the in-place
        # edit keeps `lines` current for the semantic rules below.
        check_trailing_ws(root, rel, lines, violations, fix)
        check_final_newline(root, rel, lines, violations, fix)
        check_thread_create(root, rel, lines, violations)
        check_wall_clock(root, rel, lines, violations)
        check_counter_write(root, rel, lines, violations)
        check_simd_intrinsics(root, rel, lines, violations)
        check_exec_layering(root, rel, lines, violations)
        check_include_hygiene(root, rel, lines, violations)
        check_nodiscard_guard(root, rel, lines, violations)
        check_mutex_annotation(root, rel, lines, violations)
        files[rel] = lines
    # Cross-file analyses run once over the collected tree.
    check_status_discard(root, files, violations)
    check_metric_names(root, files, violations)
    check_lock_order(root, files, violations)
    return violations


SELF_TEST_FILES = (
    # (rule, path, content) — each entry seeds that violation at that path
    # and the self-test requires the rule to fire *on that file*. Rules may
    # appear more than once to pin coverage of every guarded directory:
    # src/serve/ gets its own thread-create seed because the serving layer
    # waits on client threads and must never create threads of its own.
    ("thread-create", "src/engine/bad_thread.cc",
     '#include "engine/bad_thread.h"\n'
     "void f() { std::thread t([] {}); }\n"),
    ("thread-create", "src/serve/bad_thread.cc",
     '#include "serve/bad_thread.h"\n'
     "void g() { std::thread t([] {}); }\n"),
    ("wall-clock", "src/engine/bad_clock.cc",
     '#include "engine/bad_clock.h"\n'
     "auto t = std::chrono::steady_clock::now();\n"),
    ("counter-write", "src/engine/bad_counter.cc",
     '#include "engine/bad_counter.h"\n'
     'void f(R* r) { r->GetCounter("x")->Increment(); }\n'),
    ("simd-intrinsics", "src/engine/bad_intrinsics.cc",
     '#include "engine/bad_intrinsics.h"\n'
     "#include <immintrin.h>\n"),
    # Two exec-layering seeds pin both detection paths: the include ban and
    # the entry-point-identifier ban.
    ("exec-layering", "src/exec/bad_include.cc",
     '#include "exec/bad_include.h"\n'
     '#include "engine/table_scan.h"\n'),
    ("exec-layering", "src/exec/bad_parse_call.cc",
     '#include "exec/bad_parse_call.h"\n'
     "void f() { maxson::storage::CorcReader reader; }\n"),
    ("include-hygiene", "src/engine/bad_guard.h",
     "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n"
     "#endif\n"),
    ("nodiscard-guard", "src/common/status.h",
     "class Status {};\n"),
    ("trailing-whitespace", "src/engine/bad_ws.cc",
     '#include "engine/bad_ws.h"\n'
     "int x = 1;   \n"),
    ("final-newline", "src/engine/bad_eof.cc",
     '#include "engine/bad_eof.h"\n'
     "int y = 2;"),
    # Lock-order seed: two classes whose methods nest each other's locks —
    # both edges are undeclared and together they form a hierarchy cycle,
    # so this seed pins the undeclared-edge and the cycle detection paths.
    (None, "src/engine/bad_order.h",
     "#ifndef MAXSON_ENGINE_BAD_ORDER_H_\n"
     "#define MAXSON_ENGINE_BAD_ORDER_H_\n"
     '#include "common/thread_annotations.h"\n'
     "namespace maxson::engine {\n"
     "class BadOrderA;\n"
     "class BadOrderB {\n"
     " public:\n"
     "  void Poke() MAXSON_EXCLUDES(mutex_);\n"
     "  Mutex mutex_;\n"
     "  BadOrderA* a_ = nullptr;\n"
     "};\n"
     "class BadOrderA {\n"
     " public:\n"
     "  void Touch() MAXSON_EXCLUDES(mutex_);\n"
     "  Mutex mutex_;\n"
     "  BadOrderB* b_ = nullptr;\n"
     "};\n"
     "}  // namespace maxson::engine\n"
     "#endif  // MAXSON_ENGINE_BAD_ORDER_H_\n"),
    ("lock-order", "src/engine/bad_order.cc",
     '#include "engine/bad_order.h"\n'
     "namespace maxson::engine {\n"
     "void BadOrderA::Touch() {\n"
     "  MutexLock lock(mutex_);\n"
     "  b_->Poke();\n"
     "}\n"
     "void BadOrderB::Poke() {\n"
     "  MutexLock lock(mutex_);\n"
     "  a_->Touch();\n"
     "}\n"
     "}  // namespace maxson::engine\n"),
    # Both mutex-annotation detection paths: a raw std::mutex member and an
    # annotated-type lock member no MAXSON_* annotation ever names.
    ("mutex-annotation", "src/engine/bad_mutex.h",
     "#ifndef MAXSON_ENGINE_BAD_MUTEX_H_\n"
     "#define MAXSON_ENGINE_BAD_MUTEX_H_\n"
     "#include <mutex>\n"
     '#include "common/thread_annotations.h"\n'
     "namespace maxson::engine {\n"
     "class BadMutex {\n"
     "  std::mutex raw_;\n"
     "  Mutex unreferenced_;\n"
     "};\n"
     "}  // namespace maxson::engine\n"
     "#endif  // MAXSON_ENGINE_BAD_MUTEX_H_\n"),
    (None, "src/engine/bad_discard.h",
     "#ifndef MAXSON_ENGINE_BAD_DISCARD_H_\n"
     "#define MAXSON_ENGINE_BAD_DISCARD_H_\n"
     "namespace maxson::engine {\n"
     "Status MutateThing();\n"
     "}  // namespace maxson::engine\n"
     "#endif  // MAXSON_ENGINE_BAD_DISCARD_H_\n"),
    ("status-discard", "src/engine/bad_discard.cc",
     '#include "engine/bad_discard.h"\n'
     "namespace maxson::engine {\n"
     "void Caller() {\n"
     "  MutateThing();\n"
     "}\n"
     "}  // namespace maxson::engine\n"),
    ("metric-name", "src/engine/bad_metric.cc",
     '#include "engine/bad_metric.h"\n'
     'void f(R* r) { r->GetGauge("maxson_bogus_gauge")->Set(1.0); }\n'),
)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for _, rel, content in SELF_TEST_FILES:
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        found = run_lint(tmp)
        hits = {(v.rule, v.path) for v in found}
        for rule, rel, _ in SELF_TEST_FILES:
            # rule=None marks a support file another seed needs (a header
            # declaring what its .cc seed misuses); it need not fire itself.
            if rule is not None and (rule, rel) not in hits:
                failures.append(
                    f"rule {rule} did not fire on seeded violation in {rel}")
        # The lock-order seed must trip both detection paths: the
        # undeclared-edge report and the cycle report.
        order_msgs = [v.message for v in found
                      if v.rule == "lock-order"
                      and v.path == "src/engine/bad_order.cc"]
        if not any("undeclared nesting" in m for m in order_msgs):
            failures.append("lock-order did not report the undeclared edge")
        if not any("cycle" in m for m in order_msgs):
            failures.append("lock-order did not report the hierarchy cycle")
        # --fix must clear the mechanical categories and only those: the
        # semantic rules must survive a --fix run unrepaired and unsilenced.
        fixed_left = {v.rule for v in run_lint(tmp, fix=True)}
        for rule in ("trailing-whitespace", "final-newline"):
            if rule in fixed_left:
                failures.append(f"--fix did not repair {rule}")
        for rule in ("thread-create", "wall-clock", "counter-write",
                     "simd-intrinsics", "exec-layering",
                     "lock-order", "mutex-annotation", "status-discard",
                     "metric-name"):
            if rule not in fixed_left:
                failures.append(f"--fix must not silence {rule}")
    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    rules = {rule for rule, _, _ in SELF_TEST_FILES if rule is not None}
    seeds = sum(1 for rule, _, _ in SELF_TEST_FILES if rule is not None)
    print(f"self-test OK: all {len(rules)} rules fire on "
          f"{seeds} seeded violations and --fix repairs only "
          "the mechanical ones")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fix", action="store_true",
                        help="auto-repair mechanical categories "
                             "(trailing-whitespace, final-newline)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint (default: this repo)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    violations = run_lint(args.root, fix=args.fix)
    for v in violations:
        print(v)
    if violations:
        rules = sorted({v.rule for v in violations})
        print(f"\nlint: {len(violations)} violation(s) across rules: "
              f"{', '.join(rules)}", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
