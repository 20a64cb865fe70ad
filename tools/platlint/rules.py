"""platlint rule framework and the PLATINUM rule set.

Every rule produces `Finding`s over a `cpp_model.RepoModel`. Suppression:

  * `platlint: allow(<rule>): <reason>` in a comment on the flagged line or
    one of the two preceding lines;
  * `nondet-ok: <reason>` likewise, accepted (for backward compatibility)
    by the three nondeterminism rules;
  * a JSON baseline file with `{"rule": ..., "path": ...}` entries that
    silence a whole (rule, file) pair — for grandfathered debt only.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

import dataflow
from cpp_model import RepoModel, _match_paren, calls_of, locals_of

# Directories making up the deterministic simulation core (the scope of the
# wall-clock, randomness and unordered-container rules).
DETERMINISM_DIRS = ("src/sim/", "src/mem/", "src/kernel/", "src/apps/")

_ALLOW_RE = re.compile(r"platlint:\s*allow\(([\w,\- ]+)\)")
_NONDET_OK_RE = re.compile(r"nondet-ok:")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""

    def to_json(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "snippet": self.snippet}

    def __str__(self):
        s = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.snippet:
            s += f"\n    {self.snippet}"
        return s


def _suppressed(model: RepoModel, finding: Finding, nondet_compat: bool) -> bool:
    sf = model.files.get(finding.path)
    if sf is None:
        return False
    lo = max(0, finding.line - 3)
    window = sf.raw_lines[lo:finding.line]
    for line in window:
        m = _ALLOW_RE.search(line)
        if m and finding.rule in {r.strip() for r in m.group(1).split(",")}:
            return True
        if nondet_compat and _NONDET_OK_RE.search(line):
            return True
    return False


class Rule:
    name = ""
    description = ""
    nondet_compat = False  # honors legacy `nondet-ok:` suppressions

    def run(self, model: RepoModel) -> list[Finding]:
        raise NotImplementedError

    def apply(self, model: RepoModel) -> list[Finding]:
        return [f for f in self.run(model)
                if not _suppressed(model, f, self.nondet_compat)]


class PatternRule(Rule):
    """Line-regex rule over the deterministic-core directories."""

    patterns: list[tuple[re.Pattern, str]] = []
    nondet_compat = True

    def run(self, model: RepoModel) -> list[Finding]:
        out = []
        for path, sf in sorted(model.files.items()):
            if not path.startswith(DETERMINISM_DIRS):
                continue
            for i, line in enumerate(sf.raw_lines):
                for pattern, why in self.patterns:
                    if pattern.search(line):
                        out.append(Finding(self.name, path, i + 1, why, line.strip()))
        return out


class WallClockRule(PatternRule):
    name = "wall-clock"
    description = ("Wall-clock time in the simulation core: identical runs must "
                   "produce identical virtual-time output.")
    patterns = [
        (re.compile(r"std::chrono|#include\s*<chrono>"), "wall-clock time (std::chrono)"),
        (re.compile(r"\bgettimeofday\s*\("), "wall-clock time (gettimeofday)"),
        (re.compile(r"\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
         "wall-clock time (time())"),
        (re.compile(r"\bclock_gettime\s*\("), "wall-clock time (clock_gettime)"),
    ]


class RandomnessRule(PatternRule):
    name = "randomness"
    description = "Ambient (unseeded) randomness in the simulation core."
    patterns = [
        (re.compile(r"\bsrand\s*\(|(?<![\w:])rand\s*\(\s*\)"),
         "unseeded randomness (rand/srand)"),
        (re.compile(r"std::random_device"), "ambient randomness (std::random_device)"),
    ]


class UnorderedContainerRule(PatternRule):
    name = "unordered-container"
    description = ("std::unordered_{map,set} in the simulation core: hash iteration "
                   "order can leak into output. Allowlist keyed-lookup-only uses "
                   "with a comment.")
    patterns = [
        (re.compile(r"std::unordered_(?:map|set)\b"),
         "hash-ordered container (iteration order leaks)"),
    ]


class LayeringRule(Rule):
    """Include-graph layering: each src/ directory may include only the
    directories below it in the architecture. The map is the intended
    dependency structure of the simulator (docs/STATIC_ANALYSIS.md); the two
    genuine cycles in the tree are named per-file exceptions, so any *new*
    upward edge fails the build."""

    name = "layering"
    description = "src/ include-graph layering violations."

    # directory -> set of directories it may include (besides itself and base).
    ALLOWED = {
        "base": set(),
        "hw": set(),
        "vm": {"hw"},
        "obs": {"sim"},          # instrumentation sits beside sim
        "sim": {"obs"},          # machine publishes counters via obs
        "mem": {"hw", "sim"},
        "kernel": {"mem", "obs", "sim", "vm"},
        "check": {"kernel", "mem", "sim"},
        "runtime": {"hw", "kernel", "obs"},
        "baseline": {"sim"},
        "uma": {"sim"},
        "apps": {"baseline", "kernel", "obs", "runtime", "sim", "uma"},
        "load": {"apps", "kernel", "obs", "runtime", "sim"},
    }

    # Real, justified cycles: file -> extra directories it may include.
    EXCEPTIONS = {
        # Top-of-stack exporter: serializes kernel reports and mem traces.
        "src/obs/export.h": {"kernel", "mem"},
        "src/obs/export.cc": {"kernel", "mem"},
        # The kernel owns the optional race detector (src/check) it hosts.
        "src/kernel/kernel.cc": {"check"},
    }

    # The coherent-memory hook API, and the forensic layer consuming it.
    # Unlike EXCEPTIONS this allowance is header-granular: the page-forensics
    # consumer may include exactly the hook headers (event types + observer
    # interfaces) and nothing else from src/mem — protocol transitions arrive
    # through mem::PageEventSink / mem::AccessObserver, never by reaching
    # into coherent-memory internals.
    HOOK_HEADERS = {
        "src/mem/access_observer.h",
        "src/mem/page_event.h",
        "src/mem/trace.h",
    }
    HOOK_CONSUMERS = {
        "src/obs/page_trace.cc",
        "src/obs/page_trace.h",
    }

    def run(self, model: RepoModel) -> list[Finding]:
        out = []
        for path, sf in sorted(model.files.items()):
            if not path.startswith("src/"):
                continue
            parts = path.split("/")
            if len(parts) < 3:
                continue
            src_dir = parts[1]
            allowed = self.ALLOWED.get(src_dir)
            if allowed is None:
                out.append(Finding(self.name, path, 1,
                                   f"directory src/{src_dir} is not in the layering map "
                                   "(tools/platlint/rules.py LayeringRule.ALLOWED)"))
                continue
            allowed = allowed | {src_dir, "base"} | self.EXCEPTIONS.get(path, set())
            for line, inc in sf.includes:
                if path in self.HOOK_CONSUMERS and inc in self.HOOK_HEADERS:
                    continue
                inc_dir = inc.split("/")[1]
                if inc_dir not in allowed:
                    out.append(Finding(
                        self.name, path, line,
                        f"src/{src_dir} may not include src/{inc_dir} "
                        f"(layering; see docs/STATIC_ANALYSIS.md)",
                        sf.raw_lines[line - 1].strip()))
        return out


class PointerEscapeRule(Rule):
    """Raw host pointers to simulated memory must not escape the memory
    system. `MemoryModule::FrameData` hands out the host backing array; only
    the access path and the block-transfer/zero-fill engines may touch it —
    everything else must go through `CoherentMemory::Access`, which charges
    simulated time and keeps copies coherent."""

    name = "pointer-escape"
    description = "Raw FrameData() host-pointer use outside the memory system."

    ALLOWED_FILES = {
        "src/sim/memory_module.h",   # declares FrameData
        "src/sim/memory_module.cc",
        "src/sim/machine.cc",        # block-transfer engine
        "src/mem/fault_handler.cc",  # zero-fill + copy on fault
        "src/mem/advice.cc",         # pin/replicate move data
    }

    PATTERN = re.compile(r"\bFrameData\s*\(")

    def run(self, model: RepoModel) -> list[Finding]:
        out = []
        for path, sf in sorted(model.files.items()):
            if not path.startswith("src/") or path in self.ALLOWED_FILES:
                continue
            for m in self.PATTERN.finditer(sf.code):
                line = sf.line_of(m.start())
                out.append(Finding(
                    self.name, path, line,
                    "raw host pointer to simulated memory (FrameData) outside the "
                    "memory system; use CoherentMemory::Access",
                    sf.raw_lines[line - 1].strip()))
        return out


class _YieldAnalysis:
    """Shared may-yield closure for the two blocking-discipline rules."""

    def __init__(self, model: RepoModel):
        self.model = model
        self.calls = {id(fn): calls_of(fn, model.files[fn.path])
                      for fn in model.functions}
        self.locals = {id(fn): locals_of(fn) for fn in model.functions}
        # may_yield: qualified name -> witness (None for annotated roots,
        # else (callsite, callee_qualified) that first proved it).
        self.may_yield: dict[str, object] = {
            q: None for q, a in model.annotations.items() if a == "may_yield"}
        changed = True
        while changed:
            changed = False
            for fn in model.functions:
                if fn.qualified in self.may_yield:
                    continue
                hit = self._first_yielding_call(fn)
                if hit is not None:
                    self.may_yield[fn.qualified] = hit
                    changed = True

    def _candidates(self, fn, call):
        return self.model.resolve_call(fn, call, self.locals[id(fn)])

    def _first_yielding_call(self, fn):
        for call in self.calls[id(fn)]:
            for cand in self._candidates(fn, call):
                q = cand if isinstance(cand, str) else cand.qualified
                if q == fn.qualified:
                    continue
                if q in self.may_yield:
                    return (call, q)
        return None

    def yields(self, qualified: str) -> bool:
        return qualified in self.may_yield

    def witness_chain(self, qualified: str, limit: int = 8) -> str:
        """`A -> B -> Scheduler::Sleep` style path to an annotated root."""
        chain = [qualified]
        cur = qualified
        for _ in range(limit):
            w = self.may_yield.get(cur)
            if w is None:
                break
            _, callee = w
            chain.append(callee)
            cur = callee
        return " -> ".join(chain)


def get_yield_analysis(model: RepoModel) -> _YieldAnalysis:
    # The closure is O(functions x calls); cache it on the model instance so
    # the two blocking rules (and repeated selftest runs) share one pass.
    cached = getattr(model, "_platlint_yield_analysis", None)
    if cached is None:
        cached = _YieldAnalysis(model)
        model._platlint_yield_analysis = cached
    return cached


class NoYieldRule(Rule):
    """Verifies every PLATINUM_NO_YIELD claim: the function must not reach a
    scheduler switch point on any call path."""

    name = "no-yield"
    description = "PLATINUM_NO_YIELD functions transitively reaching a switch point."

    def run(self, model: RepoModel) -> list[Finding]:
        ya = get_yield_analysis(model)
        out = []
        for fn in model.functions:
            if model.annotations.get(fn.qualified) != "no_yield":
                continue
            hit = ya._first_yielding_call(fn)
            if hit is None:
                continue
            call, callee = hit
            out.append(Finding(
                self.name, fn.path, call.line,
                f"{fn.qualified} is declared PLATINUM_NO_YIELD but can reach a "
                f"switch point: {fn.qualified} -> {ya.witness_chain(callee)}"))
        return out


class YieldUnderLockRule(Rule):
    """No scheduler switch point may be reachable inside a
    base::DisciplineLock critical section (Acquire..Release, or a
    DisciplineGuard scope). A switch would let another fiber observe the
    half-updated kernel structure the lock models.

    The region is lexical and branch-insensitive: each Acquire pairs with the
    next Release on the same receiver expression; an unmatched Acquire holds
    to the end of the function."""

    name = "yield-under-lock"
    description = "Switch point reachable inside a DisciplineLock critical section."

    _RECV_CALL_RE = re.compile(r"\b(Acquire|Release)\s*\(")
    _GUARD_RE = re.compile(r"\bDisciplineGuard\s+\w+\s*[({]")

    def run(self, model: RepoModel) -> list[Finding]:
        ya = get_yield_analysis(model)
        out = []
        for fn in model.functions:
            calls = ya.calls[id(fn)]
            locals_map = ya.locals[id(fn)]
            regions = []  # (start_offset, end_offset, lock_text)
            opens = []    # (offset, receiver_text)
            for call in calls:
                if call.name not in ("Acquire", "Release") or call.receiver is None:
                    continue
                rtype = model.resolve_receiver_type(fn, call.receiver, locals_map)
                if rtype != "DisciplineLock":
                    continue
                recv_text = ".".join(call.receiver)
                if call.name == "Acquire":
                    opens.append((call.offset, recv_text))
                else:
                    for idx in range(len(opens) - 1, -1, -1):
                        if opens[idx][1] == recv_text:
                            regions.append((opens[idx][0], call.offset, recv_text))
                            opens.pop(idx)
                            break
            for offset, recv_text in opens:
                regions.append((offset, len(fn.body), recv_text))
            for m in self._GUARD_RE.finditer(fn.body):
                regions.append((m.start(), len(fn.body), "DisciplineGuard"))
            if not regions:
                continue
            for call in calls:
                region = next((r for r in regions if r[0] < call.offset < r[1]), None)
                if region is None:
                    continue
                for cand in model.resolve_call(fn, call, locals_map):
                    q = cand if isinstance(cand, str) else cand.qualified
                    if ya.yields(q):
                        out.append(Finding(
                            self.name, fn.path, call.line,
                            f"{fn.qualified} calls {q} while holding {region[2]} "
                            f"(switch point under a kernel lock): "
                            f"{ya.witness_chain(q)}"))
                        break
        return out


class ProtocolConformanceRule(Rule):
    """Diffs every Cpage state-mutation site against the machine-readable
    protocol specs (src/mem/protocol_spec*.json — one per committed
    coherence protocol; docs/PROTOCOL.md renders their tables):

      * each `SetState(CpageState::k...)` call in src/mem must carry a
        `// protocol: <event> <from>[|<from>] -> <to>` annotation whose rows
        all exist in the micro-transition table of some spec claiming the
        file (via its `mutation_files`), and whose to-state matches the
        literal the code sets — a file is validated against the union of
        the specs that claim it (today both specs claim the same shared
        files in src/mem), a file only one spec claims only against that
        spec;
      * every micro row of every spec must be claimed by some annotated site
        in a file that spec sanctions (a row no site implements is stale
        spec, per protocol);
      * Cpage mutators outside the union of the specs' `mutation_files`
        funnels are reported wherever they appear in src/ — protocol state
        changes only happen where some spec says they do."""

    name = "protocol-conformance"
    description = ("Cpage state mutations funnel through src/mem and match "
                   "the protocol_spec*.json spec of the protocol that owns "
                   "the file.")

    SPEC_PATHS = ("src/mem/protocol_spec.json",
                  "src/mem/protocol_spec_tardis.json")
    SPEC_PATH = SPEC_PATHS[0]  # primary spec; anchors repo-level findings
    STATE_OF_LITERAL = {"kEmpty": "empty", "kPresent1": "present1",
                        "kPresentPlus": "present+", "kModified": "modified"}

    _SET_STATE_RE = re.compile(r"\bSetState\s*\(")
    _LITERAL_RE = re.compile(r"CpageState::(k\w+)")
    _DECL_ARG_RE = re.compile(r"^\s*CpageState\s+\w+\s*$")
    _PROTOCOL_RE = re.compile(r"protocol:\s*([\w-]+)\s+([\w+|]+)\s*->\s*([\w+]+)")
    _MUTATOR_CALL_RE = re.compile(
        r"(?:->|\.)\s*(SetState|SetFrozen|SetFreezeTime|AddCopy|RemoveCopy|"
        r"AddWriteMapping|DropWriteMapping|RecordInvalidation)\s*\(")

    def _load_specs(self, model: RepoModel):
        """[(repo-relative path, parsed spec)] for every committed spec.
        Returns None when the primary spec is missing (broken checkout);
        secondary specs are optional so the fixture trees, which carry only
        the primary spec, keep exercising the rule."""
        if model.root is None:
            return None
        specs = []
        for rel in self.SPEC_PATHS:
            path = os.path.join(model.root, rel)
            if not os.path.exists(path):
                if rel == self.SPEC_PATH:
                    return None
                continue
            with open(path, encoding="utf-8") as f:
                specs.append((rel, json.load(f)))
        return specs

    def collect_sites(self, model: RepoModel) -> set[tuple[str, int]]:
        """(path, line) of every SetState call site in src/mem (declarations
        excluded). The clang frontend cross-checks this exact set."""
        sites = set()
        for path, sf in sorted(model.files.items()):
            if not path.startswith("src/mem/"):
                continue
            for m in self._SET_STATE_RE.finditer(sf.code):
                popen = sf.code.index("(", m.start())
                close = _match_paren(sf.code, popen)
                arg = sf.code[popen + 1: close] if close > 0 else ""
                if self._DECL_ARG_RE.match(arg):
                    continue  # the declaration/definition in cpage.h
                sites.add((path, sf.line_of(m.start())))
        return sites

    def run(self, model: RepoModel) -> list[Finding]:
        out = []
        specs = self._load_specs(model)
        if specs is None:
            out.append(Finding(self.name, self.SPEC_PATH, 1,
                               "protocol spec not found (src/mem/protocol_spec.json)"))
            return out
        # Per spec: its micro-row table, event set, and sanctioned files.
        tables = [{"rel": rel,
                   "micro": {(r["from"], r["event"], r["to"])
                             for r in spec["micro_transitions"]},
                   "events": set(spec["micro_events"]),
                   "files": set(spec["mutation_files"]),
                   "covered": set()}
                  for rel, spec in specs]
        funnel = set().union(*(t["files"] for t in tables))

        def tables_for(path):
            """The specs a SetState site in `path` is validated against: the
            ones that sanction the file, or all of them when none does (the
            funnel check below reports the real problem for such a site)."""
            claiming = [t for t in tables if path in t["files"]]
            return claiming if claiming else tables

        for path, sf in sorted(model.files.items()):
            if not path.startswith("src/mem/"):
                continue
            applicable = tables_for(path)
            events = set().union(*(t["events"] for t in applicable))
            micro = set().union(*(t["micro"] for t in applicable))
            spec_names = " | ".join(t["rel"] for t in applicable)
            for m in self._SET_STATE_RE.finditer(sf.code):
                popen = sf.code.index("(", m.start())
                close = _match_paren(sf.code, popen)
                arg = sf.code[popen + 1: close] if close > 0 else ""
                if self._DECL_ARG_RE.match(arg):
                    continue
                line = sf.line_of(m.start())
                snippet = sf.raw_lines[line - 1].strip()
                lit = self._LITERAL_RE.search(arg)
                if lit is None:
                    out.append(Finding(
                        self.name, path, line,
                        "SetState argument must be a CpageState::k... literal so "
                        "the conformance check can read the target state", snippet))
                    continue
                to_state = self.STATE_OF_LITERAL.get(lit.group(1))
                ann = None
                for raw in sf.raw_lines[max(0, line - 3): line]:
                    am = self._PROTOCOL_RE.search(raw)
                    if am:
                        ann = am
                if ann is None:
                    out.append(Finding(
                        self.name, path, line,
                        "SetState site without a `// protocol: <event> <from> -> "
                        "<to>` annotation (diffed against src/mem/protocol_spec"
                        "*.json)", snippet))
                    continue
                event, froms, to = ann.group(1), ann.group(2).split("|"), ann.group(3)
                if event not in events:
                    out.append(Finding(
                        self.name, path, line,
                        f"protocol annotation names unknown micro event '{event}' "
                        f"(see micro_events in {spec_names})", snippet))
                    continue
                if to != to_state:
                    out.append(Finding(
                        self.name, path, line,
                        f"protocol annotation says the site moves to '{to}' but "
                        f"the code sets CpageState::{lit.group(1)} ('{to_state}')",
                        snippet))
                    continue
                bad = [f for f in froms if (f, event, to) not in micro]
                if bad:
                    out.append(Finding(
                        self.name, path, line,
                        f"transition {'|'.join(bad)} -[{event}]-> {to} has no "
                        f"micro row in {spec_names}", snippet))
                    continue
                for t in applicable:
                    t["covered"].update((f, event, to) for f in froms
                                        if (f, event, to) in t["micro"])
        # Stale rows, per protocol: a row of spec S counts as claimed only by
        # annotated sites in files S itself sanctions.
        for t in tables:
            for row in sorted(t["micro"] - t["covered"]):
                out.append(Finding(
                    self.name, t["rel"], 1,
                    f"spec micro transition {row[0]} -[{row[1]}]-> {row[2]} is "
                    "not claimed by any annotated SetState site in src/mem "
                    "(stale spec row, or a lost annotation)"))
        # The funnel: Cpage mutators outside every spec's sanctioned files.
        for path, sf in sorted(model.files.items()):
            if not path.startswith("src/") or path in funnel:
                continue
            for m in self._MUTATOR_CALL_RE.finditer(sf.code):
                line = sf.line_of(m.start())
                out.append(Finding(
                    self.name, path, line,
                    f"Cpage mutator {m.group(1)}() called outside the sanctioned "
                    "mem funnel (mutation_files in src/mem/protocol_spec*.json)",
                    sf.raw_lines[line - 1].strip()))
        return out


class _LockAnalysis:
    """Per-function lock regions and transitive acquire sets for LockOrderRule."""

    def __init__(self, model: RepoModel, rule: "LockOrderRule"):
        ya = get_yield_analysis(model)
        self.model = model
        self.regions: dict[int, list] = {}   # id(fn) -> (start, end, lock_id)
        self.sites: dict[int, list] = {}     # id(fn) -> (offset, line, lock_id)
        self.direct: dict[str, dict] = {}    # qualified -> lock_id -> (path, line)
        for fn in model.functions:
            locals_map = ya.locals[id(fn)]
            regions, opens, sites = [], [], []
            for call in ya.calls[id(fn)]:
                if call.name not in ("Acquire", "Release") or call.receiver is None:
                    continue
                lock = rule.lock_id(model, fn, call.receiver, locals_map)
                if lock is None:
                    continue
                if call.name == "Acquire":
                    opens.append((call.offset, lock))
                    sites.append((call.offset, call.line, lock))
                else:
                    for idx in range(len(opens) - 1, -1, -1):
                        if opens[idx][1] == lock:
                            regions.append((opens[idx][0], call.offset, lock))
                            opens.pop(idx)
                            break
            for offset, lock in opens:
                regions.append((offset, len(fn.body), lock))
            for m in rule._GUARD_RE.finditer(fn.body):
                chain = rule.chain_of(m.group(1))
                lock = rule.lock_id(model, fn, chain, locals_map) if chain else None
                if lock is None:
                    continue
                line = model.files[fn.path].line_of(fn.body_start + 1 + m.start())
                regions.append((m.start(), len(fn.body), lock))
                sites.append((m.start(), line, lock))
            self.regions[id(fn)] = regions
            self.sites[id(fn)] = sites
            d = self.direct.setdefault(fn.qualified, {})
            for _, line, lock in sites:
                d.setdefault(lock, (fn.path, line))
        # Transitive closure: locks a call into `qualified` may acquire.
        self.trans = {q: dict(locks) for q, locks in self.direct.items()}
        self.via: dict[tuple[str, str], str] = {}
        changed = True
        while changed:
            changed = False
            for fn in model.functions:
                mine = self.trans.setdefault(fn.qualified, {})
                for call in ya.calls[id(fn)]:
                    for cand in model.resolve_call(fn, call, ya.locals[id(fn)]):
                        q = cand if isinstance(cand, str) else cand.qualified
                        if q == fn.qualified:
                            continue
                        for lock, loc in self.trans.get(q, {}).items():
                            if lock not in mine:
                                mine[lock] = loc
                                self.via[(fn.qualified, lock)] = q
                                changed = True

    def chain(self, qualified: str, lock: str, limit: int = 8) -> str:
        """`A -> B -> C` call path from `qualified` to the function that
        directly acquires `lock`."""
        parts = [qualified]
        cur = qualified
        for _ in range(limit):
            nxt = self.via.get((cur, lock))
            if nxt is None:
                break
            parts.append(nxt)
            cur = nxt
        return " -> ".join(parts)


class LockOrderRule(Rule):
    """Builds the lock-acquisition order graph over every DisciplineLock /
    SpinLock site reachable through the platlint call graph: an edge A -> B
    means some fiber acquires B (directly, or through a call chain) while
    holding A. A cycle in that graph is a potential deadlock; each cycle is
    reported once, with the witness chain of every edge.

    Lock identity is `OwnerClass::member` for member locks (the same member
    of the same class is one lock order-wise, whichever instance) and
    `Function:local` for function-local locks. Critical sections are lexical,
    as in yield-under-lock: Acquire pairs with the next Release on the same
    receiver, an unmatched Acquire (or a DisciplineGuard) holds to the end of
    the function."""

    name = "lock-order"
    description = "Lock-acquisition order cycles (potential deadlock)."

    LOCK_TYPES = ("DisciplineLock", "SpinLock")
    _GUARD_RE = re.compile(r"\bDisciplineGuard\s+\w+\s*[({]\s*([^;(){}]*)")
    _CHAIN_SPLIT_RE = re.compile(r"->|\.")
    _COMP_RE = re.compile(r"^\s*(\w+)\s*(\(\s*\))?\s*$")

    def chain_of(self, text: str) -> list[str] | None:
        chain = []
        for tok in self._CHAIN_SPLIT_RE.split(text):
            m = self._COMP_RE.match(tok)
            if m is None:
                return None
            chain.append(m.group(1) + ("()" if m.group(2) else ""))
        return chain or None

    def lock_id(self, model: RepoModel, fn, chain: list[str],
                locals_map: dict[str, str]) -> str | None:
        rtype = model.resolve_receiver_type(fn, chain, locals_map)
        if rtype not in self.LOCK_TYPES:
            return None
        last = chain[-1]
        name = last[:-2] if last.endswith("()") else last
        if len(chain) == 1:
            if name in locals_map:
                return f"{fn.qualified}:{name}"
            owner = fn.cls
        else:
            owner = model.resolve_receiver_type(fn, chain[:-1], locals_map)
        return f"{owner}::{name}" if owner else name

    def run(self, model: RepoModel) -> list[Finding]:
        ya = get_yield_analysis(model)
        la = _LockAnalysis(model, self)
        # (held, acquired) -> (path, line, witness text); first witness wins.
        edges: dict[tuple[str, str], tuple[str, int, str]] = {}
        for fn in model.functions:
            regions = la.regions[id(fn)]
            if not regions:
                continue
            locals_map = ya.locals[id(fn)]
            for offset, line, lock in la.sites[id(fn)]:
                for start, end, held in regions:
                    if start < offset < end:
                        edges.setdefault((held, lock), (
                            fn.path, line,
                            f"{fn.qualified} acquires {lock} at {fn.path}:{line} "
                            f"while holding {held}"))
            for call in ya.calls[id(fn)]:
                if call.name in ("Acquire", "Release"):
                    continue
                containing = [r for r in regions if r[0] < call.offset < r[1]]
                if not containing:
                    continue
                for cand in model.resolve_call(fn, call, locals_map):
                    q = cand if isinstance(cand, str) else cand.qualified
                    if q == fn.qualified:
                        continue
                    for lock, (lpath, lline) in la.trans.get(q, {}).items():
                        for _, _, held in containing:
                            edges.setdefault((held, lock), (
                                fn.path, call.line,
                                f"{fn.qualified} holds {held} and calls "
                                f"{la.chain(q, lock)} which acquires {lock} "
                                f"at {lpath}:{lline}"))
        graph: dict[str, set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
        out = []
        reported = set()
        for (a, b), (path, line, _) in sorted(edges.items()):
            # Cycle through this edge iff b reaches a; shortest path back via BFS.
            parents: dict[str, str | None] = {b: None}
            queue = [b]
            found = a in parents
            while queue and not found:
                cur = queue.pop(0)
                for nxt in sorted(graph.get(cur, ())):
                    if nxt not in parents:
                        parents[nxt] = cur
                        queue.append(nxt)
                        if nxt == a:
                            found = True
                            break
            if not found:
                continue
            back = []
            node: str | None = a
            while node is not None:
                back.append(node)
                node = parents[node]
            cycle = [a] + list(reversed(back))  # a -> b -> ... -> a
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            steps = []
            for i in range(len(cycle) - 1):
                e = edges.get((cycle[i], cycle[i + 1]))
                steps.append(e[2] if e else f"{cycle[i]} -> {cycle[i + 1]}")
            out.append(Finding(
                self.name, path, line,
                "lock-order cycle " + " -> ".join(cycle) + "; witness: "
                + "; ".join(steps)))
        return out


class AnnotationCoverageRule(Rule):
    """Observer-hook implementers (PageEventSink / AccessObserver /
    TimeObserver subclasses) are invoked from every instrumented fiber, so
    each of their mutable data members is shared state. Every such member
    must either be GUARDED_BY a lock or carry PLATINUM_FIBER_SHARED, the
    explicit intentional-sharing annotation for single-host-thread state
    (src/base/thread_annotations.h)."""

    name = "annotation-coverage"
    description = ("Un-annotated shared mutable members of observer-hook "
                   "implementers (need GUARDED_BY or PLATINUM_FIBER_SHARED).")

    HOOK_ROOTS = {"PageEventSink", "AccessObserver", "TimeObserver"}
    LOCK_TYPES = {"DisciplineLock", "SpinLock"}

    def run(self, model: RepoModel) -> list[Finding]:
        out = []
        for fd in model.field_decls:
            if not fd.path.startswith("src/"):
                continue
            if fd.cls in self.HOOK_ROOTS or not model.derives_from(fd.cls, self.HOOK_ROOTS):
                continue
            if fd.guarded or fd.shared or fd.type_base in self.LOCK_TYPES:
                continue
            sf = model.files[fd.path]
            out.append(Finding(
                self.name, fd.path, fd.line,
                f"{fd.cls}::{fd.name} is mutable state of an observer-hook "
                "implementer (reachable from every instrumented fiber) but has "
                "neither GUARDED_BY(lock) nor PLATINUM_FIBER_SHARED",
                sf.raw_lines[fd.line - 1].strip()))
        out.sort(key=lambda f: (f.path, f.line))
        return out


class DeterminismTaintRule(Rule):
    """Interprocedural determinism taint analysis (tools/platlint/dataflow.py):
    no host-nondeterministic value — wall clock, ambient randomness, pointer
    order, unordered-container iteration order, host thread ids, environment
    reads — may flow through assignments, returns or call arguments into
    sim-visible state (src/sim, src/mem, src/kernel, src/apps, or the
    trace/stats/JSON emission classes). PLATINUM_HOST_ONLY and
    PLATINUM_DETERMINISTIC_SANITIZED (src/base/thread_annotations.h) declare
    the sanctioned host-side regions and validating funnels. Findings carry
    the full source-to-sink witness chain, no-yield style."""

    name = "determinism-taint"
    description = ("Host-nondeterministic values flowing into sim-visible "
                   "state (interprocedural taint analysis).")
    nondet_compat = True

    def run(self, model: RepoModel) -> list[Finding]:
        ta = dataflow.get_taint_analysis(model)
        out = []
        for fn in model.functions:
            sf = model.files[fn.path]
            for line, message in ta.direct_core_findings(fn):
                out.append(Finding(self.name, fn.path, line, message,
                                   sf.raw_lines[line - 1].strip()))
            for line, message in ta.sink_findings(fn):
                out.append(Finding(self.name, fn.path, line, message,
                                   sf.raw_lines[line - 1].strip()))
        out.sort(key=lambda f: (f.path, f.line))
        return out


ALL_RULES: list[Rule] = [
    WallClockRule(),
    RandomnessRule(),
    UnorderedContainerRule(),
    DeterminismTaintRule(),
    LayeringRule(),
    PointerEscapeRule(),
    NoYieldRule(),
    YieldUnderLockRule(),
    ProtocolConformanceRule(),
    LockOrderRule(),
    AnnotationCoverageRule(),
]

RULES_BY_NAME = {r.name: r for r in ALL_RULES}
