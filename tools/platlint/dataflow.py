"""Interprocedural determinism taint analysis for platlint.

Tracks host-nondeterministic values ("taint") through the textual C++ model
and reports any flow into sim-visible state. The determinism contract is
*invocation identity*: two runs of the same binary with the same arguments
and environment must produce byte-identical simulated behavior and output —
so anything the host is free to vary between those runs (the wall clock,
ambient randomness, where the allocator placed an object, hash iteration
order, which host thread ran a worker) must never influence the simulation.

Sources (each occurrence carries a source class used in the report):

  wall-clock           std::chrono::*_clock::now, time(), clock_gettime,
                       gettimeofday
  randomness           std::random_device, rand()/srand()
  pointer-order        reinterpret_cast<[u]intptr_t>, std::hash/std::less
                       over pointer types, iteration of a std::map/std::set
                       keyed by pointers
  unordered-iteration  range-for or .begin() over std::unordered_{map,set}
  host-thread-id       std::this_thread::get_id, pthread_self,
                       std::thread::hardware_concurrency
  env-read             getenv / secure_getenv

Propagation is a fixpoint over three relations:

  * assignments: `x = expr` taints `x` when `expr` mentions a source, a
    tainted variable, or a call to a taint-returning function;
  * returns: `return expr` with tainted `expr` makes the function
    taint-returning (its call sites become source expressions);
  * arguments: passing a tainted expression as argument i taints the
    callee's parameter i.

Sinks are calls into the deterministic simulation (functions defined under
src/sim, src/mem, src/kernel) and the emission layer (obs::JsonWriter,
mem::TraceLog, obs exporters): a tainted argument to any of them is a
finding, reported with the full provenance chain in the style of the
no-yield witness chains. A direct source occurrence *inside* the
deterministic core is also a finding for the classes the pattern rules do
not already cover (env-read, host-thread-id, pointer-order,
unordered-iteration); wall-clock and randomness in the core stay with the
dedicated pattern rules so each site is reported exactly once.

Sanctioned escapes (src/base/thread_annotations.h):

  PLATINUM_HOST_ONLY                body exempt from sink checks; calling the
                                    function is never a sink; its return value
                                    still carries taint.
  PLATINUM_DETERMINISTIC_SANITIZED  body exempt; the return value is clean
                                    and tainted arguments stop at its
                                    boundary (a validating funnel).

Like the rest of the textual model this is conservative per direction:
member fields are not tracked across functions (a host value laundered
through an object member is caught by the dynamic behaviour gate,
tools/behaviour_gate.py, not here), while unresolvable calls fall back to
name matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cpp_model import (FunctionDef, RepoModel, _match_paren,
                       _split_toplevel_commas, calls_of, locals_of)

# Source classes whose *direct* occurrence inside the deterministic core is
# reported by this rule (the others are covered by the pattern rules).
CORE_REPORTED_CLASSES = {
    "env-read", "host-thread-id", "pointer-order", "unordered-iteration",
}

# (class, pattern, human description). Matched against stripped expression
# text, so comments and string literals never fire.
SOURCE_PATTERNS: list[tuple[str, re.Pattern, str]] = [
    ("wall-clock",
     re.compile(r"\b(?:std::)?chrono::\s*\w+_clock::now\s*\("),
     "host wall clock (chrono::now)"),
    ("wall-clock",
     re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
     "host wall clock"),
    ("wall-clock",
     re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "host wall clock (time())"),
    ("randomness",
     re.compile(r"\bstd::random_device\b"),
     "ambient randomness (std::random_device)"),
    ("randomness",
     re.compile(r"(?<![\w:.>])s?rand\s*\("),
     "ambient randomness (rand)"),
    ("pointer-order",
     re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer value as integer (allocation order)"),
    ("pointer-order",
     re.compile(r"\bstd::(?:hash|less)\s*<[^<>;]*\*\s*>"),
     "pointer hashing/ordering"),
    ("host-thread-id",
     re.compile(r"\bstd::this_thread::get_id\s*\("),
     "host thread id"),
    ("host-thread-id",
     re.compile(r"\bpthread_self\s*\("),
     "host thread id (pthread_self)"),
    ("host-thread-id",
     re.compile(r"\bhardware_concurrency\s*\("),
     "host CPU count (hardware_concurrency)"),
    ("env-read",
     re.compile(r"\b(?:std::)?(?:secure_)?getenv\s*\("),
     "environment read (getenv)"),
]

# Local variables of these declared (base) types are taint at birth: every
# value drawn from them is host state, assignment or not.
TAINTED_LOCAL_TYPES = {
    "random_device": ("randomness", "std::random_device"),
}

# Declared container types whose iteration order is host-nondeterministic.
# `type-pattern var` declarations (params, locals, fields) feed the
# per-function nondeterministically-ordered variable map.
_UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>[\s&*]*"
    r"\b([A-Za-z_]\w*)\b\s*[,)=;{]")
_PTR_KEYED_DECL_RE = re.compile(
    r"(?<!unordered_)\b(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[\w:]+(?:<[^<>]*>)?\s*\*[^;{}()]*>[\s&*]*\b([A-Za-z_]\w*)\b\s*[,)=;{]")
_UNORDERED_FIELD_BASES = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
}

_RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*([^:;()]+?)\s*:\s*([^);]+)\)")
_BEGIN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")

# `lhs = rhs;` / `lhs += rhs;` — the workhorse of intra-function propagation.
_ASSIGN_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:[-+*/|&^]|<<|>>)?=(?![=])\s*([^;]*);", re.S)
_RETURN_RE = re.compile(r"\breturn\b([^;]*);", re.S)
_CALLED_NAME_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")

# Functions defined in these directories mutate or observe sim-visible state;
# a tainted argument to any of them is a determinism violation.
SINK_DIRS = ("src/sim/", "src/mem/", "src/kernel/", "src/apps/")
# Emission-layer classes outside those directories (trace/stats/JSON output
# is part of the byte-identity contract checked by tools/behaviour_gate.py).
SINK_CLASSES = {
    "JsonWriter", "TraceLog", "Histogram", "MachineStats", "StatsJson",
    "TraceJson", "PageTrace", "EpochSampler",
}
# Emission-layer free functions.
SINK_FUNCTIONS = {"WriteFileOrDie"}

_CHAIN_LIMIT = 6


@dataclass(frozen=True)
class Taint:
    source_class: str
    chain: tuple[str, ...]  # human-readable provenance, source first

    def extended(self, step: str) -> "Taint":
        if len(self.chain) >= _CHAIN_LIMIT:
            return self
        return Taint(self.source_class, self.chain + (step,))

    def witness(self) -> str:
        return " -> ".join(self.chain)


def _source_hits(text: str):
    """(class, description, match offset) for every source pattern hit."""
    for cls_, pat, desc in SOURCE_PATTERNS:
        for m in pat.finditer(text):
            yield cls_, desc, m.start()


class TaintAnalysis:
    """Whole-model taint facts; built once per RepoModel by the rule."""

    def __init__(self, model: RepoModel):
        self.model = model
        # qualified -> {var -> Taint}
        self.var_taint: dict[str, dict[str, Taint]] = {}
        # qualified -> Taint carried by the return value
        self.returns: dict[str, Taint] = {}
        # (qualified, param name) already-propagated marker
        self._param_seen: set[tuple[str, str]] = set()
        self._param_names: dict[str, list[str | None]] = {}
        self._ordered_vars: dict[str, dict[str, tuple[str, str]]] = {}
        for fn in model.functions:
            self.var_taint.setdefault(fn.qualified, {})
            self._param_names[fn.qualified] = _param_names(fn)
            self._ordered_vars[fn.qualified] = self._nondet_ordered_vars(fn)
        self._fixpoint()

    # -- taint exemptions ---------------------------------------------------

    def exempt(self, fn: FunctionDef) -> bool:
        return self.model.taint_annotations.get(fn.qualified) is not None

    def _sanitized(self, qualified: str) -> bool:
        return self.model.taint_annotations.get(qualified) == "sanitized"

    # -- variable universe --------------------------------------------------

    def _nondet_ordered_vars(self, fn: FunctionDef) -> dict[str, tuple[str, str]]:
        """Variables whose *iteration* yields host order: name ->
        (source class, description)."""
        out: dict[str, tuple[str, str]] = {}
        scope = fn.params + ";" + fn.body
        for m in _UNORDERED_DECL_RE.finditer(scope):
            out[m.group(1)] = ("unordered-iteration",
                              "hash-ordered container " + m.group(1))
        for m in _PTR_KEYED_DECL_RE.finditer(scope):
            out[m.group(1)] = ("pointer-order",
                              "pointer-keyed ordered container " + m.group(1))
        for name, base in self.model.fields.get(fn.cls or "", {}).items():
            if base in _UNORDERED_FIELD_BASES:
                out.setdefault(name, ("unordered-iteration",
                                      "hash-ordered member " + name))
        return out

    # -- expression-level taint ---------------------------------------------

    def expr_taint(self, fn: FunctionDef, expr: str) -> Taint | None:
        """Taint carried by an expression inside fn's body, if any."""
        for cls_, desc, _ in _source_hits(expr):
            return Taint(cls_, (f"{desc} in {fn.qualified}",))
        ordered = self._ordered_vars[fn.qualified]
        bm = _BEGIN_RE.search(expr)
        if bm is not None and bm.group(1) in ordered:
            cls_, desc = ordered[bm.group(1)]
            return Taint(cls_, (f"iteration of {desc} in {fn.qualified}",))
        taints = self.var_taint.get(fn.qualified, {})
        for m in _CALLED_NAME_RE.finditer(expr):
            name = m.group(1)
            for q, t in self.returns.items():
                if q.split("::")[-1] == name:
                    return t.extended(f"{q}() returns it")
        for var, t in taints.items():
            if re.search(rf"\b{re.escape(var)}\b", expr):
                return t.extended(f"{var} in {fn.qualified}")
        return None

    # -- fixpoint -----------------------------------------------------------

    def _fixpoint(self):
        model = self.model
        changed = True
        while changed:
            changed = False
            for fn in model.functions:
                changed |= self._propagate_in(fn)
                changed |= self._propagate_returns(fn)
                changed |= self._propagate_args(fn)

    def _taint_var(self, fn: FunctionDef, var: str, taint: Taint) -> bool:
        cur = self.var_taint[fn.qualified]
        if var in cur:
            return False
        cur[var] = taint
        return True

    def _propagate_in(self, fn: FunctionDef) -> bool:
        changed = False
        for var, base in locals_of(fn).items():
            hit = TAINTED_LOCAL_TYPES.get(base)
            if hit is not None:
                cls_, desc = hit
                changed |= self._taint_var(
                    fn, var, Taint(cls_, (f"{desc} {var} in {fn.qualified}",)))
        # Iterating a nondeterministically-ordered container taints the loop
        # variable (and, via .begin(), the iterator's naming variable's uses
        # flow through plain assignments afterwards).
        ordered = self._ordered_vars[fn.qualified]
        for m in _RANGE_FOR_RE.finditer(fn.body):
            decl, iterated = m.group(1), m.group(2).strip()
            base = re.sub(r"[&*]|\bconst\b|\bauto\b", " ", iterated).strip()
            base_id = re.match(r"([A-Za-z_]\w*)", base)
            if base_id is None or base_id.group(1) not in ordered:
                continue
            cls_, desc = ordered[base_id.group(1)]
            var_m = re.search(r"([A-Za-z_]\w*)\s*$", decl)
            if var_m is None:
                continue
            changed |= self._taint_var(
                fn, var_m.group(1),
                Taint(cls_, (f"iteration of {desc} in {fn.qualified}",)))
        for m in _ASSIGN_RE.finditer(fn.body):
            lhs, rhs = m.group(1), m.group(2)
            if lhs in self.var_taint[fn.qualified]:
                continue
            t = self.expr_taint(fn, rhs)
            if t is not None:
                changed |= self._taint_var(fn, lhs, t.extended(
                    f"assigned to {lhs} in {fn.qualified}"))
        return changed

    def _propagate_returns(self, fn: FunctionDef) -> bool:
        if fn.qualified in self.returns or self._sanitized(fn.qualified):
            return False
        for m in _RETURN_RE.finditer(fn.body):
            t = self.expr_taint(fn, m.group(1))
            if t is not None:
                self.returns[fn.qualified] = t.extended(
                    f"returned by {fn.qualified}")
                return True
        return False

    def _propagate_args(self, fn: FunctionDef) -> bool:
        changed = False
        if not self._maybe_tainted(fn):
            return False
        for call, args in self._calls_with_args(fn):
            for cand in self.model.resolve_call(fn, call, locals_of(fn)):
                if isinstance(cand, str):
                    continue
                if self._sanitized(cand.qualified):
                    continue  # the funnel validates its inputs
                pnames = self._param_names[cand.qualified]
                for i, arg in enumerate(args):
                    if i >= len(pnames) or pnames[i] is None:
                        continue
                    key = (cand.qualified, pnames[i])
                    if key in self._param_seen:
                        continue
                    t = self.expr_taint(fn, arg)
                    if t is not None:
                        self._param_seen.add(key)
                        changed |= self._taint_var(
                            cand, pnames[i], t.extended(
                                f"passed to {cand.qualified}({pnames[i]})"))
        return changed

    def _maybe_tainted(self, fn: FunctionDef) -> bool:
        """Fast path: can any expression in fn's body be tainted at all?"""
        if self.var_taint[fn.qualified]:
            return True
        cached = getattr(fn, "_platlint_has_source", None)
        if cached is None:
            cached = (any(True for _ in _source_hits(fn.body))
                      or bool(self._ordered_vars[fn.qualified]))
            fn._platlint_has_source = cached
        if cached:
            return True
        return any(q.split("::")[-1] in fn.body for q in self.returns)

    def _calls_with_args(self, fn: FunctionDef):
        """(CallSite, [argument texts]) for each call in fn's body."""
        cached = getattr(fn, "_platlint_call_args", None)
        if cached is not None:
            return cached
        out = []
        sf = self.model.files[fn.path]
        for call in calls_of(fn, sf):
            popen = fn.body.find("(", call.offset)
            if popen < 0:
                continue
            close = _match_paren(fn.body, popen)
            if close < 0:
                continue
            inner = fn.body[popen + 1: close]
            args = [a for a in (s.strip() for s in _split_toplevel_commas(inner))
                    if a]
            out.append((call, args))
        fn._platlint_call_args = out
        return out

    # -- findings -----------------------------------------------------------

    def direct_core_findings(self, fn: FunctionDef):
        """(line, message) for direct sources inside the deterministic core."""
        if not fn.path.startswith(SINK_DIRS) or self.exempt(fn):
            return
        sf = self.model.files[fn.path]
        seen_lines = set()
        for cls_, desc, off in _source_hits(fn.body):
            if cls_ not in CORE_REPORTED_CLASSES:
                continue
            line = sf.line_of(fn.body_start + 1 + off)
            if line in seen_lines:
                continue
            seen_lines.add(line)
            yield line, (f"{desc} inside the deterministic core: {fn.qualified} "
                         "is sim-visible, so this value shapes simulated "
                         f"behavior ({cls_})")
        ordered = self._ordered_vars[fn.qualified]
        for m in _RANGE_FOR_RE.finditer(fn.body):
            base_id = re.match(r"[&*\s]*([A-Za-z_]\w*)",
                               m.group(2).strip())
            if base_id is None or base_id.group(1) not in ordered:
                continue
            cls_, desc = ordered[base_id.group(1)]
            line = sf.line_of(fn.body_start + 1 + m.start())
            if line not in seen_lines:
                seen_lines.add(line)
                yield line, (f"iteration of {desc} inside the deterministic "
                             f"core ({fn.qualified}): visit order is host "
                             f"state, not simulated state ({cls_})")

    def _is_sink(self, cand) -> str | None:
        """Sink description if the candidate callee is sim-visible."""
        if isinstance(cand, str):
            return None
        if self.model.taint_annotations.get(cand.qualified) is not None:
            return None  # declared host-only / sanitizing callee
        if cand.cls in SINK_CLASSES:
            return f"emission sink {cand.qualified}"
        if cand.simple in SINK_FUNCTIONS:
            return f"emission sink {cand.qualified}"
        if cand.path.startswith(SINK_DIRS):
            return f"sim-visible {cand.qualified} ({cand.path})"
        return None

    def sink_findings(self, fn: FunctionDef):
        """(line, message) for tainted arguments flowing into sinks."""
        if self.exempt(fn) or not self._maybe_tainted(fn):
            return
        for call, args in self._calls_with_args(fn):
            sink = None
            for cand in self.model.resolve_call(fn, call, locals_of(fn)):
                sink = self._is_sink(cand)
                if sink is not None:
                    break
            if sink is None:
                continue
            for i, arg in enumerate(args):
                t = self.expr_taint(fn, arg)
                if t is None:
                    continue
                yield call.line, (
                    f"host-nondeterministic value ({t.source_class}) reaches "
                    f"{sink} as argument {i + 1} of {call.name}() in "
                    f"{fn.qualified}: {t.witness()} -> {call.name}(arg {i + 1})")
                break  # one finding per call site


def _param_names(fn: FunctionDef) -> list[str | None]:
    """Positional parameter names, None where unnamed/unparseable."""
    out: list[str | None] = []
    if not fn.params.strip():
        return out
    for part in _split_toplevel_commas(fn.params):
        part = part.split("=")[0].strip()
        m = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", part)
        name = m.group(1) if m else None
        # A bare type (`int`, `const Foo&`) has no separate name token.
        if name is not None and re.fullmatch(
                r"(?:const|int|long|unsigned|char|bool|float|double|void|auto)",
                name):
            name = None
        out.append(name)
    return out


def get_taint_analysis(model: RepoModel) -> TaintAnalysis:
    cached = getattr(model, "_platlint_taint_analysis", None)
    if cached is None:
        cached = TaintAnalysis(model)
        model._platlint_taint_analysis = cached
    return cached
