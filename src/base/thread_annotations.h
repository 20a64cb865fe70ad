// Clang thread-safety (capability) annotations, plus PLATINUM's
// blocking-discipline annotations.
//
// Two static disciplines keep the simulator faithful and deterministic:
//
//   1. *Capability discipline.*  Host-side shared structures (port queues,
//      the per-module inverted page tables, the defrost list) model kernel
//      data that the real PLATINUM kernel protects with locks.  The
//      simulator's fibers never run concurrently, so the locks cost nothing
//      at run time — but every access must still happen inside the matching
//      critical section, or a refactor could silently break the discipline
//      the timing model depends on.  Clang's -Wthread-safety analysis proves
//      the discipline at compile time; gcc compiles the macros to nothing.
//
//   2. *Blocking discipline.*  A fiber inside a kernel critical section must
//      not reach a scheduler switch point: another fiber could then observe
//      a half-updated host structure, which has no analogue on the real
//      machine (the real kernel spins; it never switches while holding a
//      spin lock).  PLATINUM_MAY_YIELD / PLATINUM_NO_YIELD classify every
//      scheduler primitive, and tools/platlint/ proves that no may-yield
//      call is reachable while a base::DisciplineLock is held or inside a
//      PLATINUM_NO_YIELD function (docs/STATIC_ANALYSIS.md).
//
// Note the deliberate asymmetry with rt::SpinLock: a *simulated* spin lock
// is user-level state on coherent memory.  A simulated thread holding one
// may be preempted at a quantum boundary — the real machine allows exactly
// that — so rt::SpinLock carries capability annotations (for lock/unlock
// balance checking) but its critical sections are not no-yield regions.
#ifndef SRC_BASE_THREAD_ANNOTATIONS_H_
#define SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define PLATINUM_THREAD_ATTRIBUTE(x) __attribute__((x))
#else
#define PLATINUM_THREAD_ATTRIBUTE(x)  // no-op
#endif

// A type that acts as a lock (a "capability" in clang's terminology).
#define CAPABILITY(x) PLATINUM_THREAD_ATTRIBUTE(capability(x))

// An RAII type that acquires a capability in its constructor and releases it
// in its destructor.
#define SCOPED_CAPABILITY PLATINUM_THREAD_ATTRIBUTE(scoped_lockable)

// Data members protected by a capability.
#define GUARDED_BY(x) PLATINUM_THREAD_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) PLATINUM_THREAD_ATTRIBUTE(pt_guarded_by(x))

// Lock ordering between capabilities.
#define ACQUIRED_BEFORE(...) PLATINUM_THREAD_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PLATINUM_THREAD_ATTRIBUTE(acquired_after(__VA_ARGS__))

// Functions that must (not) be called with the capability held.
#define REQUIRES(...) PLATINUM_THREAD_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) PLATINUM_THREAD_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) PLATINUM_THREAD_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// Functions that acquire/release a capability (their own, or the argument).
#define ACQUIRE(...) PLATINUM_THREAD_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) PLATINUM_THREAD_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) PLATINUM_THREAD_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) PLATINUM_THREAD_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) PLATINUM_THREAD_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// Asserts that the calling context already holds the capability.
#define ASSERT_CAPABILITY(x) PLATINUM_THREAD_ATTRIBUTE(assert_capability(x))

// A function returning a reference to a capability.
#define RETURN_CAPABILITY(x) PLATINUM_THREAD_ATTRIBUTE(lock_returned(x))

// Escape hatch: disables the analysis for one function. Every use must carry
// a comment explaining why the function is safe.
#define NO_THREAD_SAFETY_ANALYSIS PLATINUM_THREAD_ATTRIBUTE(no_thread_safety_analysis)

// --- Blocking-discipline annotations (checked by tools/platlint) -------------
//
// PLATINUM_MAY_YIELD marks a function that can suspend the calling fiber and
// run another one (a scheduler switch point).  PLATINUM_NO_YIELD marks a
// function that must never reach a switch point, directly or transitively —
// the fault handler's critical section, for example.  The platlint
// `yield-under-lock` rule computes the transitive may-yield closure over the
// call graph and rejects any may-yield call inside a no-yield function or a
// DisciplineLock critical section.
#if defined(__clang__) && !defined(SWIG)
#define PLATINUM_MAY_YIELD __attribute__((annotate("platinum::may_yield")))
#define PLATINUM_NO_YIELD __attribute__((annotate("platinum::no_yield")))
#else
#define PLATINUM_MAY_YIELD  // recognized textually by tools/platlint
#define PLATINUM_NO_YIELD   // recognized textually by tools/platlint
#endif

// Intentional-sharing annotation for data members of observer-hook
// implementers (mem::PageEventSink / mem::AccessObserver /
// sim::TimeObserver subclasses) and of the hook bases themselves, such as
// the access count the memory system keeps in a PageEventSink.  Hooks run
// inline on whichever fiber triggered the event, so every mutable member of
// an implementer is shared across fibers.  Members synchronized by a lock
// say so with GUARDED_BY; members that are safe *because the whole
// simulation runs on one host thread and fibers never preempt inside a
// hook* carry this marker instead.
// The platlint `annotation-coverage` rule rejects members with neither.
#if defined(__clang__) && !defined(SWIG)
#define PLATINUM_FIBER_SHARED __attribute__((annotate("platinum::fiber_shared")))
#else
#define PLATINUM_FIBER_SHARED  // recognized textually by tools/platlint
#endif

// --- Determinism-taint annotations (checked by tools/platlint) ---------------
//
// The `determinism-taint` rule tracks host-nondeterministic values (wall
// clock, ambient randomness, pointer order, unordered-container iteration,
// host thread ids, environment reads) through assignments, returns and call
// arguments, and rejects any flow into sim-visible state (src/sim, src/mem,
// src/kernel, or the trace/stats/JSON emission classes).  Two annotations
// declare the sanctioned escape hatches:
//
// PLATINUM_HOST_ONLY marks a function whose entire effect is host-side
// (artifact paths, worker pools, progress output).  Its body is exempt from
// sink checking and calling it is never a sink — but a host-derived value it
// *returns* still carries taint, so host facts cannot re-enter the
// simulation through it.
//
// PLATINUM_DETERMINISTIC_SANITIZED marks a validating funnel: the function
// may read host state, but its result is part of the experiment's invocation
// identity (e.g. a parsed, validated environment knob that is also printed
// in the output).  Its return value is considered clean.  Use sparingly;
// every annotation is a determinism claim reviewed like a lock annotation.
#if defined(__clang__) && !defined(SWIG)
#define PLATINUM_HOST_ONLY __attribute__((annotate("platinum::host_only")))
#define PLATINUM_DETERMINISTIC_SANITIZED \
  __attribute__((annotate("platinum::deterministic_sanitized")))
#else
#define PLATINUM_HOST_ONLY  // recognized textually by tools/platlint
#define PLATINUM_DETERMINISTIC_SANITIZED  // recognized textually by tools/platlint
#endif

#endif  // SRC_BASE_THREAD_ANNOTATIONS_H_
