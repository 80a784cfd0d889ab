//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the execution pipeline. MaJIC's core
/// promise is responsiveness: a failed compile, a failed allocation or a
/// misbehaving background task must degrade to the interpreter, never take
/// the session down. This layer makes those failure paths *exercisable*:
/// named injection sites are threaded through the compile pipeline (parse,
/// type inference, code generation, register allocation, repository
/// insertion), Value allocation and the thread pools, and a seedable
/// schedule decides which hits of which sites raise a fault.
///
/// Schedules are configured through the API (tests) or the MAJIC_FAULTS
/// environment variable. When nothing is armed, a site costs one relaxed
/// atomic load.
///
/// Spec grammar (comma- or semicolon-separated entries):
///
///   <site>=at:<N>          fire exactly once, at the Nth hit (1-based)
///   <site>=every:<N>       fire at every Nth hit
///   <site>=rand:<P>:<SEED> fire each hit with probability P, deterministic
///                          per seed
///   <site>=kill:<N>        raise SIGKILL at the Nth killPoint() hit - the
///                          crash-recovery sweeps' murder weapon. Only
///                          killPoint() honors it; the throwing hooks
///                          ignore kill schedules entirely, so arming one
///                          can never smuggle an exception into a
///                          non-throwing path.
///
/// e.g. MAJIC_FAULTS="codegen=at:2,repo-insert=rand:0.25:7"
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_FAULTINJECTION_H
#define MAJIC_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <exception>
#include <new>
#include <string>

namespace majic {
namespace faults {

/// The named injection sites. One enumerator per guarded subsystem stage.
enum class Site : uint8_t {
  Parse,       ///< ast: parseModule, before the token stream is consumed
  Infer,       ///< backend: before type inference
  CodeGen,     ///< backend: before code selection
  RegAlloc,    ///< backend: before register allocation
  RepoInsert,  ///< repo: before a compiled object is stored
  ValueAlloc,  ///< runtime: Value storage allocation (fires std::bad_alloc)
  PoolEnqueue, ///< support: ThreadPool::enqueue
  RepoSave,    ///< repo: before a compiled object is persisted to disk
  RepoLoad,    ///< repo: before a persisted file is decoded
  SessionCreate, ///< service: before a session's engine is constructed
  Admission,     ///< service: before a request is admitted to a queue
  BudgetCheck,   ///< service: per-session budget check before dispatch
  SessionSnapshotSave, ///< service: workspace snapshot save (hibernate)
  SessionSnapshotLoad, ///< service: workspace snapshot load (resurrect)
  AtomicWriteStep,     ///< support: each step inside writeFileAtomic
                       ///< (kill-mode only; the write path never throws)
  NativeCompile,       ///< native: before the out-of-process C compile
  NativeLoad,          ///< native: before a shared object is dlopen'd
  NativeRun,           ///< native: before/inside a native-tier execution
};
constexpr unsigned kNumSites = 18;

const char *siteName(Site S);

/// Resolves a spec-grammar site name; returns false when unknown.
bool siteFromName(const std::string &Name, Site &Out);

/// The exception raised at a firing site (every site except ValueAlloc,
/// which raises std::bad_alloc so the injected failure exercises the same
/// recovery path as a real out-of-memory condition).
class InjectedFault : public std::exception {
public:
  explicit InjectedFault(Site S);
  Site site() const { return S; }
  const char *what() const noexcept override { return Msg.c_str(); }

private:
  Site S;
  std::string Msg;
};

/// Per-site trigger counters. Hits are only counted while the site is
/// armed, so an idle process pays nothing for the bookkeeping.
struct SiteStats {
  uint64_t Hits = 0;  ///< times the site was reached while armed
  uint64_t Fired = 0; ///< times a fault was raised
};

/// Disarms every site and zeroes all counters.
void reset();

/// True when at least one site is armed (the fast-path gate).
bool anyArmed();

/// Arms \p S to fire exactly once, at the \p Nth hit from now (1-based).
void armAt(Site S, uint64_t Nth);

/// Arms \p S to fire at every \p Nth hit (1 = every hit).
void armEvery(Site S, uint64_t Nth);

/// Arms \p S to fire each hit independently with probability \p P, using a
/// deterministic per-site PRNG seeded with \p Seed.
void armRandom(Site S, double P, uint64_t Seed);

/// Arms \p S to SIGKILL the process at the \p Nth killPoint() hit
/// (1-based). Hits are counted by killPoint() alone; shouldFire() treats a
/// kill-armed site as disarmed.
void armKill(Site S, uint64_t Nth);

void disarm(Site S);

/// Applies a MAJIC_FAULTS-grammar schedule, replacing the current one
/// (counters reset). Returns false and fills \p Error on a malformed spec.
bool loadSpec(const std::string &Spec, std::string *Error = nullptr);

/// Applies the MAJIC_FAULTS environment variable when set; returns whether
/// a schedule was applied. A malformed spec is rejected loudly: a
/// diagnostic goes to stderr and every site is disarmed (a typo must not
/// silently leave a partial or stale schedule running).
bool loadEnv();

SiteStats stats(Site S);
uint64_t totalFired();

/// The site hook: records a hit and decides whether this hit faults.
/// Kill-armed sites never fire here - killPoint() owns that schedule.
bool shouldFire(Site S);

/// The crash-sweep hook: when \p S is armed with a kill schedule, counts
/// the hit and raises SIGKILL at the Nth one - the process dies mid-step
/// exactly as a power cut or OOM-kill would, with no unwinding and no
/// destructors. A no-op (one relaxed load) in every other mode, so the
/// durable write paths can call it unconditionally.
void killPoint(Site S);

/// Raises InjectedFault when the site fires.
inline void maybeThrow(Site S) {
  if (shouldFire(S))
    throw InjectedFault(S);
}

/// ValueAlloc flavor: raises std::bad_alloc, the same failure the OS would
/// deliver, so injection and reality share one recovery path.
inline void maybeThrowOom(Site S) {
  if (shouldFire(S))
    throw std::bad_alloc();
}

} // namespace faults
} // namespace majic

#endif // MAJIC_SUPPORT_FAULTINJECTION_H
