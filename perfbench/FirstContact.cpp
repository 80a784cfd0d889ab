//===- perfbench/FirstContact.cpp - first_contact -------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Many short sessions, back to back: each builds a fresh engine on its own
/// store directory, snoops mlib/, makes one call at the small arguments, and
/// is timed from engine construction to the result (time to first result).
/// The end-to-end times are the session thread's CPU time: cold sessions
/// fsync what they write, and a shared virtual disk's fsync wait moved the
/// wall times by 20-35% from one run to the next while the CPU times moved
/// by 2-3%. Set-up is timed on the process's CPU clock for the same reason.
/// Wall times are kept in the result document (end_to_end_raw), and the
/// per-kind ttfr_* metrics are wall times.
/// A seeded mix of three session kinds:
///
///   cold    empty store; JIT policy; the session compiles and writes .mjo
///   warm    a fresh copy of a store holding the whole corpus; JIT policy;
///           the session adopts entries and must compile nothing
///   primed  a fresh copy of a store plus profiles.mjp written by an
///           earlier speculative session; Speculative policy with one
///           background worker
///
/// Store preparation and engine teardown are outside the timed region.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "repo/RepoStore.h"

#include <algorithm>

using namespace majic;
using namespace majic::perf;

namespace {

constexpr int kSetupReps = 5;

enum class Kind { Cold, Warm, Primed };
constexpr Kind kKinds[] = {Kind::Cold, Kind::Warm, Kind::Primed};

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Cold:
    return "cold";
  case Kind::Warm:
    return "warm";
  case Kind::Primed:
    return "primed";
  }
  return "?";
}

EngineOptions sessionOptions(Kind K, const std::string &Store) {
  EngineOptions O;
  O.Policy = K == Kind::Primed ? CompilePolicy::Speculative : CompilePolicy::Jit;
  O.BackgroundCompileThreads = K == Kind::Primed ? 1 : 0;
  O.ComputeThreads = 1;
  O.EnvFallbacks = false;
  O.RepoDir = Store;
  return O;
}

/// A returning user's store: every program run once by a session of kind
/// \p K (warm: JIT; primed: speculative, so profiles.mjp ranks what ran).
void populate(Kind K, const std::string &Store) {
  freshDir(Store);
  Engine E(sessionOptions(K, Store));
  E.watchDirectory(mlibDirectory());
  E.snoop();
  E.drainCompiles();
  for (const Program &P : programs())
    invoke(E, P.Hot.Name, bench::scaledArgs(P.Small));
  E.drainCompiles();
  E.flushRepoStore();
}

struct SessionStats {
  Samples Ttfr;
  uint64_t JitCompiles = 0, Loaded = 0, Adopted = 0, SpecQueued = 0;
  double SpecBackgroundSeconds = 0, QueueWaitSeconds = 0;
  uint64_t Sessions = 0;
};

/// Store-level probes: RepoStore::save of every compiled object of the warm
/// store into an empty directory, and RepoStore::loadAll of the warm store.
void storeProbes(Result &R, const std::string &WarmStore,
                 const std::string &Scratch) {
  copyDir(WarmStore, Scratch + "/load");
  std::vector<RepoStore::Entry> Entries;
  double T0 = now();
  {
    obs::TraceScope S("RepoStore::loadAll", "repo");
    RepoStore Store(Scratch + "/load");
    Entries = Store.loadAll();
  }
  R.layer("repo.store_load_ms", (now() - T0) * 1e3, "ms");
  freshDir(Scratch + "/save");
  RepoStore Out(Scratch + "/save");
  T0 = now();
  {
    obs::TraceScope S("RepoStore::save", "repo");
    for (const RepoStore::Entry &E : Entries)
      Out.save(E.Obj, E.SourceHash);
  }
  R.layer("repo.store_save_ms", (now() - T0) * 1e3, "ms");
  R.layer("repo.store_kb", double(dirBytes(WarmStore, ".mjo")) / 1024, "KiB");
  R.Deterministic["repo.store_entries"] = Entries.size();
}

} // namespace

Result perf::runFirstContact(const Options &O) {
  Result R;
  const std::string WarmStore = O.WorkDir + "/warm_store";
  const std::string PrimedStore = O.WorkDir + "/primed_store";
  const std::string SessionStore = O.WorkDir + "/session_store";

  std::vector<Outcome> Oracle;
  R.setUp(kSetupReps, /*Scale=*/true, processCpu, [&] {
    Oracle = oracleOutcomes(/*Hot=*/false);
    populate(Kind::Warm, WarmStore);
    populate(Kind::Primed, PrimedStore);
  });

  const std::vector<Program> &Ps = programs();
  // Cell = program * 3 + kind, so every cell gets the same number of
  // sessions.
  RoundPlan Plan(O.Seed, Ps.size() * 3);
  std::vector<Samples> PerCell(Ps.size() * 3), RawPerCell(Ps.size() * 3);
  Samples All, RawAll, Untraced, Traced;
  SessionStats ByKind[3];
  SpeedRef Speed;
  Speed.burst();
  const double End = now() + O.Seconds;
  while (now() < End) {
    Speed.sample(20000);
    double Factor = Speed.recentFactor();
    bool TraceOn = traceWindow(O, All.size());
    size_t Cell = Plan.next();
    size_t I = Cell / 3;
    Kind K = kKinds[Cell % 3];
    if (K == Kind::Cold)
      freshDir(SessionStore);
    else
      copyDir(K == Kind::Warm ? WarmStore : PrimedStore, SessionStore);

    SessionStats &St = ByKind[int(K)];
    double T0 = now(), C0 = threadCpu();
    Engine E(sessionOptions(K, SessionStore));
    E.watchDirectory(mlibDirectory());
    E.snoop();
    Outcome Out = invoke(E, Ps[I].Hot.Name, bench::scaledArgs(Ps[I].Small));
    double Cpu = threadCpu() - C0, Ttfr = now() - T0;

    uint64_t FailedBefore = R.Failed;
    R.check(Out, Oracle[I], std::string(kindName(K)) + "." + Ps[I].Hot.Name);
    // A warm session must adopt everything from its store, not compile.
    if (K == Kind::Warm && E.jitCompiles() != 0 && R.Failed == FailedBefore)
      ++R.Failed;
    if (K != Kind::Primed) {
      PerCell[Cell].add(Cpu * Factor);
      RawPerCell[Cell].add(Ttfr);
      All.add(Cpu * Factor);
      RawAll.add(Ttfr);
    }
    (TraceOn ? Traced : Untraced).add(Cpu);
    St.Ttfr.add(Ttfr * Factor);
    ++St.Sessions;
    St.JitCompiles += E.jitCompiles();
    RepoStoreStats SS = E.repoStoreStats();
    St.Loaded += SS.Loaded;
    St.Adopted += SS.Adopted;
    if (K == Kind::Primed) {
      SpeculationStats Spec = E.speculationStats();
      St.SpecQueued += Spec.Queued;
      St.SpecBackgroundSeconds += Spec.BackgroundCompileSeconds;
      obs::MetricsSnapshot Snap = E.sampleMetrics();
      if (const obs::HistogramSnapshot *H = histOf(Snap, "pool.spec.queue_seconds"))
        St.QueueWaitSeconds += H->Count ? H->SumSeconds / double(H->Count) : 0;
    }
  }

  if (O.Trace)
    obs::setTraceEnabled(true); // the probes below are traced throughout
  R.PlanHash = planDigest(RoundPlan(O.Seed, Ps.size() * 3));
  R.categoryMetrics(PerCell, 3);
  R.time("op_p50_ms", All);
  R.time("op_tail_ms", All, /*TailValue=*/true);
  Result Raw;
  Raw.categoryMetrics(RawPerCell, 3);
  Raw.time("op_p50_ms", RawAll);
  Raw.time("op_tail_ms", RawAll, /*TailValue=*/true);
  R.Raw.insert(Raw.EndToEnd.begin(), Raw.EndToEnd.end());
  R.layer("bench.ref_ns_per_iter", Speed.nsPerIter().median(), "ns");
  for (Kind K : kKinds) {
    const SessionStats &St = ByKind[int(K)];
    std::string Base = std::string("ttfr_") + kindName(K);
    Tail T = St.Ttfr.tail();
    R.Layers[Base + "_p50_ms"] =
        Metric{St.Ttfr.median() * 1e3, "ms", St.Ttfr.size(), 50};
    R.Layers[Base + "_tail_ms"] =
        Metric{T.Value * 1e3, "ms", St.Ttfr.size(), T.Pct};
  }
  const SessionStats &Warm = ByKind[int(Kind::Warm)];
  const SessionStats &Primed = ByKind[int(Kind::Primed)];
  // A warm session that compiled anything missed the store it was given.
  R.Deterministic["engine.jit_compiles"] = Warm.JitCompiles;

  if (O.Trace) {
    double NPrimed = double(std::max<uint64_t>(Primed.Sessions, 1));
    R.layer("engine.jit_compiles", double(Warm.JitCompiles), "count");
    R.layer("repo.adopted_ratio",
            Warm.Loaded ? double(Warm.Adopted) / double(Warm.Loaded) : 0,
            "ratio");
    R.layer("engine.spec_queued", double(Primed.SpecQueued) / NPrimed, "count");
    R.layer("engine.spec_background_ms",
            Primed.SpecBackgroundSeconds * 1e3 / NPrimed, "ms");
    R.layer("engine.spec_queue_wait_ms", Primed.QueueWaitSeconds * 1e3 / NPrimed,
            "ms");
    traceOverhead(R, Untraced, Traced);
    storeProbes(R, WarmStore, O.WorkDir + "/probe");
    serviceProbe(R, O);
  }
  serviceConfig(R);
  census(R, /*SmallArgs=*/true);
  return R;
}
