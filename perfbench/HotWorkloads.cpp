//===- perfbench/HotWorkloads.cpp - vm_hot and native_hot -----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steady-state execution. One engine (JIT policy, synchronous compiles,
/// one compute thread) runs every program once per round in a seeded
/// shuffled order until the time is up; each call is timed alone and its
/// outcome compared with the interpreter's. native_hot additionally runs a
/// cold session that compiles every program with cc and persists the .mjn
/// files, and measures a fresh engine that adopts them from the store.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <memory>
#include <sys/resource.h>

using namespace majic;
using namespace majic::perf;

namespace {

/// Warm-up calls per program before timing (the first compiles or adopts).
constexpr int kWarmupCalls = 2;

/// The cold native session: compiles every program (VM first, then cc on
/// the second call) and persists .mjo and .mjn files into \p Store.
void populateNativeStore(const std::string &Store) {
  freshDir(Store);
  Engine Cold(hotOptions(true, Store));
  loadPrograms(Cold);
  for (const Program &P : programs())
    for (int I = 0; I != kWarmupCalls + 1; ++I)
      invoke(Cold, P.Hot.Name, bench::scaledArgs(P.Hot));
  Cold.flushRepoStore();
}

struct HotState {
  std::unique_ptr<Engine> E;
  std::vector<Outcome> Oracle;
  std::vector<std::vector<ValuePtr>> Args;
  /// VM instructions one steady-state call of each program executes.
  std::vector<uint64_t> InstrPerCall;
  /// Outcomes of the warm-up calls, kWarmupCalls per program in order.
  std::vector<Outcome> Warmups;
};

/// Top-level calls of the programs the native tier served.
uint64_t nativeRuns(const Engine &E) {
  uint64_t N = 0;
  for (const Program &P : programs())
    N += E.profile(P.Hot.Name).NativeRuns;
  return N;
}

HotState setUp(bool Native, const std::string &Store) {
  HotState S;
  S.Oracle = oracleOutcomes(/*Hot=*/true);
  if (Native)
    populateNativeStore(Store);
  S.E = std::make_unique<Engine>(hotOptions(Native, Store));
  loadPrograms(*S.E);
  for (size_t I = 0; I != programs().size(); ++I) {
    const Program &P = programs()[I];
    S.Args.push_back(bench::scaledArgs(P.Hot));
    uint64_t Before = 0;
    for (int W = 0; W != kWarmupCalls; ++W) {
      Before = S.E->vmInstructions();
      S.Warmups.push_back(invoke(*S.E, P.Hot.Name, S.Args[I]));
    }
    S.InstrPerCall.push_back(S.E->vmInstructions() - Before);
  }
  return S;
}

Result runHot(const Options &O, bool Native) {
  Result R;
  const std::string Store = O.WorkDir + "/native_store";

  // Set-up, several times; the last engine is the one measured.
  HotState S;
  R.setUp(Native ? 3 : 5, /*Scale=*/!Native, now, [&] {
    S = HotState();
    S = setUp(Native, Store);
  });

  const std::vector<Program> &Ps = programs();
  for (size_t K = 0; K != S.Warmups.size(); ++K)
    R.check(S.Warmups[K], S.Oracle[K / kWarmupCalls],
            Ps[K / kWarmupCalls].Hot.Name + ".warmup");
  // Scaled by the machine's current speed (SpeedRef), and raw.
  std::vector<Samples> PerProgram(Ps.size()), RawPerProgram(Ps.size());
  Samples All, RawAll, Untraced, Traced;
  SpeedRef Speed;
  Speed.burst();
  uint64_t NativeRunsBefore = nativeRuns(*S.E);
  RoundPlan Plan(O.Seed, Ps.size());
  rusage Ru0;
  getrusage(RUSAGE_SELF, &Ru0);
  const double End = now() + O.Seconds;
  // Whole rounds only, so every program gets the same number of calls.
  while (now() < End) {
    Speed.sample();
    double Factor = Speed.recentFactor();
    for (size_t K = 0; K != Ps.size(); ++K) {
      bool TraceOn = traceWindow(O, All.size());
      size_t I = Plan.next();
      Outcome Out = invoke(*S.E, Ps[I].Hot.Name, S.Args[I]);
      R.check(Out, S.Oracle[I], Ps[I].Hot.Name);
      PerProgram[I].add(Out.Seconds * Factor);
      RawPerProgram[I].add(Out.Seconds);
      All.add(Out.Seconds * Factor);
      RawAll.add(Out.Seconds);
      (TraceOn ? Traced : Untraced).add(Out.Seconds);
    }
  }
  rusage Ru1;
  getrusage(RUSAGE_SELF, &Ru1);
  // Timed calls should fault no pages in (see Main.cpp).
  R.layer("bench.page_faults_per_op",
          double(Ru1.ru_minflt - Ru0.ru_minflt) / double(All.size()), "count");
  if (O.Trace)
    obs::setTraceEnabled(true); // the probes below are traced throughout

  R.PlanHash = planDigest(RoundPlan(O.Seed, Ps.size()));
  R.categoryMetrics(PerProgram);
  R.time("op_p50_ms", All);
  R.time("op_tail_ms", All, /*TailValue=*/true);
  Result Raw;
  Raw.categoryMetrics(RawPerProgram);
  Raw.time("op_p50_ms", RawAll);
  Raw.time("op_tail_ms", RawAll, /*TailValue=*/true);
  R.Raw.insert(Raw.EndToEnd.begin(), Raw.EndToEnd.end());
  R.layer("bench.ref_ns_per_iter", Speed.nsPerIter().median(), "ns");

  uint64_t Instr = 0;
  for (uint64_t N : S.InstrPerCall)
    Instr += N;
  R.Deterministic["backend.vm_instructions"] = Instr;
  R.Deterministic["engine.jit_compiles"] = S.E->jitCompiles();
  R.Config["programs"] = std::to_string(Ps.size());
  R.Config["native_tier"] = Native ? "on" : "off";
  for (size_t I = 0; I != Ps.size(); ++I)
    R.layer("engine.call_ms." + Ps[I].Hot.Name, PerProgram[I].median() * 1e3,
            "ms");

  if (O.Trace) {
    R.layer("backend.vm_instructions", double(Instr), "count");
    traceOverhead(R, Untraced, Traced);
    engineLayers(R, *S.E, All.size());
    repoLookupProbe(R, *S.E, S.Args);
    if (Native)
      R.layer("native.served_ratio",
              double(nativeRuns(*S.E) - NativeRunsBefore) /
                  double(std::max<size_t>(All.size(), 1)),
              "ratio");
  }
  census(R, /*SmallArgs=*/false, Native ? Store : "");
  return R;
}

} // namespace

Result perf::runVmHot(const Options &O) { return runHot(O, false); }
Result perf::runNativeHot(const Options &O) { return runHot(O, true); }
