//===- perfbench/Layers.cpp - Per-layer probes of a traced run ------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer half of a run. Three sources, and no instrumentation
/// inside the engine:
///
///  - probes: the benchmark's own timed calls into public functions
///    (Engine::speculated, Repository::lookup, emitCSource), each wrapped
///    in a span named after its layer;
///  - the census: a fresh engine compiling the corpus, and the native
///    compiler driven the way the native tier drives it, inside "census.*"
///    spans; run.py sums the engine's own parse/infer/codegen/optimize/
///    regalloc and native.compile/native.load/repo.load_native spans in
///    them;
///  - what the engine already exposes: its metrics snapshot (counters and
///    histograms), phases(), vmInstructions() and mem::peakBytes().
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "backend/CEmitter.h"
#include "native/NativeCompiler.h"
#include "repo/RepoStore.h"

#include <filesystem>

using namespace majic;
using namespace majic::perf;

namespace {

template <typename Fn> double timed(const char *Span, const char *Layer, Fn F) {
  obs::TraceScope S(Span, Layer);
  double T0 = now();
  F();
  return now() - T0;
}

double histSumMs(const obs::MetricsSnapshot &S, const std::string &Name) {
  const obs::HistogramSnapshot *H = histOf(S, Name);
  return H ? H->SumSeconds * 1e3 : 0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// emitCSource, cc and dlopen of every program's JIT code - what the
/// native tier does when it promotes a call - then the .mjn files of
/// \p Store read back by a fresh native-tier engine.
void nativeCensus(Result &R, const std::vector<CompiledObjectPtr> &Jit,
                  const std::string &Store) {
  obs::TraceScope Census("census.native", "bench");
  native::NativeCompiler CC("cc");
  double Emit = 0;
  uint64_t SoBytes = 0, Failures = 0;
  for (const CompiledObjectPtr &Obj : Jit) {
    if (!Obj)
      continue;
    std::string C;
    Emit += timed("emitCSource", "backend",
                  [&] { C = emitCSource(*Obj->Code, Obj->Sig); });
    try {
      std::vector<uint8_t> So = CC.compile(C, Obj->FunctionName);
      SoBytes += So.size();
      native::NativeCompiler::load(So, Obj->FunctionName, Obj->Code->NumOuts);
    } catch (...) {
      ++Failures;
    }
  }
  R.layer("native.emit_ms", Emit * 1e3, "ms");
  R.layer("native.so_kb", double(SoBytes) / 1024, "KiB");
  R.Deterministic["native.so_kb"] = SoBytes / 1024;
  R.Deterministic["native.census_failures"] = Failures;

  // A copy, so the measured engine's store stays as it was. A .mjn file
  // the store's validation ladder refuses is skew or corruption, never a
  // benchmark result: count it as a failed operation.
  const std::string Copy = Store + ".census";
  copyDir(Store, Copy);
  uint64_t OnDisk = 0;
  for (const auto &D : std::filesystem::directory_iterator(Copy))
    OnDisk += D.path().extension() == ".mjn";
  Engine E(hotOptions(true, Copy));
  RepoStoreStats St = E.repoStoreStats();
  R.layer("native.mjn_files", double(OnDisk), "count");
  ++R.Attempted;
  if (OnDisk == 0 || St.NativeLoaded != OnDisk)
    ++R.Failed;
}

} // namespace

void perf::census(Result &R, bool SmallArgs, const std::string &NativeStore) {
  const std::vector<Program> &Ps = programs();
  std::vector<std::vector<ValuePtr>> Args;
  for (const Program &P : Ps)
    Args.push_back(bench::scaledArgs(SmallArgs ? P.Small : P.Hot));
  Engine E(hotOptions(false, ""));
  {
    obs::TraceScope S("census.load", "bench");
    loadPrograms(E);
  }
  // JIT compiles happen on each program's first call; the call's own run
  // lies outside the compile spans run.py sums.
  std::vector<CompiledObjectPtr> Jit;
  {
    obs::TraceScope S("census.jit", "bench");
    for (size_t I = 0; I != Ps.size(); ++I)
      invoke(E, Ps[I].Hot.Name, Args[I]);
  }
  obs::MetricsSnapshot AfterJit = E.sampleMetrics();
  uint64_t IrInstrs = 0, Spills = 0, Checked = 0, Accesses = 0, Missing = 0;
  for (size_t I = 0; I != Ps.size(); ++I) {
    Jit.push_back(E.repository().lookup(Ps[I].Hot.Name,
                                        TypeSignature::ofValues(Args[I])));
    if (!Jit.back()) {
      ++Missing;
      continue;
    }
    const IRFunction &Code = *Jit.back()->Code;
    IrInstrs += Code.Code.size();
    for (const Instr &In : Code.Code) {
      switch (In.Op) {
      case Opcode::FSpLd:
      case Opcode::FSpSt:
      case Opcode::ISpLd:
      case Opcode::ISpSt:
      case Opcode::PSpLd:
      case Opcode::PSpSt:
        ++Spills;
        break;
      case Opcode::LoadElChk:
      case Opcode::LoadEl2Chk:
      case Opcode::StoreElChk:
      case Opcode::StoreEl2Chk:
        ++Checked;
        [[fallthrough]];
      case Opcode::LoadEl:
      case Opcode::LoadEl2:
      case Opcode::StoreEl:
      case Opcode::StoreEl2:
        ++Accesses;
        break;
      default:
        break;
      }
    }
  }
  double Spec = 0;
  {
    obs::TraceScope S("census.spec", "bench");
    for (const Program &P : Ps)
      Spec += timed("speculateSignature", "infer",
                    [&] { E.speculated(P.Hot.Name); });
  }
  {
    obs::TraceScope S("census.batch", "bench");
    for (size_t I = 0; I != Ps.size(); ++I)
      E.precompileWithArgs(Ps[I].Hot.Name, Args[I]);
  }
  // Parse, inference and codegen stage times come from the engine's spans
  // (run.py); disambiguation has no span, only the engine's phase timer.
  R.layer("analysis.disambiguate_ms",
          E.phases().get(Phase::Disambiguate) * 1e3, "ms");
  R.layer("infer.spec_ms", Spec * 1e3, "ms");
  R.layer("backend.ir_instrs", double(IrInstrs), "count");
  R.layer("backend.spill_instrs", double(Spills), "count");
  R.layer("backend.checked_access_ratio", ratio(double(Checked), double(Accesses)),
          "ratio");
  uint64_t Fused = counterOf(AfterJit, "fusion.ops_fused");
  R.layer("backend.fused_ops", double(Fused), "count");
  R.layer("backend.temps_elided",
          double(counterOf(AfterJit, "fusion.temps_elided")), "count");
  R.Deterministic["backend.ir_instrs"] = IrInstrs;
  R.Deterministic["backend.fused_ops"] = Fused;
  R.Deterministic["census.jit_compiles"] = E.jitCompiles();
  R.Deterministic["census.missing_jit_code"] = Missing;
  if (!NativeStore.empty())
    nativeCensus(R, Jit, NativeStore);
}

void perf::engineLayers(Result &R, Engine &E, uint64_t Ops) {
  obs::MetricsSnapshot S = E.sampleMetrics();
  double N = double(std::max<uint64_t>(Ops, 1));
  R.layer("backend.vm_run_ms", histSumMs(S, "vm.run.seconds") / N, "ms");
  R.layer("interp.run_ms", histSumMs(S, "interp.run.seconds") / N, "ms");
  R.layer("engine.deopts", double(E.deoptimizations()), "count");
  R.layer("engine.interp_fallbacks", double(E.interpreterFallbacks()), "count");
  R.layer("engine.jit_compiles", double(E.jitCompiles()), "count");
  uint64_t Hits = counterOf(S, "repo.lookup.hits");
  uint64_t Misses = counterOf(S, "repo.lookup.miss_no_function") +
                    counterOf(S, "repo.lookup.miss_no_safe_version");
  R.layer("repo.lookup_hit_ratio", ratio(double(Hits), double(Hits + Misses)),
          "ratio");
  R.layer("native.deopts", double(E.nativeDeopts()), "count");
  R.layer("native.failures", double(E.nativeFailures()), "count");
  R.layer("runtime.peak_mb", double(mem::peakBytes()) / 1e6, "MB");
}

void perf::repoLookupProbe(Result &R, Engine &E,
                           const std::vector<std::vector<ValuePtr>> &Args) {
  constexpr int kLookups = 2000;
  const std::vector<Program> &Ps = programs();
  double Secs = 0;
  uint64_t N = 0;
  for (size_t I = 0; I != Ps.size(); ++I) {
    TypeSignature Sig = TypeSignature::ofValues(Args[I]);
    Secs += timed("Repository::lookup", "repo", [&] {
      for (int K = 0; K != kLookups; ++K)
        E.repository().lookup(Ps[I].Hot.Name, Sig);
    });
    N += kLookups;
  }
  R.layer("repo.lookup_ns", Secs * 1e9 / double(N), "ns");
}

bool perf::traceWindow(const Options &O, uint64_t K) {
  bool On = O.Trace && (K / 20) % 2 == 1;
  obs::setTraceEnabled(On);
  return On;
}

void perf::traceOverhead(Result &R, const Samples &Untraced,
                         const Samples &Traced) {
  double U = Untraced.median(), T = Traced.median();
  R.layer("bench.trace_overhead_pct", U > 0 ? (T / U - 1) * 100 : 0, "%");
}
