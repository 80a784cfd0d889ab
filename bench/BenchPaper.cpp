//===- bench/BenchPaper.cpp - The paper's evaluation, on the VM and on cc ------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's evaluation - Table 1, Figures 4-7, Table 2 and
// the Section 5 headroom estimate - from one configuration table. Each
// configuration of each corpus program is timed twice:
//
//  - vm_s: on the register VM, by the methodology of Harness.h;
//  - native_s: the same configuration with the native tier promoting on
//    the first call, compiled synchronously, timed after that promoting
//    call. Its emit + cc + dlopen seconds are reported beside it
//    (native_cc_s), never inside it.
//
// Writes BENCH_paper.json with the machine stamp. Exits non-zero when a
// gate fails: a compiled output differs from the interpreter's bit for
// bit; a native cell was not served natively (no hit, a failure, a deopt,
// or a build inside the timed region); or fewer than 3 of the 5 scalar
// kernels run >= 1.3x faster warm on cc than on the VM. Without a C
// compiler every native cell carries a reason instead of a time and only
// the output gate applies.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/Compiler.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace majic;
using namespace majic::bench;

namespace {

// The warm native-over-VM gate: scalar loop kernels, where emitted C has
// the most dispatch overhead to remove.
const char *const kGateKernels[] = {"crnich", "dirich", "finedif", "galrkn",
                                    "mandel"};
constexpr double kSpeedupGate = 1.3;
constexpr int kGateCount = 3;

constexpr uint64_t kSeed = 0x5eed5eed5eedull;

/// One configuration of one program on one tier.
struct Run {
  double Seconds = 0; ///< best of N
  /// Native: emit + cc + dlopen seconds of the promoting call.
  double BuildSeconds = 0;
  std::vector<ValuePtr> Out; ///< outputs of the last call
  /// Figure 6: disambiguate, infer, codegen and execute seconds of the
  /// first call on a fresh engine.
  double Phases[4] = {};
  uint64_t JitCompiles = 0;
  uint64_t Hits = 0;
  /// Why the cell has no native time; empty when it has one.
  std::string NativeReason;
};

Run measure(const Config &C, const BenchmarkSpec &Spec, bool Native) {
  Run R;
  auto Session = [&] {
    auto E = std::make_unique<Engine>(sessionOptions(C, Native));
    loadBenchmark(*E, Spec);
    E->phases().clear();
    return E;
  };
  auto Call = [&](Engine &E) {
    E.context().Rand.reseed(kSeed);
    R.Out = E.callFunction(Spec.Name, scaledArgs(Spec), 1, SourceLoc());
  };
  auto FirstCall = [&](Engine &E) {
    Call(E);
    const Phase Split[] = {Phase::Disambiguate, Phase::TypeInference,
                           Phase::CodeGen, Phase::Execute};
    for (int I = 0; I != 4; ++I)
      R.Phases[I] = E.phases().get(Split[I]);
  };

  if (C.Pre == Precompile::Fresh && !Native) {
    R.Seconds = bestOf(repetitions(), [&] { FirstCall(*Session()); });
    return R;
  }
  std::unique_ptr<Engine> E = Session();
  precompile(*E, C, Spec);
  if (C.Pre == Precompile::WarmCall)
    Call(*E);
  obs::Histogram &Builds = E->metrics().histogram("native.build.seconds");
  if (Native) {
    FirstCall(*E); // the promoting call: cc runs here, untimed
    R.BuildSeconds = Builds.sumSeconds();
  }
  uint64_t BuildsBefore = Builds.count();
  R.Seconds = bestOf(repetitions(), [&] { Call(*E); });
  R.JitCompiles = E->jitCompiles();
  R.Hits = E->nativeHits();
  if (!Native)
    return R;
  if (R.Hits == 0 || E->nativeFailures() != 0 || E->nativeDeopts() != 0 ||
      Builds.count() != BuildsBefore)
    R.NativeReason =
        "not served natively: hits " + std::to_string(R.Hits) +
        ", failures " + std::to_string(E->nativeFailures()) + ", deopts " +
        std::to_string(E->nativeDeopts()) + ", builds while timed " +
        std::to_string(Builds.count() - BuildsBefore);
  return R;
}

/// Bit-for-bit equality of two output lists (NaN payloads included).
bool identical(const std::vector<ValuePtr> &A, const std::vector<ValuePtr> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    const Value &X = *A[I], &Y = *B[I];
    size_t Bytes = X.numel() * sizeof(double);
    if (X.rows() != Y.rows() || X.cols() != Y.cols() ||
        X.isComplex() != Y.isComplex())
      return false;
    if (Bytes != 0 && (std::memcmp(X.reData(), Y.reData(), Bytes) != 0 ||
                       (X.isComplex() &&
                        std::memcmp(X.imData(), Y.imData(), Bytes) != 0)))
      return false;
  }
  return true;
}

/// The JIT's code for \p Spec's main function at bench_paper's arguments,
/// with or without ranges; nullopt when it does not compile.
std::optional<CompileResult> compileJit(const BenchmarkSpec &Spec,
                                        bool Ranges) {
  SourceManager SM;
  Diagnostics Diags;
  auto Mod = parseModule(Spec.Name, readSource(Spec), SM, Diags);
  if (!Mod)
    return std::nullopt;
  auto Info = disambiguate(*Mod->mainFunction(), *Mod);
  CompileRequest Req;
  Req.FI = Info.get();
  Req.Sig = TypeSignature::ofValues(scaledArgs(Spec));
  Req.Infer.EnableRanges = Ranges;
  return compileFunction(Req);
}

/// Figure 7's structural companion: the percentage of element accesses
/// \p R carries with a subscript check (-1 when there is no code).
double checkedAccessPct(const std::optional<CompileResult> &R) {
  if (!R)
    return -1;
  unsigned Checked = 0, Total = 0;
  for (const Instr &I : R->Code->Code) {
    bool IsChecked = I.Op == Opcode::LoadElChk || I.Op == Opcode::LoadEl2Chk ||
                     I.Op == Opcode::StoreElChk || I.Op == Opcode::StoreEl2Chk;
    Checked += IsChecked;
    Total += IsChecked || I.Op == Opcode::LoadEl || I.Op == Opcode::LoadEl2 ||
             I.Op == Opcode::StoreEl || I.Op == Opcode::StoreEl2;
  }
  return Total ? 100.0 * Checked / Total : 0.0;
}

/// Geometric mean of Num/Den over the programs where both are measured.
struct GeoMean {
  double LogSum = 0;
  unsigned N = 0;
  void add(double Num, double Den) {
    if (Num > 0 && Den > 0) {
      LogSum += std::log(Num / Den);
      ++N;
    }
  }
  double value() const { return N ? std::exp(LogSum / N) : 0; }
};

} // namespace

int main() {
  printHeader("The paper's evaluation on the register VM and on cc",
              "speedup s = t_i / t_c; vm: Harness.h methodology; native: "
              "the same configuration\nafter its promoting call (cc time "
              "reported apart); every output checked against t_i's");
  std::printf("%-10s %9s", "benchmark", "t_i(s)");
  for (const Config &C : kConfigs)
    if (C.Pre != Precompile::None)
      std::printf(" %13.13s", C.Name);
  std::printf("\n%20s", "");
  for (size_t I = 1; I != std::size(kConfigs); ++I)
    std::printf(" %13s", "vm/native");
  std::printf("\n");

  JsonWriter W;
  W.beginObject();
  W.field("benchmark_set", "paper");
  W.field("reps", repetitions());
  W.field("scale", sizeScale());
  writeMachineInfo(W);
  W.beginArray("programs");

  EngineOptions Probe;
  Probe.NativeTier = true;
  const bool Compiler = Engine(Probe).nativeTierAvailable();
  // A native cell's time; 0 when it has none (a reason instead).
  auto NativeTime = [&](const Run &Nat) {
    return Compiler && Nat.NativeReason.empty() ? Nat.Seconds : 0.0;
  };
  GeoMean FalconVm, FalconNative, SpecNative;
  int Mismatches = 0, NotNative = 0, AboveGate = 0;
  for (const BenchmarkSpec &Spec : benchmarkCorpus()) {
    std::map<std::string, std::pair<Run, Run>> Cells;
    for (const Config &C : kConfigs) {
      bool Promotes = C.Pre != Precompile::None && Compiler;
      Cells[C.Name] = {measure(C, Spec, false),
                       Promotes ? measure(C, Spec, true) : Run()};
    }
    const Run &Interp = Cells["interp"].first;
    double Ti = Interp.Seconds;
    std::istringstream Src(readSource(Spec));
    unsigned Lines = 0;
    for (std::string L; std::getline(Src, L);)
      ++Lines;

    W.beginObject();
    W.field("program", Spec.Name);
    W.field("category", categoryName(Spec.Cat));
    W.field("source", Spec.Source);
    W.field("description", Spec.Description);
    W.field("size", Spec.ScaledProblemSize);
    W.field("paper_size", Spec.PaperProblemSize);
    W.field("loc", Lines);
    W.field("paper_loc", Spec.PaperLines);
    W.field("paper_interp_s", Spec.PaperRuntime);
    const std::optional<CompileResult> JitCode = compileJit(Spec, true);
    W.field("checked_pct_ranges", checkedAccessPct(JitCode));
    W.field("checked_pct_no_ranges",
            checkedAccessPct(compileJit(Spec, false)));
    // The register allocator's spill loads and stores in that JIT code.
    if (JitCode) {
      W.field("ir_instrs", uint64_t(JitCode->Code->Code.size()));
      W.field("spill_instrs", JitCode->RegAlloc.NumSpillInstrs);
    }
    W.field("spec_rejected", Cells["spec"].first.JitCompiles > 0);
    W.beginObject("cells");
    std::printf("%-10s %9.3f", Spec.Name.c_str(), Ti);
    bool AllSame = true;
    for (const Config &C : kConfigs) {
      const auto &[Vm, Nat] = Cells[C.Name];
      W.beginObject(C.Name);
      W.field("vm_s", Vm.Seconds);
      if (C.Pre == Precompile::None) {
        W.field("native_reason", "the interpreter is the baseline: no "
                                 "compiled code to promote");
        W.endObject();
        continue;
      }
      bool Timed = NativeTime(Nat) > 0;
      bool Same = identical(Vm.Out, Interp.Out) &&
                  (!Timed || identical(Nat.Out, Interp.Out));
      Mismatches += !Same;
      AllSame &= Same;
      W.field("speedup_vm", Ti / Vm.Seconds);
      if (Timed) {
        W.field("native_s", Nat.Seconds);
        W.field("speedup_native", Ti / Nat.Seconds);
        W.field("native_cc_s", Nat.BuildSeconds);
        W.field("native_hits", Nat.Hits);
        std::printf(" %6.2f/%-6.1f", Ti / Vm.Seconds, Ti / Nat.Seconds);
      } else {
        NotNative += Compiler;
        W.field("native_reason",
                Compiler ? Nat.NativeReason
                         : "no C compiler: the native tier stays dormant");
        std::printf(" %6.2f/%-6s", Ti / Vm.Seconds, "-");
      }
      W.field("outputs_identical", Same);
      W.endObject();
    }
    W.endObject();

    const Run &Jit = Cells["jit"].first, &JitNat = Cells["jit"].second;
    W.beginObject("fig6_jit_phases_s");
    const char *PhaseNames[] = {"disambiguate", "infer", "codegen", "execute"};
    for (int I = 0; I != 4; ++I)
      W.field(std::string("vm_") + PhaseNames[I], Jit.Phases[I]);
    for (int I = 0; I != 4; ++I)
      W.field(std::string("native_") + PhaseNames[I], JitNat.Phases[I]);
    W.field("native_cc", JitNat.BuildSeconds);
    W.endObject();
    W.endObject();

    FalconVm.add(Jit.Seconds, Cells["falcon"].first.Seconds);
    FalconNative.add(Jit.Seconds, NativeTime(Cells["falcon"].second));
    SpecNative.add(Jit.Seconds, NativeTime(Cells["spec"].second));
    double WarmVm = Cells["jit_warm"].first.Seconds;
    double WarmNat = NativeTime(Cells["jit_warm"].second);
    for (const char *K : kGateKernels)
      AboveGate += Spec.Name == K && WarmNat > 0 &&
                   WarmVm >= kSpeedupGate * WarmNat;
    std::printf("%s\n", AllSame ? "" : "  MISMATCH");
  }
  W.endArray();

  bool Pass = Mismatches == 0 &&
              (!Compiler || (NotNative == 0 && AboveGate >= kGateCount));
  std::printf("\nFigure 5, geometric mean of jit-on-the-VM time over: falcon "
              "on the VM %.2fx, falcon on cc %.2fx, spec on cc %.2fx\n",
              FalconVm.value(), FalconNative.value(), SpecNative.value());
  std::printf("warm jit on cc >= %.1fx over the VM on %d/%zu kernels; %d "
              "output mismatches; %d cells not native%s -> %s\n",
              kSpeedupGate, AboveGate, std::size(kGateKernels), Mismatches,
              NotNative, Compiler ? "" : " (no C compiler)",
              Pass ? "PASS" : "FAIL");

  W.beginObject("summary");
  W.field("fig5_jit_vm_over_falcon_vm", FalconVm.value());
  W.field("fig5_jit_vm_over_falcon_native", FalconNative.value());
  W.field("fig5_jit_vm_over_spec_native", SpecNative.value());
  W.field("speedup_gate", kSpeedupGate);
  W.field("kernels_above_gate", AboveGate);
  W.field("output_mismatches", Mismatches);
  W.field("cells_not_native", NotNative);
  W.field("c_compiler", Compiler);
  W.field("pass", Pass);
  W.endObject();
  W.endObject();
  if (!W.writeFile("BENCH_paper.json")) {
    std::fprintf(stderr, "cannot write BENCH_paper.json\n");
    return 1;
  }
  std::printf("wrote BENCH_paper.json\n");
  return Pass ? 0 : 1;
}
