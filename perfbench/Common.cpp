//===- perfbench/Common.cpp - Shared pieces of the benchmark --------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "runtime/ValueSerialize.h"
#include "support/ByteStream.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <time.h>

using namespace majic;
using namespace majic::perf;
namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

namespace {

struct ArgRow {
  const char *Name;
  std::vector<double> Hot, Small;
};

// Hot sizes put one steady-state VM call at roughly 1-10 ms on a current
// x86 core, with every matrix below 128 KiB, so that it stays in the
// core's own caches while other tenants use the shared ones; small sizes
// are an exploratory first call (the corpus test sizes).
const ArgRow kArgs[] = {
    {"adapt", {1e-12, 200000}, {1e-8, 4000}},
    {"cgopt", {120, 400}, {60, 40}},
    {"crnich", {1, 3, 41, 41}, {1, 3, 33, 33}},
    {"dirich", {24, 1e-4, 8}, {20, 1e-3, 10}},
    {"finedif", {1, 1, 1, 80, 80}, {1, 1, 1, 40, 40}},
    {"galrkn", {500}, {24}},
    {"icn", {100}, {40}},
    {"mei", {65, 33}, {17, 9}},
    {"orbec", {2000}, {500}},
    {"orbrk", {400}, {100}},
    {"qmr", {120, 60}, {40, 20}},
    {"sor", {90, 1.2, 25}, {24, 1.2, 10}},
    {"ackermann", {2, 30}, {2, 3}},
    {"fractal", {3000}, {400}},
    {"mandel", {20, 40}, {16, 30}},
    {"fibonacci", {17}, {11}},
    {"heavyball", {120, 200}, {60, 80}},
};

} // namespace

const std::vector<Program> &perf::programs() {
  static const std::vector<Program> Table = [] {
    std::vector<Program> Out;
    for (const ArgRow &Row : kArgs) {
      BenchmarkSpec Spec;
      if (const BenchmarkSpec *Found = findBenchmark(Row.Name)) {
        Spec = *Found;
      } else {
        // heavyball is not in Table 1: a vectorized companion program whose
        // time goes to whole-array builtins, so it counts as builtin.
        Spec.Name = Row.Name;
        Spec.Cat = BenchmarkSpec::Category::Builtin;
      }
      Program P{Spec, Spec};
      P.Hot.Args = Row.Hot;
      P.Small.Args = Row.Small;
      Out.push_back(std::move(P));
    }
    return Out;
  }();
  return Table;
}

const std::vector<std::string> &perf::categories() {
  static const std::vector<std::string> Names = {"scalar", "builtin", "array",
                                                 "recursive"};
  return Names;
}

void perf::loadPrograms(Engine &E) {
  for (const Program &P : programs())
    bench::loadBenchmark(E, P.Hot);
}

std::string perf::readSource(const std::string &Name) {
  std::ifstream In(mlibDirectory() + "/" + Name + ".m");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

EngineOptions perf::hotOptions(bool Native, const std::string &Store) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  O.ComputeThreads = 1;
  O.EnvFallbacks = false;
  if (Native) {
    O.NativeTier = true;
    O.NativeCC = "cc";
    O.NativeHotThreshold = 1;
    O.RepoDir = Store;
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Seeded operation sequences
//===----------------------------------------------------------------------===//

RoundPlan::RoundPlan(uint64_t Seed, size_t Size) : Rng(Seed), Round(Size) {
  for (size_t I = 0; I != Round.size(); ++I)
    Round[I] = I;
  Pos = Round.size();
}

size_t RoundPlan::next() {
  if (Pos == Round.size()) {
    std::shuffle(Round.begin(), Round.end(), Rng);
    Pos = 0;
  }
  return Round[Pos++];
}

uint64_t perf::hashStep(uint64_t H, uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t perf::planDigest(RoundPlan Plan) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (int I = 0; I != 256; ++I)
    H = hashStep(H, Plan.next());
  return H;
}

//===----------------------------------------------------------------------===//
// Engine metrics snapshots
//===----------------------------------------------------------------------===//

uint64_t perf::counterOf(const obs::MetricsSnapshot &S, const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}

const obs::HistogramSnapshot *perf::histOf(const obs::MetricsSnapshot &S,
                                           const std::string &Name) {
  for (const obs::HistogramSnapshot &H : S.Histograms)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perf::percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P / 100.0 * double(Sorted.size() - 1);
  size_t Lo = size_t(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - double(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

std::vector<double> Samples::sorted() const {
  std::vector<double> S = Vals;
  std::sort(S.begin(), S.end());
  return S;
}

double Samples::median() const { return percentile(sorted(), 50); }

double Samples::mean() const {
  if (Vals.empty())
    return 0;
  double Sum = 0;
  for (double V : Vals)
    Sum += V;
  return Sum / double(Vals.size());
}

Tail Samples::tail() const {
  std::vector<double> S = sorted();
  Tail T;
  for (double P : {50.0, 75.0, 90.0, 95.0}) {
    auto Beyond = uint64_t(std::floor(double(S.size()) * (100.0 - P) / 100.0));
    if (Beyond < 10)
      break;
    T.Pct = P;
    T.Beyond = Beyond;
  }
  T.Value = percentile(S, T.Pct);
  return T;
}

double perf::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / double(Xs.size()));
}

//===----------------------------------------------------------------------===//
// Outcomes
//===----------------------------------------------------------------------===//

Outcome perf::invoke(Engine &E, const std::string &Name,
                     const std::vector<ValuePtr> &Args) {
  std::string Printed;
  E.context().setSink([&Printed](const std::string &S) { Printed += S; });
  E.context().Rand.reseed(kRandSeed);
  ser::ByteWriter W;
  Outcome O;
  try {
    double T0 = now();
    std::vector<ValuePtr> Outs = E.callFunction(Name, Args, 1, SourceLoc());
    O.Seconds = now() - T0;
    W.u32(uint32_t(Outs.size()));
    for (const ValuePtr &V : Outs) {
      ser::ByteWriter One;
      ser::writeValue(One, *V);
      std::string Bits = One.take();
      // A program sees one numeric class, double: the engine's integer
      // refinement (MClass::Int) is representation, not result, so it
      // compares equal to Real. Logical, complex and char stay distinct.
      if (Bits[0] == char(MClass::Int))
        Bits[0] = char(MClass::Real);
      W.str(Bits);
    }
  } catch (const MatlabError &Err) {
    O.Error = true;
    W.str("error: " + Err.message());
  } catch (const std::exception &Err) {
    O.Error = true;
    W.str(std::string("exception: ") + Err.what());
  }
  E.context().setSink([](const std::string &) {});
  W.str(Printed);
  O.Bytes = W.take();
  return O;
}

std::vector<Outcome> perf::oracleOutcomes(bool Hot) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  O.BackgroundCompileThreads = 0;
  O.ComputeThreads = 1;
  Engine E(O);
  loadPrograms(E);
  std::vector<Outcome> Out;
  for (const Program &P : programs())
    Out.push_back(invoke(E, P.Hot.Name, bench::scaledArgs(Hot ? P.Hot : P.Small)));
  return Out;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Result::time(const std::string &Name, const Samples &S, bool TailValue) {
  Metric M;
  M.Unit = "ms";
  M.Samples = S.size();
  if (TailValue) {
    Tail T = S.tail();
    M.Value = T.Value * 1e3;
    M.TailPct = T.Pct;
  } else {
    M.Value = S.median() * 1e3;
    M.TailPct = 50;
  }
  EndToEnd[Name] = M;
}

void Result::check(const Outcome &Got, const Outcome &Want,
                   const std::string &What) {
  ++Attempted;
  if (Got != Want) {
    ++Failed;
    ++Mismatched;
    ++MismatchesBy[What];
  } else if (Got.Error) {
    ++Failed;
  }
}

void Result::categoryMetrics(const std::vector<Samples> &PerCell,
                             size_t CellsPerProgram) {
  const std::vector<Program> &Ps = programs();
  for (const std::string &Cat : categories()) {
    std::vector<double> Medians;
    uint64_t N = 0;
    for (size_t C = 0; C != PerCell.size(); ++C)
      if (Cat == Ps[C / CellsPerProgram].category() && !PerCell[C].empty()) {
        Medians.push_back(PerCell[C].median() * 1e3);
        N += PerCell[C].size();
      }
    EndToEnd[Cat + "_ms"] = Metric{geomean(Medians), "ms", N, 50};
  }
}

double perf::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double cpuSeconds(clockid_t Clock) {
  timespec Ts;
  clock_gettime(Clock, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double perf::threadCpu() { return cpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
double perf::processCpu() { return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

/// Keeps the kernel's allocations from being optimized away.
void *volatile AllocSink;

/// The reference kernel: a switch-dispatched interpreter of a fixed random
/// register program - the kind of work the VM does: indirect branches,
/// register traffic, loads from a 1 MiB table, a little floating point and
/// small malloc/free pairs. A pure arithmetic loop tracked the engine's
/// speed worse: it barely notices contention for the shared caches and
/// the front end, which slows the engine most. Deterministic.
double referenceKernel(int Iters) {
  struct Op {
    uint8_t Code, A, B;
    uint32_t Off;
  };
  constexpr uint32_t kTableMask = (1u << 17) - 1; // 1 MiB of uint64_t
  static const std::vector<uint64_t> Table = [] {
    std::vector<uint64_t> T(kTableMask + 1);
    uint64_t X = 88172645463325252ull;
    for (uint64_t &V : T) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      V = X;
    }
    return T;
  }();
  static const std::vector<Op> Prog = [] {
    std::vector<Op> P(4096);
    for (size_t I = 0; I != P.size(); ++I) {
      uint64_t V = Table[I * 31];
      P[I] = Op{uint8_t(V & 7), uint8_t((V >> 3) & 7), uint8_t((V >> 6) & 7),
                uint32_t(V >> 9) & kTableMask};
    }
    return P;
  }();
  uint64_t X[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  double F = 0;
  size_t Pc = 0;
  for (int I = 0; I != Iters; ++I) {
    const Op &O = Prog[Pc];
    Pc = (Pc + 1) & 4095;
    switch (O.Code) {
    case 0:
      X[O.A] += Table[O.Off];
      break;
    case 1:
      X[O.A] ^= X[O.B] >> 3;
      break;
    case 2:
      X[O.A] = X[O.A] * 0x9E3779B97F4A7C15ull + X[O.B];
      break;
    case 3:
      if (X[O.A] & 1)
        ++X[O.B];
      else
        X[O.A] >>= 1;
      break;
    case 4:
      X[O.A] += Table[(O.Off + X[O.B]) & kTableMask];
      break;
    case 5:
      F += std::sqrt(double(X[O.A] & 0xffff));
      break;
    case 6:
      F = F * 0.5 + double(Table[O.Off] & 0xff);
      break;
    default: {
      void *P = std::malloc(32 + (O.Off & 255));
      AllocSink = P;
      std::free(P);
      ++X[O.A];
      break;
    }
    }
  }
  uint64_t S = 0;
  for (uint64_t V : X)
    S += V;
  return F + double(S & 0xffff);
}

} // namespace

void SpeedRef::sample(int Iters) {
  double T0 = now();
  volatile double Sink = referenceKernel(Iters);
  (void)Sink;
  double Ns = (now() - T0) * 1e9 / Iters;
  NsPerIter.add(Ns);
  if (Recent.size() == 9)
    Recent.erase(Recent.begin());
  Recent.push_back(Ns);
}

void SpeedRef::burst() {
  for (int I = 0; I != 20; ++I)
    sample();
}

double SpeedRef::factor() const {
  return NsPerIter.empty() ? 1.0 : kNominalNsPerIter / NsPerIter.median();
}

double SpeedRef::recentFactor() const {
  std::vector<double> S = Recent;
  std::sort(S.begin(), S.end());
  return S.empty() ? 1.0 : kNominalNsPerIter / percentile(S, 50);
}

//===----------------------------------------------------------------------===//
// Scratch directories
//===----------------------------------------------------------------------===//

void perf::freshDir(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir);
  fs::permissions(Dir, fs::perms::owner_all, fs::perm_options::replace);
}

void perf::copyDir(const std::string &From, const std::string &To) {
  freshDir(To);
  fs::copy(From, To, fs::copy_options::recursive);
}

uint64_t perf::dirBytes(const std::string &Dir, const std::string &Ext) {
  uint64_t Total = 0;
  std::error_code EC;
  for (const fs::directory_entry &D : fs::recursive_directory_iterator(Dir, EC))
    if (D.is_regular_file() &&
        (Ext.empty() || D.path().extension() == Ext))
      Total += D.file_size();
  return Total;
}
