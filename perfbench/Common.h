//===- perfbench/Common.h - Shared pieces of the benchmark -----*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of majic_perf shares: the program table (the 16
/// Table 1 programs plus heavyball, each with a hot and a small argument
/// set), raw-sample statistics, the interpreter oracle's outcome encoding,
/// and the result a workload hands back to main().
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_PERFBENCH_COMMON_H
#define MAJIC_PERFBENCH_COMMON_H

#include "Harness.h"
#include "obs/Trace.h"

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace majic {
namespace perf {

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// One benchmark program. Hot arguments drive the steady-state workloads
/// and the service probe's calls (a few milliseconds of VM time per call);
/// small arguments drive the first-contact sessions (an exploratory call).
struct Program {
  BenchmarkSpec Hot;   ///< Table 1 metadata with the hot arguments
  BenchmarkSpec Small; ///< the same with the small arguments
  const char *category() const { return categoryName(Hot.Cat); }
};

/// The 16 Table 1 programs plus heavyball (categorized as builtin).
const std::vector<Program> &programs();

/// The four category names, in report order.
const std::vector<std::string> &categories();

//===----------------------------------------------------------------------===//
// Statistics over raw samples
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile \p P (0..100) of \p Sorted.
double percentile(const std::vector<double> &Sorted, double P);

/// A tail: the highest percentile of {50, 75, 90, 95} that still has at
/// least ten samples beyond it. Capped at p95: beyond it a shared machine's
/// stray stalls decide the value.
struct Tail {
  double Pct = 50;
  double Value = 0;
  uint64_t Beyond = 0;
};

class Samples {
public:
  void add(double V) { Vals.push_back(V); }
  size_t size() const { return Vals.size(); }
  bool empty() const { return Vals.empty(); }
  double median() const;
  double mean() const;
  Tail tail() const;
  void append(const Samples &O) {
    Vals.insert(Vals.end(), O.Vals.begin(), O.Vals.end());
  }

private:
  std::vector<double> sorted() const;
  std::vector<double> Vals;
};

double geomean(const std::vector<double> &Xs);

//===----------------------------------------------------------------------===//
// Outcomes (the oracle comparison)
//===----------------------------------------------------------------------===//

/// Everything an invocation shows a user, encoded to bytes: every output
/// value bit for bit (ser::writeValue), the printed text, and the error
/// text when it raised. Two outcomes agree iff their bytes are equal.
struct Outcome {
  std::string Bytes;
  bool Error = false;
  double Seconds = 0; ///< wall time of the call alone
  bool operator==(const Outcome &O) const { return Bytes == O.Bytes; }
  bool operator!=(const Outcome &O) const { return Bytes != O.Bytes; }
};

/// The fixed PRNG seed every invocation is reseeded with, so rand-using
/// programs do identical work on every tier and every run.
constexpr uint64_t kRandSeed = 0x5eed5eed5eedull;

/// Invokes \p Name once on \p E (PRNG reseeded, output captured, errors
/// caught) and returns the outcome; only the call itself is timed.
Outcome invoke(Engine &E, const std::string &Name,
               const std::vector<ValuePtr> &Args);

/// The interpreter's outcome for every program at its hot (\p Hot) or small
/// arguments, in programs() order.
std::vector<Outcome> oracleOutcomes(bool Hot);

/// Loads every program's source into \p E.
void loadPrograms(Engine &E);

/// The text of mlib/<Name>.m.
std::string readSource(const std::string &Name);

/// The engine options of the hot workloads (and of the compile census):
/// JIT policy, synchronous compiles, one compute thread; with \p Native,
/// the native tier at threshold 1 on the store \p Store.
EngineOptions hotOptions(bool Native, const std::string &Store);

//===----------------------------------------------------------------------===//
// Seeded operation sequences
//===----------------------------------------------------------------------===//

/// Rounds of a seeded shuffled permutation of 0..Size-1, so every index
/// comes up equally often.
class RoundPlan {
public:
  RoundPlan(uint64_t Seed, size_t Size);
  size_t next();

private:
  std::mt19937_64 Rng;
  std::vector<size_t> Round;
  size_t Pos;
};

/// FNV-1a step over one 64-bit value.
uint64_t hashStep(uint64_t H, uint64_t V);

/// Digest of the first operations \p Plan generates (the self-test compares
/// it across runs).
uint64_t planDigest(RoundPlan Plan);

//===----------------------------------------------------------------------===//
// Engine metrics snapshots
//===----------------------------------------------------------------------===//

uint64_t counterOf(const obs::MetricsSnapshot &S, const std::string &Name);
/// The histogram \p Name, or null.
const obs::HistogramSnapshot *histOf(const obs::MetricsSnapshot &S,
                                     const std::string &Name);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
  /// Timings only: raw sample count and the tail percentile used.
  uint64_t Samples = 0;
  double TailPct = 0;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< scratch directory, inside the checkout
};

struct Result {
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> Layers;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;     ///< errored, rejected or mismatched operations
  uint64_t Mismatched = 0; ///< of Failed: disagreed with the oracle
  /// planDigest() of the workload's seeded operation sequence.
  uint64_t PlanHash = 0;
  /// Counts that must repeat exactly for a given seed.
  std::map<std::string, uint64_t> Deterministic;
  /// Workload configuration stamped into the result (rates, caps, sizes).
  std::map<std::string, std::string> Config;
  /// Oracle disagreements by operation kind ("<program>" or
  /// "<session kind>.<program>").
  std::map<std::string, uint64_t> MismatchesBy;

  /// Counts one operation against its expected outcome.
  void check(const Outcome &Got, const Outcome &Want, const std::string &What);

  void time(const std::string &Name, const Samples &S, bool TailValue = false);
  void layer(const std::string &Name, double V, const std::string &Unit) {
    Layers[Name] = Metric{V, Unit, 0, 0};
  }
  /// Unscaled end-to-end times (see SpeedRef).
  std::map<std::string, Metric> Raw;

  /// Runs \p SetUp \p Reps times and records setup_s, the median of the
  /// repetitions' times on \p Clock (now, or processCpu); with \p Scale,
  /// each is scaled by SpeedRef bursts taken around it. The median wall
  /// time goes to Raw.
  template <typename Fn>
  void setUp(int Reps, bool Scale, double (*Clock)(), Fn SetUp);
  /// The per-category geometric means of per-cell medians. Cell C holds
  /// operations on program C / CellsPerProgram.
  void categoryMetrics(const std::vector<Samples> &PerCell,
                       size_t CellsPerProgram = 1);
};

/// Seconds since an arbitrary epoch (steady clock).
double now();
/// CPU seconds the calling thread has used.
double threadCpu();
/// CPU seconds all threads of the process have used.
double processCpu();

/// Machine-speed reference for the workloads, whose operations run on the
/// measuring thread. The benchmark
/// shares its machine, whose speed drifts by tens of percent within
/// minutes. A fixed CPU-bound kernel that belongs to the benchmark, not to
/// the engine, is timed on the measuring thread between operations, and
/// each operation's time is scaled by kNominalNsPerIter / (kernel ns per
/// iteration around it): milliseconds of a machine on which the kernel
/// runs at the nominal speed. Raw times are kept in the result document
/// too.
class SpeedRef {
public:
  static constexpr double kNominalNsPerIter = 15.0;
  /// Times one kernel run of \p Iters iterations (40000: about 0.6 ms).
  void sample(int Iters = 40000);
  /// Twenty samples.
  void burst();
  /// kNominalNsPerIter / median ns per iteration: over all samples, or
  /// over the last nine (the machine's speed now).
  double factor() const;
  double recentFactor() const;
  const Samples &nsPerIter() const { return NsPerIter; }

private:
  Samples NsPerIter;
  std::vector<double> Recent; ///< the last nine samples
};

template <typename Fn>
void Result::setUp(int Reps, bool Scale, double (*Clock)(), Fn SetUp) {
  Samples Scaled, Wall;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    SpeedRef Local;
    if (Scale)
      Local.burst();
    double T0 = now(), C0 = Clock();
    SetUp();
    double Secs = Clock() - C0;
    Wall.add(now() - T0);
    if (Scale)
      Local.burst();
    Scaled.add(Secs * Local.factor());
  }
  EndToEnd["setup_s"] = Metric{Scaled.median(), "s", Scaled.size(), 50};
  Raw["setup_s"] = Metric{Wall.median(), "s", Wall.size(), 50};
}

/// Workload entry points.
Result runVmHot(const Options &O);
Result runNativeHot(const Options &O);
Result runFirstContact(const Options &O);
/// The service probe of a traced first_contact run (ServiceMix.cpp): an
/// open loop into one SessionManager, timed and checked against an
/// uncapped replay; its numbers are per-layer metrics.
void serviceProbe(Result &R, const Options &O);
/// Stamps the probe's configuration into \p R (on every run, traced or not).
void serviceConfig(Result &R);

/// The census (Layers.cpp), run after the timed loop of every run: a fresh
/// engine with hotOptions() loads the corpus and compiles every program
/// the way a session does - JIT on its first call at its small or hot
/// arguments, then the batch (optimized) path for the same signature -
/// and the JIT code's structure is counted (the deterministic counts).
/// With \p NativeStore, the JIT code also goes through emitCSource, cc and
/// dlopen, and the .mjn files of \p NativeStore are read back by a fresh
/// native-tier engine; one it refuses counts as a failed operation. In a
/// traced run each stage sits in a "census.*" span, inside which run.py
/// sums the engine's own compile and native spans.
void census(Result &R, bool SmallArgs, const std::string &NativeStore = "");
/// Reads the engine's counters and histograms into per-layer metrics;
/// \p Ops is the number of timed operations they cover.
void engineLayers(Result &R, Engine &E, uint64_t Ops);
/// Mean time of one Repository::lookup of each program's signature.
void repoLookupProbe(Result &R, Engine &E,
                     const std::vector<std::vector<ValuePtr>> &Args);
/// A traced run alternates windows of 20 operations with tracing off and
/// on. Sets the trace flag for operation \p K and returns whether it runs
/// traced (always false in an untraced run).
bool traceWindow(const Options &O, uint64_t K);
/// bench.trace_overhead_pct: the traced windows' median op latency against
/// the untraced windows'.
void traceOverhead(Result &R, const Samples &Untraced, const Samples &Traced);

/// Removes \p Dir recursively and recreates it empty (mode 0700: the
/// native tier only trusts private store directories).
void freshDir(const std::string &Dir);
/// Copies a store directory (warm and primed first-contact sessions).
void copyDir(const std::string &From, const std::string &To);
/// Total size in bytes of the regular files under \p Dir with extension
/// \p Ext ("" = all).
uint64_t dirBytes(const std::string &Dir, const std::string &Ext = "");

} // namespace perf
} // namespace majic

#endif // MAJIC_PERFBENCH_COMMON_H
