//===- bench/Harness.h - Shared measurement harness ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing methodology of the paper's evaluation (bench_paper), following
/// Section 3.2:
///
///  - the key gauge is speedup s = t_i / t_c against the interpreter;
///  - JIT-mode runtime *includes* JIT compile time (fresh repository);
///  - mcc / FALCON / speculative runtimes exclude ahead-of-time compilation
///    (the code is in the repository before the invocation), but a failed
///    speculation pays for the JIT inside the timed region;
///  - times are "best of N runs on a quiet system" (N scaled down from the
///    paper's 10);
///  - the PRNG is reseeded per run so every configuration does identical
///    work.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BENCH_HARNESS_H
#define MAJIC_BENCH_HARNESS_H

#include "engine/Corpus.h"
#include "engine/Engine.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace majic {
namespace bench {

/// Repetitions per measurement ("best of N"); MAJIC_BENCH_REPS overrides.
int repetitions();

/// Problem-size scale factor in (0, 1]; MAJIC_BENCH_SCALE overrides (the
/// quick mode used by smoke runs).
double sizeScale();

/// The spec's arguments with the scale factor applied to iteration-like
/// parameters.
std::vector<ValuePtr> scaledArgs(const BenchmarkSpec &Spec);

/// Best-of-N wall time of Fn().
double bestOf(int N, const std::function<void()> &Fn);

/// The text of \p Spec's .m file.
std::string readSource(const BenchmarkSpec &Spec);

/// Loads \p Spec's source into \p E, failing hard on diagnostics.
void loadBenchmark(Engine &E, const BenchmarkSpec &Spec);

/// What happens to a configuration's engine before its timed calls.
enum class Precompile {
  None,        ///< nothing (the interpreter)
  Fresh,       ///< nothing, and every VM rep is a fresh engine: JIT time
               ///< includes compile time ("we started our experiments
               ///< with an empty repository")
  Generic,     ///< mcc: type-free code for the function's arity
  WithArgs,    ///< FALCON: batch code for the invocation's own types
  Speculative, ///< MaJIC: code for the speculated signature, compiled
               ///< "after MaJIC's repository had ample time to find" it
  WarmCall,    ///< one untimed call: JIT code, compile time excluded
};

/// One configuration of the evaluation.
struct Config {
  const char *Name;
  CompilePolicy Policy;
  Precompile Pre;
  InferOptions Infer = {};
  RegAllocOptions RegAlloc = {};
};

/// The evaluation's configurations, read by bench_paper and dump_code.
/// interp is t_i, the baseline of every speedup. mcc/falcon/jit/spec are
/// Figures 4 and 5; jit is also Figure 6; the jit_no_* rows over jit are
/// Figure 7; spec over falcon (one optimizing code generator, speculated vs
/// actual signature) is Table 2; jit_warm against falcon is Section 5.
inline const Config kConfigs[] = {
    {"interp", CompilePolicy::InterpretOnly, Precompile::None},
    {"mcc", CompilePolicy::Mcc, Precompile::Generic},
    {"falcon", CompilePolicy::Falcon, Precompile::WithArgs},
    {"jit", CompilePolicy::Jit, Precompile::Fresh},
    {"spec", CompilePolicy::Speculative, Precompile::Speculative},
    {"jit_warm", CompilePolicy::Jit, Precompile::WarmCall},
    {"jit_no_ranges", CompilePolicy::Jit, Precompile::Fresh,
     {.EnableRanges = false}},
    {"jit_no_min_shapes", CompilePolicy::Jit, Precompile::Fresh,
     {.EnableMinShapes = false}},
    {"jit_spill_all", CompilePolicy::Jit, Precompile::Fresh, {},
     {.SpillEverything = true}},
};

/// The engine options of configuration \p C, with the native tier
/// promoting on the first call when \p Native. Compilation is synchronous:
/// a background worker must never compile inside a timed region.
EngineOptions sessionOptions(const Config &C, bool Native);

/// Compiles \p Spec ahead of its calls as \p C's Generic, WithArgs or
/// Speculative step asks; nothing for the other kinds.
void precompile(Engine &E, const Config &C, const BenchmarkSpec &Spec);

/// Pretty-prints a separator and a table title.
void printHeader(const std::string &Title, const std::string &Note);

class JsonWriter;

/// Stamps a "machine" object into \p W (inside the currently open object):
/// hardware concurrency, configured compute threads, build type, and
/// compiler version. Every BENCH_*.json carries this so results from
/// different machines/configurations are never compared blind.
void writeMachineInfo(JsonWriter &W);

/// Minimal streaming JSON emitter for machine-readable BENCH_*.json result
/// files. Keys are emitted in insertion order; values are numbers or
/// strings. No dependency beyond the standard library:
///
///   JsonWriter W;
///   W.beginObject();
///   W.field("threads", 4);
///   W.beginArray("results");
///   W.beginObject(); W.field("kernel", "dgemm"); W.endObject();
///   W.endArray();
///   W.endObject();
///   W.writeFile("BENCH_kernels.json");
class JsonWriter {
public:
  JsonWriter &beginObject(const std::string &Key = "");
  JsonWriter &endObject();
  JsonWriter &beginArray(const std::string &Key = "");
  JsonWriter &endArray();
  JsonWriter &field(const std::string &Key, const std::string &V);
  JsonWriter &field(const std::string &Key, const char *V);
  JsonWriter &field(const std::string &Key, double V);
  JsonWriter &field(const std::string &Key, uint64_t V);
  JsonWriter &field(const std::string &Key, bool V);
  JsonWriter &field(const std::string &Key, int V) {
    return field(Key, static_cast<uint64_t>(V));
  }
  JsonWriter &field(const std::string &Key, unsigned V) {
    return field(Key, static_cast<uint64_t>(V));
  }

  const std::string &str() const { return Buf; }
  /// Writes the accumulated document (plus a trailing newline) to \p Path;
  /// returns false on I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  void prefix(const std::string &Key);
  void indent();

  std::string Buf;
  std::vector<bool> NeedComma = {false};
  unsigned Depth = 0;
};

} // namespace bench
} // namespace majic

#endif // MAJIC_BENCH_HARNESS_H
