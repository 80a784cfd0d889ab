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

/// Loads \p Spec's source into \p E, failing hard on diagnostics.
void loadBenchmark(Engine &E, const BenchmarkSpec &Spec);

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
