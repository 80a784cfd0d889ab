//===- perfbench/Main.cpp - majic_perf entry point ------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// majic_perf --workload <vm_hot|native_hot|first_contact>
///            --seed <n> --seconds <s> --trace <0|1>
///            --workdir <dir> --out <result.json> [--trace-file <trace.json>]
///
/// Runs one workload and writes its result document (every metric with its
/// unit, sample count and tail percentile; attempted/failed counts; the
/// deterministic counts; the plan digest; the machine stamp) to --out.
/// perfbench/run.py drives it and prints the benchmark's result line.
/// Exits 1 when any operation disagreed with the interpreter oracle.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Parallel.h"
#include "support/ResourceGuard.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <string>

using namespace majic;
using namespace majic::perf;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "majic_perf: %s\nusage: majic_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> --out <file> "
               "[--trace-file <file>]\n",
               Msg);
  std::exit(2);
}

/// Doubles as full-precision strings: JsonWriter prints doubles with six
/// significant digits, and a timing must keep all of its digits.
std::string exact(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void writeMetrics(bench::JsonWriter &W, const char *Key,
                  const std::map<std::string, Metric> &Ms) {
  W.beginObject(Key);
  for (const auto &[Name, M] : Ms) {
    W.beginObject(Name);
    W.field("value", exact(M.Value));
    W.field("unit", M.Unit);
    if (M.Samples) {
      W.field("samples", M.Samples);
      W.field("percentile", exact(M.TailPct));
    }
    W.endObject();
  }
  W.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Out, TraceFile;
  for (int I = 1; I < Argc; ++I) {
    auto Arg = [&](const char *Flag) {
      if (std::strcmp(Argv[I], Flag) != 0)
        return false;
      if (I + 1 >= Argc)
        usage("missing value");
      return true;
    };
    if (Arg("--workload"))
      O.Workload = Argv[++I];
    else if (Arg("--seed"))
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (Arg("--seconds"))
      O.Seconds = std::atof(Argv[++I]);
    else if (Arg("--trace"))
      O.Trace = std::atoi(Argv[++I]) != 0;
    else if (Arg("--workdir"))
      O.WorkDir = Argv[++I];
    else if (Arg("--out"))
      Out = Argv[++I];
    else if (Arg("--trace-file"))
      TraceFile = Argv[++I];
    else
      usage("unknown argument");
  }
  if (O.WorkDir.empty() || Out.empty() || O.Seconds <= 0)
    usage("--workdir, --out and a positive --seconds are required");

  // The program receives only the generated inputs: no environment knob
  // may change what it does, and every workload computes on one thread.
  for (const char *Var : {"MAJIC_BENCH_SCALE", "MAJIC_NATIVE", "MAJIC_NATIVE_HOT",
                          "MAJIC_NATIVE_CC", "MAJIC_NO_FUSION", "MAJIC_FAULTS",
                          "MAJIC_TRACE", "MAJIC_METRICS", "MAJIC_REPO_DIR",
                          "MAJIC_PROFILE_DIR", "MAJIC_SESSION_DIR",
                          "MAJIC_COMPUTE_THREADS", "MAJIC_MAX_SESSIONS"})
    unsetenv(Var);
  par::setComputeThreads(1);
  // Page faults in the timed calls: a fault costs what the host makes it
  // cost, and that moved by 2x from one minute to the next. glibc's
  // defaults let a call fault on every large temporary: an array above the
  // mmap threshold is a fresh mapping, and freeing below the heap top
  // trims it back to the kernel once 128 KiB are free, so the next
  // allocation faults its pages in again. Both dgemv-bound programs with
  // a large matrix and qmr (a 115 KiB transpose per iteration) ran up to
  // 2x apart from one run to the next, steady within a run, while the
  // reference kernel did not move. Here no allocation below 32 MiB gets a
  // mapping of its own and the heap is never trimmed, so the timed calls
  // reuse memory that is already mapped (the hot sizes also keep every
  // matrix small enough for the core's own caches).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::filesystem::create_directories(O.WorkDir);
  if (O.Trace)
    obs::traceReset(1u << 17);

  Result R;
  if (O.Workload == "vm_hot")
    R = runVmHot(O);
  else if (O.Workload == "native_hot")
    R = runNativeHot(O);
  else if (O.Workload == "first_contact")
    R = runFirstContact(O);
  else
    usage("unknown workload");

  double PeakMb = double(mem::peakBytes()) / 1e6;
  R.EndToEnd.emplace("peak_mem_mb", Metric{PeakMb, "MB", 0, 0});
  R.layer("failed_ratio",
          double(R.Failed) / double(std::max<uint64_t>(R.Attempted, 1)),
          "ratio");
  if (O.Trace) {
    R.layer("runtime.peak_mb", PeakMb, "MB");
    obs::setTraceEnabled(false);
    if (!TraceFile.empty() && !obs::writeTraceJson(TraceFile))
      std::fprintf(stderr, "majic_perf: cannot write %s\n", TraceFile.c_str());
  }

  bench::JsonWriter W;
  W.beginObject();
  W.field("workload", O.Workload);
  W.field("seed", O.Seed);
  W.field("seconds", exact(O.Seconds));
  W.field("trace", O.Trace);
  bench::writeMachineInfo(W);
  W.field("attempted", R.Attempted);
  W.field("failed", R.Failed);
  W.field("mismatched", R.Mismatched);
  W.field("plan_digest", std::to_string(R.PlanHash));
  writeMetrics(W, "end_to_end", R.EndToEnd);
  writeMetrics(W, "per_layer", R.Layers);
  writeMetrics(W, "end_to_end_raw", R.Raw);
  W.beginObject("deterministic");
  for (const auto &[Name, N] : R.Deterministic)
    W.field(Name, N);
  W.endObject();
  W.beginObject("mismatches");
  for (const auto &[What, N] : R.MismatchesBy)
    W.field(What, N);
  W.endObject();
  W.beginObject("config");
  for (const auto &[Name, V] : R.Config)
    W.field(Name, V);
  W.endObject();
  W.endObject();
  if (!W.writeFile(Out)) {
    std::fprintf(stderr, "majic_perf: cannot write %s\n", Out.c_str());
    return 2;
  }
  if (R.Mismatched) {
    std::fprintf(stderr, "majic_perf: %llu operation(s) disagreed with the "
                         "interpreter oracle\n",
                 static_cast<unsigned long long>(R.Mismatched));
    return 1;
  }
  return 0;
}
