//===- bench/Harness.cpp - Shared measurement harness ----------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace majic;
using namespace majic::bench;

int majic::bench::repetitions() {
  if (const char *Env = std::getenv("MAJIC_BENCH_REPS"))
    return std::max(1, std::atoi(Env));
  return 2;
}

double majic::bench::sizeScale() {
  if (const char *Env = std::getenv("MAJIC_BENCH_SCALE"))
    return std::max(0.01, std::atof(Env));
  return 1.0;
}

std::vector<ValuePtr> majic::bench::scaledArgs(const BenchmarkSpec &Spec) {
  // Which argument positions scale with problem size (iteration counts and
  // grid extents); tolerances and fixed constants do not.
  static const std::map<std::string, std::vector<size_t>> Scalable = {
      {"adapt", {1}},     {"cgopt", {0, 1}},  {"crnich", {2, 3}},
      {"dirich", {0}},    {"finedif", {3, 4}}, {"galrkn", {0}},
      {"icn", {0}},       {"mei", {}},         {"orbec", {0}},
      {"orbrk", {0}},     {"qmr", {0, 1}},     {"sor", {0, 2}},
      {"ackermann", {}},  {"fractal", {0}},    {"mandel", {0}},
      {"fibonacci", {}},
  };
  double Scale = sizeScale();
  std::vector<double> Args = Spec.Args;
  auto It = Scalable.find(Spec.Name);
  if (Scale != 1.0 && It != Scalable.end()) {
    for (size_t Idx : It->second)
      Args[Idx] = std::max(4.0, std::floor(Args[Idx] * Scale));
  }
  std::vector<ValuePtr> Boxed;
  for (double A : Args) {
    if (A == static_cast<long long>(A))
      Boxed.push_back(makeValue(Value::intScalar(A)));
    else
      Boxed.push_back(makeScalar(A));
  }
  return Boxed;
}

double majic::bench::bestOf(int N, const std::function<void()> &Fn) {
  double Best = std::numeric_limits<double>::infinity();
  for (int I = 0; I != N; ++I) {
    Timer T;
    Fn();
    Best = std::min(Best, T.seconds());
  }
  return Best;
}

std::string majic::bench::readSource(const BenchmarkSpec &Spec) {
  std::ifstream In(mlibDirectory() + "/" + Spec.Name + ".m");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void majic::bench::loadBenchmark(Engine &E, const BenchmarkSpec &Spec) {
  if (!E.loadFile(mlibDirectory() + "/" + Spec.Name + ".m")) {
    std::fprintf(stderr, "failed to load %s:\n%s\n", Spec.Name.c_str(),
                 E.diagnostics().c_str());
    std::exit(1);
  }
  // Swallow program output during measurement.
  E.context().setSink([](const std::string &) {});
}

EngineOptions majic::bench::sessionOptions(const Config &C, bool Native) {
  EngineOptions O;
  O.BackgroundCompileThreads = 0;
  O.Policy = C.Policy;
  O.Infer = C.Infer;
  O.RegAlloc = C.RegAlloc;
  O.NativeTier = Native;
  O.NativeHotThreshold = 1;
  return O;
}

void majic::bench::precompile(Engine &E, const Config &C,
                              const BenchmarkSpec &Spec) {
  switch (C.Pre) {
  case Precompile::Generic:
    E.precompileGeneric(Spec.Name, Spec.Args.size());
    break;
  case Precompile::WithArgs:
    E.precompileWithArgs(Spec.Name, scaledArgs(Spec));
    break;
  case Precompile::Speculative:
    E.precompileSpeculative(Spec.Name);
    break;
  case Precompile::None:
  case Precompile::Fresh:
  case Precompile::WarmCall:
    break;
  }
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

void JsonWriter::indent() {
  Buf.push_back('\n');
  Buf.append(2 * Depth, ' ');
}

void JsonWriter::prefix(const std::string &Key) {
  if (NeedComma.back())
    Buf.push_back(',');
  NeedComma.back() = true;
  if (Depth != 0)
    indent();
  if (!Key.empty()) {
    Buf.push_back('"');
    Buf += Key;
    Buf += "\": ";
  }
}

JsonWriter &JsonWriter::beginObject(const std::string &Key) {
  prefix(Key);
  Buf.push_back('{');
  NeedComma.push_back(false);
  ++Depth;
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  bool HadFields = NeedComma.back();
  NeedComma.pop_back();
  --Depth;
  if (HadFields)
    indent();
  Buf.push_back('}');
  return *this;
}

JsonWriter &JsonWriter::beginArray(const std::string &Key) {
  prefix(Key);
  Buf.push_back('[');
  NeedComma.push_back(false);
  ++Depth;
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  bool HadFields = NeedComma.back();
  NeedComma.pop_back();
  --Depth;
  if (HadFields)
    indent();
  Buf.push_back(']');
  return *this;
}

JsonWriter &JsonWriter::field(const std::string &Key, const std::string &V) {
  prefix(Key);
  Buf.push_back('"');
  for (char C : V) {
    if (C == '"' || C == '\\')
      Buf.push_back('\\');
    Buf.push_back(C);
  }
  Buf.push_back('"');
  return *this;
}

JsonWriter &JsonWriter::field(const std::string &Key, const char *V) {
  return field(Key, std::string(V));
}

JsonWriter &JsonWriter::field(const std::string &Key, double V) {
  prefix(Key);
  char Tmp[64];
  if (std::isfinite(V))
    std::snprintf(Tmp, sizeof(Tmp), "%.6g", V);
  else
    std::snprintf(Tmp, sizeof(Tmp), "null"); // JSON has no inf/nan
  Buf += Tmp;
  return *this;
}

JsonWriter &JsonWriter::field(const std::string &Key, uint64_t V) {
  prefix(Key);
  Buf += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::field(const std::string &Key, bool V) {
  prefix(Key);
  Buf += V ? "true" : "false";
  return *this;
}

bool JsonWriter::writeFile(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Buf.data(), 1, Buf.size(), F) == Buf.size() &&
            std::fputc('\n', F) != EOF;
  return std::fclose(F) == 0 && Ok;
}

void majic::bench::printHeader(const std::string &Title,
                               const std::string &Note) {
  std::printf("\n");
  std::printf("============================================================"
              "====================\n");
  std::printf("%s\n", Title.c_str());
  if (!Note.empty())
    std::printf("%s\n", Note.c_str());
  std::printf("============================================================"
              "====================\n");
}

void majic::bench::writeMachineInfo(JsonWriter &W) {
  W.beginObject("machine");
  W.field("hardware_concurrency", std::thread::hardware_concurrency());
  W.field("compute_threads", par::computeThreads());
#ifdef MAJIC_BUILD_TYPE
  W.field("build_type", MAJIC_BUILD_TYPE);
#else
  W.field("build_type", "unknown");
#endif
#ifdef __VERSION__
  W.field("compiler", __VERSION__);
#else
  W.field("compiler", "unknown");
#endif
  W.endObject();
}
