//===- tests/ObsTest.cpp - Observability subsystem tests -------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability subsystem end to end: metrics registry correctness
// under concurrent recording, histogram bucketing edge cases, trace-ring
// wraparound, Chrome-trace JSON well-formedness (parsed back with a
// minimal JSON reader), per-function profiles after a scripted session,
// and the disabled-mode zero-event guarantee.
//
//===----------------------------------------------------------------------===//

#include "engine/Corpus.h"
#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace majic;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON reader: validates well-formedness, the property the Chrome
// trace and metrics dumps must uphold for chrome://tracing / Perfetto and
// `python3 -m json.tool` to load them. Accepts exactly one JSON value.
//===----------------------------------------------------------------------===//

class JsonValidator {
public:
  explicit JsonValidator(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return P == S.size();
  }

private:
  void skipWs() {
    while (P < S.size() && std::isspace(static_cast<unsigned char>(S[P])))
      ++P;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(P, N, L) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    if (P >= S.size() || S[P] != '"')
      return false;
    ++P;
    while (P < S.size()) {
      char C = S[P];
      if (C == '"') {
        ++P;
        return true;
      }
      if (C == '\\') {
        ++P;
        if (P >= S.size())
          return false;
        char E = S[P];
        if (E == 'u') {
          if (P + 4 >= S.size())
            return false;
          for (int I = 1; I <= 4; ++I)
            if (!std::isxdigit(static_cast<unsigned char>(S[P + I])))
              return false;
          P += 4;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      } else if (static_cast<unsigned char>(C) < 0x20) {
        return false; // raw control character: invalid JSON
      }
      ++P;
    }
    return false;
  }
  bool number() {
    size_t Start = P;
    if (P < S.size() && S[P] == '-')
      ++P;
    size_t Digits = P;
    while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
      ++P;
    if (P == Digits)
      return false;
    if (P < S.size() && S[P] == '.') {
      ++P;
      size_t Frac = P;
      while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
        ++P;
      if (P == Frac)
        return false;
    }
    if (P < S.size() && (S[P] == 'e' || S[P] == 'E')) {
      ++P;
      if (P < S.size() && (S[P] == '+' || S[P] == '-'))
        ++P;
      size_t Exp = P;
      while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
        ++P;
      if (P == Exp)
        return false;
    }
    return P > Start;
  }
  bool object() {
    ++P; // '{'
    skipWs();
    if (P < S.size() && S[P] == '}') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (P >= S.size() || S[P] != ':')
        return false;
      ++P;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (P < S.size() && S[P] == ',') {
        ++P;
        continue;
      }
      if (P < S.size() && S[P] == '}') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++P; // '['
    skipWs();
    if (P < S.size() && S[P] == ']') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (P < S.size() && S[P] == ',') {
        ++P;
        continue;
      }
      if (P < S.size() && S[P] == ']') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool value() {
    if (P >= S.size())
      return false;
    switch (S[P]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }

  const std::string &S;
  size_t P = 0;
};

bool jsonValid(const std::string &S) { return JsonValidator(S).valid(); }

size_t countOf(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

/// RAII guard: every trace-touching test leaves the process-global trace
/// state the way it found it (disabled, default capacity, empty rings), so
/// test order cannot matter.
struct TraceSandbox {
  explicit TraceSandbox(size_t Capacity = 0) {
    obs::setTraceEnabled(false);
    obs::traceReset(Capacity ? Capacity : 32768);
  }
  ~TraceSandbox() {
    obs::setTraceEnabled(false);
    obs::traceReset(32768);
  }
};

ValuePtr intArg(long V) { return makeValue(Value::intScalar(V)); }

uint64_t counterOf(const obs::MetricsSnapshot &S, const std::string &Name) {
  for (const auto &C : S.Counters)
    if (C.first == Name)
      return C.second;
  ADD_FAILURE() << "counter not in snapshot: " << Name;
  return 0;
}

bool hasGauge(const obs::MetricsSnapshot &S, const std::string &Name) {
  for (const auto &G : S.Gauges)
    if (G.first == Name)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricsRegistry R;
  obs::Counter &C = R.counter("c");
  C.inc();
  C.inc(4);
  EXPECT_EQ(C.value(), 5u);
  // Get-or-create returns the same instrument.
  EXPECT_EQ(&R.counter("c"), &C);

  obs::Gauge &G = R.gauge("g");
  G.set(7);
  G.add(-3);
  EXPECT_EQ(G.value(), 4);

  obs::Counter External;
  External.inc(42);
  R.registerCounter("ext", External);
  obs::MetricsSnapshot S = R.snapshot();
  ASSERT_EQ(S.Counters.size(), 2u);
  // Sorted by name: "c" before "ext".
  EXPECT_EQ(S.Counters[0].first, "c");
  EXPECT_EQ(S.Counters[0].second, 5u);
  EXPECT_EQ(S.Counters[1].first, "ext");
  EXPECT_EQ(S.Counters[1].second, 42u);
  // External updates are visible through the registration.
  External.inc();
  EXPECT_EQ(R.snapshot().Counters[1].second, 43u);
}

TEST(Metrics, ConcurrentIncrements) {
  obs::MetricsRegistry R;
  obs::Counter &C = R.counter("hits");
  obs::Gauge &G = R.gauge("depth");
  obs::Histogram &H = R.histogram("lat");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != kThreads; ++T)
    Ts.emplace_back([&C, &G, &H] {
      for (int I = 0; I != kPerThread; ++I) {
        C.inc();
        G.add(1);
        G.add(-1);
        H.observe(1e-6 * (I % 64));
      }
    });
  // Snapshots race the writers by design; they must stay well-formed.
  for (int I = 0; I != 50; ++I)
    (void)R.snapshot();
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(C.value(), uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), uint64_t(kThreads) * kPerThread);
  uint64_t BucketSum = 0;
  for (unsigned I = 0; I != obs::Histogram::kNumBuckets; ++I)
    BucketSum += H.bucketCount(I);
  EXPECT_EQ(BucketSum, H.count());
}

TEST(Metrics, HistogramBucketEdges) {
  using H = obs::Histogram;
  // Bucket 0: sub-microsecond. Bucket I: [2^(I-1), 2^I) us. Last bucket:
  // everything at or above 2^24 us.
  EXPECT_EQ(H::bucketIndexUs(0), 0u);
  EXPECT_EQ(H::bucketIndexUs(1), 1u);
  EXPECT_EQ(H::bucketIndexUs(2), 2u);
  EXPECT_EQ(H::bucketIndexUs(3), 2u);
  EXPECT_EQ(H::bucketIndexUs(4), 3u);
  EXPECT_EQ(H::bucketIndexUs((uint64_t(1) << 23) - 1), 23u);
  EXPECT_EQ(H::bucketIndexUs(uint64_t(1) << 23), 24u);
  EXPECT_EQ(H::bucketIndexUs(uint64_t(1) << 24), H::kNumBuckets - 1);
  EXPECT_EQ(H::bucketIndexUs(UINT64_MAX), H::kNumBuckets - 1);
  EXPECT_EQ(H::bucketFloorUs(0), 0u);
  EXPECT_EQ(H::bucketFloorUs(1), 1u);
  EXPECT_EQ(H::bucketFloorUs(2), 2u);
  EXPECT_EQ(H::bucketFloorUs(3), 4u);
  EXPECT_EQ(H::bucketFloorUs(H::kNumBuckets - 1), uint64_t(1) << 24);
  // Floors are strictly increasing and each floor maps into its own bucket.
  for (unsigned I = 0; I + 1 != H::kNumBuckets; ++I)
    EXPECT_LT(H::bucketFloorUs(I), H::bucketFloorUs(I + 1));
  for (unsigned I = 0; I != H::kNumBuckets; ++I)
    EXPECT_EQ(H::bucketIndexUs(H::bucketFloorUs(I)), I);

  obs::Histogram Hist;
  Hist.observe(0);      // bucket 0
  Hist.observe(0.4e-6); // 400 ns -> bucket 0
  Hist.observe(1e-6);   // exactly 1 us -> bucket 1
  Hist.observe(3e-6);   // bucket 2
  Hist.observe(-5.0);   // negative: clamped to 0 -> bucket 0
  Hist.observe(1e9);    // far beyond the ladder -> last bucket, saturating
  EXPECT_EQ(Hist.count(), 6u);
  EXPECT_EQ(Hist.bucketCount(0), 3u);
  EXPECT_EQ(Hist.bucketCount(1), 1u);
  EXPECT_EQ(Hist.bucketCount(2), 1u);
  EXPECT_EQ(Hist.bucketCount(obs::Histogram::kNumBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(Hist.minSeconds(), 0);
  EXPECT_GT(Hist.maxSeconds(), 1e8); // saturated, not wrapped
}

TEST(Metrics, JsonWellFormed) {
  obs::MetricsRegistry R;
  // A name needing escapes must not break the dump.
  R.counter("weird\"name\\with\tescapes").inc();
  R.gauge("g").set(-12);
  R.histogram("h").observe(2.5e-3);
  std::string J = R.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"gauges\""), std::string::npos);
  EXPECT_NE(J.find("\"histograms\""), std::string::npos);
  EXPECT_NE(J.find("floor_us"), std::string::npos);
  // Empty registry: still one valid document.
  obs::MetricsRegistry Empty;
  EXPECT_TRUE(jsonValid(Empty.json())) << Empty.json();
}

//===----------------------------------------------------------------------===//
// Trace ring
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledModeRecordsNothing) {
  TraceSandbox Sandbox;
  ASSERT_FALSE(obs::traceEnabled());
  {
    obs::TraceScope Span("should.not.appear", "test");
    obs::traceInstant("also.not", "test", "detail");
  }
  EXPECT_EQ(obs::traceEventsRecorded(), 0u);
  EXPECT_EQ(obs::traceEventsDropped(), 0u);
  std::string J = obs::traceJson();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_EQ(J.find("should.not.appear"), std::string::npos);
}

TEST(Trace, RingWraparoundKeepsNewestAndCounts) {
  constexpr size_t kCapacity = 64;
  constexpr size_t kEvents = 200;
  TraceSandbox Sandbox(kCapacity);
  obs::setTraceEnabled(true);
  for (size_t I = 0; I != kEvents; ++I)
    obs::traceInstant("tick", "test", std::to_string(I));
  obs::setTraceEnabled(false);

  EXPECT_EQ(obs::traceEventsRecorded(), kEvents);
  EXPECT_EQ(obs::traceEventsDropped(), kEvents - kCapacity);
  std::string J = obs::traceJson();
  EXPECT_TRUE(jsonValid(J)) << J;
  // Exactly the ring capacity survives, and it is the newest events: the
  // last one recorded is present, the first (overwritten) one is gone.
  EXPECT_EQ(countOf(J, "\"name\": \"tick\""), kCapacity);
  EXPECT_NE(J.find("\"detail\": \"" + std::to_string(kEvents - 1) + "\""),
            std::string::npos);
  EXPECT_EQ(J.find("\"detail\": \"0\""), std::string::npos);
  EXPECT_NE(J.find("\"dropped_events\": " +
                   std::to_string(kEvents - kCapacity)),
            std::string::npos);
}

TEST(Trace, ChromeJsonShapeAndEscaping) {
  TraceSandbox Sandbox;
  obs::setTraceEnabled(true);
  {
    obs::TraceScope Outer("outer", "test", "fn\"quoted\\path");
    obs::TraceScope Inner("inner", "test");
    obs::traceInstant("mark", "test");
  }
  // A second thread records into its own ring and shows up under its own
  // tid in the merged export.
  std::thread([] { obs::traceInstant("worker.mark", "test"); }).join();
  obs::setTraceEnabled(false);

  std::string J = obs::traceJson();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  // Spans are complete events with a duration; instants carry a scope.
  EXPECT_NE(J.find("\"name\": \"outer\", \"cat\": \"test\", \"ph\": \"X\""),
            std::string::npos);
  EXPECT_NE(J.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(J.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(J.find("\"dur\": "), std::string::npos);
  // The quote and backslash in the detail came out escaped.
  EXPECT_NE(J.find("fn\\\"quoted\\\\path"), std::string::npos);
  // Two distinct thread ids (tids are process-global and monotonically
  // assigned, so only distinctness is stable across test orderings).
  std::set<std::string> Tids;
  for (size_t P = J.find("\"tid\": "); P != std::string::npos;
       P = J.find("\"tid\": ", P + 1)) {
    size_t Start = P + std::strlen("\"tid\": ");
    size_t End = Start;
    while (End < J.size() && std::isdigit(static_cast<unsigned char>(J[End])))
      ++End;
    Tids.insert(J.substr(Start, End - Start));
  }
  EXPECT_EQ(Tids.size(), 2u);
}

TEST(Trace, ScopeArmedBeforeDisableStillRecords) {
  TraceSandbox Sandbox;
  obs::setTraceEnabled(true);
  {
    obs::TraceScope Span("late.span", "test");
    obs::setTraceEnabled(false); // span already armed: still records
  }
  EXPECT_EQ(obs::traceEventsRecorded(), 1u);
  EXPECT_NE(obs::traceJson().find("late.span"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Per-function profiles
//===----------------------------------------------------------------------===//

TEST(Profiles, RecordAndSnapshot) {
  obs::FunctionProfiles P;
  P.recordInvocation("f", "(double 1x1)");
  P.recordInvocation("f", "(double 1x1)");
  P.recordInvocation("f", "(int 1x1)");
  P.recordVmRun("f", 0.25);
  P.recordInterpRun("f", 0.5);
  P.recordCompile("f", 1.5);
  P.recordWarmAdoption("f");
  P.recordDeopt("f");
  P.recordInvocation("g", "(untyped)");

  obs::FunctionProfile F = P.profile("f");
  EXPECT_EQ(F.Invocations, 3u);
  EXPECT_EQ(F.VmRuns, 1u);
  EXPECT_EQ(F.InterpRuns, 1u);
  EXPECT_DOUBLE_EQ(F.VmSeconds, 0.25);
  EXPECT_DOUBLE_EQ(F.InterpSeconds, 0.5);
  EXPECT_EQ(F.Compiles, 1u);
  EXPECT_DOUBLE_EQ(F.CompileSeconds, 1.5);
  EXPECT_EQ(F.WarmStartAdoptions, 1u);
  EXPECT_EQ(F.Deopts, 1u);
  // Signatures sorted most-called first, counts summing to Invocations.
  ASSERT_EQ(F.ArgSignatures.size(), 2u);
  EXPECT_EQ(F.ArgSignatures[0].first, "(double 1x1)");
  EXPECT_EQ(F.ArgSignatures[0].second, 2u);
  EXPECT_EQ(F.ArgSignatures[1].second, 1u);

  // Unknown function: zeroed profile, not a crash.
  EXPECT_EQ(P.profile("nope").Invocations, 0u);

  // snapshot(): most-invoked first; json(): one valid document.
  std::vector<obs::FunctionProfile> All = P.snapshot();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].Name, "f");
  EXPECT_TRUE(jsonValid(P.json())) << P.json();
  EXPECT_EQ(P.size(), 2u);
  P.clear();
  EXPECT_EQ(P.size(), 0u);
}

// Regression: the per-function signature map is capped. A function called
// with an unbounded variety of signatures (e.g. cell-driven dispatch in a
// long session) must not grow the profile without bound; the overflow is
// counted, and invocation totals stay exact.
TEST(Profiles, SignatureCapAndOverflowCounter) {
  obs::FunctionProfiles P;
  const size_t K = obs::FunctionProfiles::kMaxSignatures;
  const size_t Total = K + 24;
  for (size_t I = 0; I != Total; ++I)
    P.recordInvocation("f", "(double 1x" + std::to_string(I + 1) + ")");

  obs::FunctionProfile F = P.profile("f");
  EXPECT_EQ(F.Invocations, Total);
  // Exactly K distinct signatures retained; the rest fold into the
  // overflow counter, so retained + overflow still equals Invocations.
  EXPECT_EQ(F.ArgSignatures.size(), K);
  EXPECT_EQ(F.OtherSignatures, Total - K);
  uint64_t Retained = 0;
  for (const auto &[Sig, Count] : F.ArgSignatures)
    Retained += Count;
  EXPECT_EQ(Retained + F.OtherSignatures, F.Invocations);

  // Re-observing a retained signature still counts against it, not the
  // overflow bucket.
  P.recordInvocation("f", "(double 1x1)");
  F = P.profile("f");
  EXPECT_EQ(F.ArgSignatures[0].first, "(double 1x1)");
  EXPECT_EQ(F.ArgSignatures[0].second, 2u);
  EXPECT_EQ(F.OtherSignatures, Total - K);

  // The overflow bucket surfaces in the JSON dump.
  EXPECT_TRUE(jsonValid(P.json())) << P.json();
  EXPECT_NE(P.json().find("\"other_signatures\""), std::string::npos);
}

// The recording hot path is sharded by function name: concurrent
// recorders on different (and same) functions must neither lose counts
// nor race (TSan covers the latter when enabled).
TEST(Profiles, ConcurrentShardedRecording) {
  obs::FunctionProfiles P;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != kThreads; ++T)
    Ts.emplace_back([&P, T] {
      std::string Own = "fn" + std::to_string(T);
      for (int I = 0; I != kPerThread; ++I) {
        P.recordInvocation(Own, "(double 1x1)");
        P.recordInvocation("shared", "(int 1x1)");
      }
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(P.profile("shared").Invocations,
            static_cast<uint64_t>(kThreads) * kPerThread);
  for (int T = 0; T != kThreads; ++T)
    EXPECT_EQ(P.profile("fn" + std::to_string(T)).Invocations,
              static_cast<uint64_t>(kPerThread));
  EXPECT_EQ(P.invocations("shared"),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// Warm-start merging: persisted totals land under the same entry as live
// recording, and persisted signature counts seed the ranking.
TEST(Profiles, MergePersistedCounts) {
  obs::FunctionProfiles P;
  P.mergePersisted("f", 10, 3);
  P.mergeSignatureCount("f", "(double 1x1)", 7);
  P.mergeSignatureCount("f", "(int 1x1)", 2);
  P.recordInvocation("f", "(int 1x1)");

  obs::FunctionProfile F = P.profile("f");
  EXPECT_EQ(F.Invocations, 11u);
  EXPECT_EQ(F.OtherSignatures, 3u);
  ASSERT_EQ(F.ArgSignatures.size(), 2u);
  EXPECT_EQ(F.ArgSignatures[0].first, "(double 1x1)");
  EXPECT_EQ(F.ArgSignatures[0].second, 7u);
  EXPECT_EQ(F.ArgSignatures[1].second, 3u);
  EXPECT_EQ(P.invocations("f"), 11u);
  EXPECT_EQ(P.invocations("never-run"), 0u);
}

//===----------------------------------------------------------------------===//
// Engine integration
//===----------------------------------------------------------------------===//

const char *kAddOne = "function y = addone(x)\n"
                      "y = x + 1;\n";

TEST(EngineObs, ProfilesAfterScriptedSession) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  ASSERT_TRUE(E.addSource("addone", kAddOne));

  for (int I = 0; I != 3; ++I) {
    auto R = E.callFunction("addone", {intArg(41)}, 1, SourceLoc());
    ASSERT_EQ(R.size(), 1u);
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 42);
  }
  // A scripted call goes through the same invocation path, one level down.
  E.runScript("r = addone(7);");
  ASSERT_NE(E.workspaceVar("r"), nullptr);
  EXPECT_DOUBLE_EQ(E.workspaceVar("r")->scalarValue(), 8);

  obs::FunctionProfile F = E.profile("addone");
  EXPECT_EQ(F.Invocations, 4u);
  // Only the three top-level calls are VM-timed; the script's callee runs
  // at depth 2 and charges its time to the script.
  EXPECT_EQ(F.VmRuns, 3u);
  EXPECT_GE(F.Compiles, 1u);
  EXPECT_GE(F.CompileSeconds, 0.0);
  EXPECT_EQ(F.Deopts, 0u);
  uint64_t SigSum = 0;
  for (const auto &Sig : F.ArgSignatures)
    SigSum += Sig.second;
  EXPECT_EQ(SigSum, F.Invocations);
  ASSERT_FALSE(F.ArgSignatures.empty());

  // profiles() includes the function.
  bool Found = false;
  for (const obs::FunctionProfile &P : E.profiles())
    Found |= P.Name == "addone";
  EXPECT_TRUE(Found);
}

TEST(EngineObs, InterpretOnlyProfileAndFallbackCounter) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  ASSERT_TRUE(E.addSource("addone", kAddOne));
  auto R = E.callFunction("addone", {intArg(1)}, 1, SourceLoc());
  ASSERT_EQ(R.size(), 1u);

  obs::FunctionProfile F = E.profile("addone");
  EXPECT_EQ(F.Invocations, 1u);
  EXPECT_EQ(F.InterpRuns, 1u);
  EXPECT_EQ(F.VmRuns, 0u);
  EXPECT_EQ(F.Compiles, 0u);
  ASSERT_EQ(F.ArgSignatures.size(), 1u);
  EXPECT_EQ(F.ArgSignatures[0].first, "(untyped)");

  // The registry reads the same counter the legacy accessor does (the
  // InterpretOnly policy itself is not a "fallback"; the counter tracks
  // invocations that wanted compiled code and could not get it).
  obs::MetricsSnapshot S = E.sampleMetrics();
  EXPECT_EQ(counterOf(S, "engine.interp_fallbacks"),
            E.interpreterFallbacks());
}

//===----------------------------------------------------------------------===//
// Profile counts past the signature cap. Recursion passes constants, so
// every distinct argument value is a signature and fibonacci/ackermann
// overflow the 16-entry tables at once. The engine renders a signature
// past its cap only when the profile could credit the call to an entry of
// its own; the expected tables were recorded from the engine that rendered
// every such call, and must not move.
//===----------------------------------------------------------------------===//

using SigCounts = std::vector<std::pair<std::string, uint64_t>>;

std::string mlibSource(const std::string &Name) {
  std::ifstream In(mlibDirectory() + "/" + Name + ".m");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

EngineOptions profileOpts(const std::string &Dir = "") {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  O.EnvFallbacks = false;
  O.RepoDir = Dir;
  return O;
}

ValuePtr realArg(double V) { return makeValue(Value::scalar(V)); }

uint64_t countOfSig(const obs::FunctionProfile &P, const std::string &Sig) {
  for (const auto &[S, C] : P.ArgSignatures)
    if (S == Sig)
      return C;
  return 0;
}

TEST(EngineObs, RecursiveProfilesPastSignatureCapMatchRenderedCounts) {
  Engine E(profileOpts());
  ASSERT_TRUE(E.addSource("fibonacci", mlibSource("fibonacci")));
  ASSERT_TRUE(E.addSource("ackermann", mlibSource("ackermann")));
  EXPECT_DOUBLE_EQ(
      E.callFunction("fibonacci", {realArg(20)}, 1, SourceLoc())[0]
          ->scalarValue(),
      6765);
  EXPECT_DOUBLE_EQ(E.callFunction("ackermann", {realArg(2), realArg(10)}, 1,
                                  SourceLoc())[0]
                       ->scalarValue(),
                   23);

  obs::FunctionProfile Fib = E.profile("fibonacci");
  EXPECT_EQ(Fib.Invocations, 5057u);
  EXPECT_EQ(Fib.OtherSignatures, 10u);
  EXPECT_EQ(Fib.ArgSignatures,
            (SigCounts{{"(real [1x1,1x1] <1,1>)", 1352},
                       {"(real [1x1,1x1] <2,2>)", 1044},
                       {"(real [1x1,1x1] <3,3>)", 808},
                       {"(real [1x1,1x1] <0,0>)", 785},
                       {"(real [1x1,1x1] <4,4>)", 497},
                       {"(real [1x1,1x1] <5,5>)", 228},
                       {"(real [1x1,1x1] <6,6>)", 94},
                       {"(real [1x1,1x1] <8,8>)", 71},
                       {"(real [1x1,1x1] <7,7>)", 68},
                       {"(real [1x1,1x1] <9,9>)", 56},
                       {"(real [1x1,1x1] <10,10>)", 28},
                       {"(real [1x1,1x1] <11,11>)", 8},
                       {"(real [1x1,1x1] <15,15>)", 4},
                       {"(real [1x1,1x1] <12,12>)", 2},
                       {"(real [1x1,1x1] <16,16>)", 1},
                       {"(real [1x1,1x1] <20,20>)", 1}}));

  obs::FunctionProfile Ack = E.profile("ackermann");
  EXPECT_EQ(Ack.Invocations, 69u);
  EXPECT_EQ(Ack.OtherSignatures, 36u);
  EXPECT_EQ(
      Ack.ArgSignatures,
      (SigCounts{{"(real [1x1,1x1] <0,0>, int [1x1,1x1] <2,2>)", 3},
                 {"(real [1x1,1x1] <0,0>, int [1x1,1x1] <3,3>)", 3},
                 {"(real [1x1,1x1] <0,0>, int [1x1,1x1] <4,4>)", 3},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <1,1>)", 3},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <2,2>)", 3},
                 {"(real [1x1,1x1] <0,0>, int [1x1,1x1] <1,1>)", 2},
                 {"(real [1x1,1x1] <0,0>, real [1x1,1x1] <5,5>)", 2},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <0,0>)", 2},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <3,3>)", 2},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <4,4>)", 2},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <7,7>)", 2},
                 {"(real [1x1,1x1] <1,1>, real [1x1,1x1] <8,8>)", 2},
                 {"(real [1x1,1x1] <1,1>, int [1x1,1x1] <0,0>)", 1},
                 {"(real [1x1,1x1] <2,2>, real [1x1,1x1] <10,10>)", 1},
                 {"(real [1x1,1x1] <2,2>, real [1x1,1x1] <2,2>)", 1},
                 {"(real [1x1,1x1] <2,2>, real [1x1,1x1] <6,6>)", 1}}));
}

// A signature the profile took in before a reload, seen again only after
// the reloaded function's own table overflowed, keeps its entry.
TEST(EngineObs, SignatureFromBeforeReloadCreditedPastCap) {
  Engine E(profileOpts());
  ASSERT_TRUE(E.addSource("fibonacci", mlibSource("fibonacci")));
  E.callFunction("fibonacci", {realArg(-3)}, 1, SourceLoc());
  ASSERT_TRUE(E.addSource("fibonacci", mlibSource("fibonacci")));
  E.callFunction("fibonacci", {realArg(20)}, 1, SourceLoc());
  E.callFunction("fibonacci", {realArg(-3)}, 1, SourceLoc());

  obs::FunctionProfile Fib = E.profile("fibonacci");
  EXPECT_EQ(Fib.Invocations, 5059u);
  EXPECT_EQ(Fib.OtherSignatures, 14u);
  EXPECT_EQ(Fib.ArgSignatures.size(), 16u);
  EXPECT_EQ(countOfSig(Fib, "(real [1x1,1x1] <-3,-3>)"), 2u);
}

// A signature merged from profiles.mjp that the session first calls after
// its own table overflowed is credited to the persisted entry, not to the
// overflow bucket. Its arity differs from the source's, so it never seeds
// the engine-side table: only the profile holds it.
TEST(EngineObs, PersistedSignatureCreditedPastCap) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::temp_directory_path() / "majic_obs_persisted_sig";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  const std::string OneArg = "(real [1x1,1x1] <1,1>)";
  {
    Engine E(profileOpts(Dir.string()));
    ASSERT_TRUE(E.addSource("ackermann", mlibSource("ackermann")));
    EXPECT_THROW(E.callFunction("ackermann", {realArg(1)}, 1, SourceLoc()),
                 MatlabError);
    E.callFunction("ackermann", {realArg(1), realArg(1)}, 1, SourceLoc());
  }
  {
    Engine E(profileOpts(Dir.string()));
    ASSERT_TRUE(E.addSource("ackermann", mlibSource("ackermann")));
    EXPECT_EQ(countOfSig(E.profile("ackermann"), OneArg), 1u);
    E.callFunction("ackermann", {realArg(2), realArg(10)}, 1, SourceLoc());
    EXPECT_THROW(E.callFunction("ackermann", {realArg(1)}, 1, SourceLoc()),
                 MatlabError);

    obs::FunctionProfile Ack = E.profile("ackermann");
    EXPECT_EQ(Ack.Invocations, 72u);
    EXPECT_EQ(Ack.OtherSignatures, 38u);
    EXPECT_EQ(Ack.ArgSignatures.size(), 16u);
    EXPECT_EQ(countOfSig(Ack, OneArg), 2u);
    EXPECT_EQ(countOfSig(Ack, "(real [1x1,1x1] <1,1>, real [1x1,1x1] <1,1>)"),
              4u);
  }
  fs::remove_all(Dir);
}

TEST(EngineObs, SnapshotMatchesAccessorsAndCoversSubsystems) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("addone", kAddOne));
  E.speculateAsync("addone");
  E.drainCompiles();
  for (int I = 0; I != 3; ++I)
    E.callFunction("addone", {intArg(I)}, 1, SourceLoc());

  obs::MetricsSnapshot S = E.sampleMetrics();
  // Migrated counters read the same through the registry and the legacy
  // accessors.
  EXPECT_EQ(counterOf(S, "repo.lookup.hits"), E.repository().lookupHits());
  EXPECT_EQ(counterOf(S, "engine.jit_compiles"), E.jitCompiles());
  EXPECT_EQ(counterOf(S, "spec.queued"), E.speculationStats().Queued);
  EXPECT_GE(counterOf(S, "spec.queued"), 1u);
  EXPECT_GE(counterOf(S, "repo.lookup.hits"), 1u);
  // The speculation pool's instruments saw the background compile. The
  // worker bumps "finished" just after the task body signals
  // drainCompiles, so give that last store a moment to land.
  EXPECT_GE(counterOf(S, "pool.spec.enqueued"), 1u);
  for (int Spin = 0; Spin != 2000; ++Spin) {
    S = E.sampleMetrics();
    if (counterOf(S, "pool.spec.finished") ==
        counterOf(S, "pool.spec.enqueued"))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counterOf(S, "pool.spec.enqueued"),
            counterOf(S, "pool.spec.finished"));
  // Sampled gauges cover the compute pool, store and quarantine.
  EXPECT_TRUE(hasGauge(S, "pool.compute.threads"));
  EXPECT_TRUE(hasGauge(S, "engine.quarantined"));
  EXPECT_TRUE(hasGauge(S, "repo.objects"));
  // Compile-phase histograms populated by the compile.
  bool SawCompileHist = false;
  for (const obs::HistogramSnapshot &H : S.Histograms)
    if (H.Name == "compile.seconds") {
      SawCompileHist = true;
      EXPECT_GE(H.Count, 1u);
    }
  EXPECT_TRUE(SawCompileHist);

  // Both renderings include the per-function profiles and stay parseable.
  std::string Report = E.statsReport();
  EXPECT_NE(Report.find("addone"), std::string::npos);
  EXPECT_NE(Report.find("compile.seconds"), std::string::npos);
  std::string J = E.metricsJson();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"profiles\""), std::string::npos);
  EXPECT_NE(J.find("spec.queued"), std::string::npos);
}

// Every tier times its top-level runs into "<tier>.run.seconds".
TEST(EngineObs, EachTierRecordsItsRunHistogram) {
  auto CountOf = [](const obs::MetricsSnapshot &S, const std::string &Name) {
    for (const obs::HistogramSnapshot &H : S.Histograms)
      if (H.Name == Name)
        return H.Count;
    return uint64_t(0);
  };
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  O.EnvFallbacks = false;
#ifndef __SANITIZE_THREAD__
  // Generated modules are uninstrumented; TSan refuses to load them.
  O.NativeTier = true;
  O.NativeHotThreshold = 2;
#endif
  Engine E(O);
  ASSERT_TRUE(E.addSource("addone", kAddOne));
  for (int I = 0; I != 3; ++I)
    E.callFunction("addone", {intArg(I)}, 1, SourceLoc());
  obs::MetricsSnapshot S = E.sampleMetrics();
  // The first two calls run on the VM. The second one reaches the hotness
  // threshold and, with no pool, builds the native module on the spot.
  uint64_t Native = E.nativeHits();
  EXPECT_EQ(CountOf(S, "vm.run.seconds") + Native, 3u);
  EXPECT_EQ(CountOf(S, "native.run.seconds"), Native);
  if (E.nativeTierAvailable()) {
    EXPECT_EQ(Native, 2u);
  }
}

TEST(EngineObs, DumpsTraceAndMetricsAtDestruction) {
  namespace fs = std::filesystem;
  TraceSandbox Sandbox;
  const fs::path Dir = fs::temp_directory_path() / "majic_obs_test";
  fs::create_directories(Dir);
  const fs::path TracePath = Dir / "trace.json";
  const fs::path MetricsPath = Dir / "metrics.json";
  fs::remove(TracePath);
  fs::remove(MetricsPath);

  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.TracePath = TracePath.string();
    O.MetricsPath = MetricsPath.string();
    Engine E(O);
    EXPECT_TRUE(obs::traceEnabled());
    ASSERT_TRUE(E.addSource("addone", kAddOne));
    E.callFunction("addone", {intArg(1)}, 1, SourceLoc());
    E.runScript("s = addone(2);");
  }
  obs::setTraceEnabled(false);

  ASSERT_TRUE(fs::exists(TracePath));
  ASSERT_TRUE(fs::exists(MetricsPath));
  std::stringstream TraceBuf, MetricsBuf;
  TraceBuf << std::ifstream(TracePath).rdbuf();
  MetricsBuf << std::ifstream(MetricsPath).rdbuf();
  std::string Trace = TraceBuf.str();
  std::string Metrics = MetricsBuf.str();

  EXPECT_TRUE(jsonValid(Trace)) << Trace.substr(0, 400);
  EXPECT_TRUE(jsonValid(Metrics)) << Metrics.substr(0, 400);
  // The session timeline covers every compile phase plus execution.
  for (const char *Name :
       {"parse", "infer", "codegen", "regalloc", "compile", "vm.run",
        "script", "addSource"})
    EXPECT_NE(Trace.find("\"name\": \"" + std::string(Name) + "\""),
              std::string::npos)
        << "missing span: " << Name;
  // The metrics dump carries the registry and the profiles.
  EXPECT_NE(Metrics.find("\"metrics\""), std::string::npos);
  EXPECT_NE(Metrics.find("\"profiles\""), std::string::npos);
  EXPECT_NE(Metrics.find("compile.seconds"), std::string::npos);
  EXPECT_NE(Metrics.find("addone"), std::string::npos);

  fs::remove_all(Dir);
}

} // namespace
