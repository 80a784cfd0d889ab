//===- perfbench/ServiceMix.cpp - The service probe ----------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer's per-layer numbers, taken in a traced first_contact
/// run. One SessionManager serves more sessions than its live cap, so idle
/// sessions hibernate to .mjws snapshots and resurrect on their next
/// request. An open loop on the main thread sends a seeded mix of function
/// definitions and calls at a fixed rate; every request is timed from the
/// moment it was due to its reply. Each session's replies are compared with
/// an uncapped, never-hibernating reference run of the same requests.
///
/// Request latencies moved by 15-35% between runs of one build (queueing
/// on worker threads of a shared machine, whose speed the generator thread
/// cannot measure), beyond any bound the benchmark may set, so the loop is
/// a per-layer probe rather than a workload with end-to-end metrics.
///
/// Threads: Workers (2) + SpecThreads (1) + the generator = 4.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "service/SessionManager.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <future>
#include <random>
#include <thread>

using namespace majic;
using namespace majic::perf;

namespace {

/// Sessions and live cap. kResident sessions take the traffic in rounds and
/// stay live; the two roaming sessions share the one remaining slot, so
/// each roaming request hibernates the other roaming session and
/// resurrects its own - one request in kRoamEvery rounds. Hibernation
/// writes a snapshot with fsync on the submitting thread, and a shared
/// virtual disk's fsync latency varied 2x from one run to the next: when
/// most requests hibernated someone, that noise set every latency. Now it
/// sets only the resurrect and hibernate tails, measured per layer.
constexpr unsigned kResident = 5;
constexpr unsigned kSessions = kResident + 2;
constexpr unsigned kLiveCap = kResident + 1;
constexpr size_t kRoamEvery = 10;
constexpr unsigned kWorkers = 2;
constexpr unsigned kSpecThreads = 1;
constexpr unsigned kProgramsPerSession = 3;
/// Requests per second: well below what two workers serve, so the queue
/// stays short and latency measures service, not backlog.
constexpr double kRate = 100;
/// Length of the open loop.
constexpr double kProbeSeconds = 4;
/// Every kRedefineEvery-th call request of a session redefines a function
/// instead (the same text again: a SharedCodeCache hit for the recompile
/// it triggers).
constexpr size_t kRedefineEvery = 7;

struct Request {
  unsigned Session = 0;
  int Program = -1; ///< the program a call request calls; -1 = definition
  std::string Text;
};

std::string callText(const Program &P) {
  std::string T = "r = " + P.Hot.Name + "(";
  for (size_t I = 0; I != P.Hot.Args.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%s%.15g", I ? ", " : "", P.Hot.Args[I]);
    T += Buf;
  }
  return T + ")";
}

/// The seeded request sequence: kRate * Seconds requests, sent to the
/// resident sessions in rounds of a seeded shuffled order, each taking its
/// session's next request; after every kRoamEvery-th round, one request
/// goes to the roaming sessions in turn. A session first defines its
/// programs, then calls them in turn, every kRedefineEvery-th call a
/// redefinition. The eligible programs are dealt to the resident
/// sessions' slots from a seeded shuffle, each program to one slot, so
/// every seed sends the same mix of programs and request kinds; the seed
/// decides which programs share a session and the order of requests.
std::vector<Request> planRequests(uint64_t Seed, double Seconds) {
  const std::vector<Program> &Ps = programs();
  std::mt19937_64 Rng(Seed);
  struct Stream {
    std::vector<int> Progs;
    size_t Sent = 0;
  };
  // A session's PRNG state is not part of its hibernation snapshot, so a
  // rand-using program in a session that hibernated draws other numbers
  // than in the never-hibernated reference. mei and fractal stay out.
  std::vector<int> Eligible;
  for (size_t I = 0; I != Ps.size(); ++I)
    if (Ps[I].Hot.Name != "mei" && Ps[I].Hot.Name != "fractal")
      Eligible.push_back(int(I));
  std::shuffle(Eligible.begin(), Eligible.end(), Rng);
  std::vector<Stream> Streams(kSessions);
  for (unsigned Slot = 0; Slot != kSessions * kProgramsPerSession; ++Slot)
    Streams[Slot / kProgramsPerSession].Progs.push_back(
        Eligible[Slot % Eligible.size()]);
  RoundPlan Order(Rng(), kResident);
  std::vector<Request> Out;
  auto N = size_t(kRate * Seconds);
  size_t Roams = 0;
  for (size_t K = 0; K != N; ++K) {
    Request R;
    const size_t Round = kResident * kRoamEvery + 1;
    R.Session = K % Round == Round - 1 ? kResident + unsigned(Roams++ % 2)
                                       : unsigned(Order.next());
    Stream &S = Streams[R.Session];
    size_t Nth = S.Sent++;
    bool Define = Nth < S.Progs.size();
    int P = S.Progs[Nth % S.Progs.size()];
    if (!Define)
      Define = (Nth - S.Progs.size()) % kRedefineEvery == kRedefineEvery - 1;
    if (Define) {
      R.Text = readSource(Ps[P].Hot.Name);
    } else {
      R.Program = P;
      R.Text = callText(Ps[P]);
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

ServiceOptions serviceOptions(unsigned LiveCap, const std::string &SessionDir,
                              size_t Requests) {
  ServiceOptions O;
  O.MaxSessions = LiveCap;
  O.Workers = kWorkers;
  O.SpecThreads = kSpecThreads;
  O.MaxQueuedRequests = unsigned(Requests + 16);
  O.MaxQueuedPerSession = unsigned(Requests + 16);
  O.SessionDir = SessionDir;
  O.Session.Policy = CompilePolicy::Jit;
  return O;
}

/// The roaming sessions are created first, so the first to hibernate (to
/// make room for the last one created) is a roaming one.
std::vector<SessionId> createSessions(SessionManager &M) {
  std::vector<SessionId> Ids(kSessions);
  for (unsigned K = 0; K != kSessions; ++K)
    Ids[(K + kResident) % kSessions] = M.createSession();
  return Ids;
}

/// The reference: every live session resident (cap = session count, no
/// hibernation), each request answered before the next is sent.
std::vector<Reply> referenceReplies(const std::vector<Request> &Plan) {
  SessionManager M(serviceOptions(kSessions, "", Plan.size()));
  std::vector<SessionId> Ids = createSessions(M);
  std::vector<Reply> Out;
  for (const Request &R : Plan)
    Out.push_back(M.submit(Ids[R.Session], R.Text).get());
  M.shutdown();
  return Out;
}

/// Percentile estimate from a log2-bucket histogram, interpolating
/// linearly inside the bucket (the service exposes only the histogram).
double histPercentileMs(const obs::MetricsSnapshot &S, const std::string &Name,
                        double P) {
  const obs::HistogramSnapshot *H = histOf(S, Name);
  if (!H || !H->Count)
    return 0;
  double Rank = P / 100.0 * double(H->Count);
  uint64_t Seen = 0;
  for (unsigned I = 0; I != obs::Histogram::kNumBuckets; ++I) {
    if (!H->Buckets[I] || double(Seen + H->Buckets[I]) < Rank) {
      Seen += H->Buckets[I];
      continue;
    }
    double Lo = double(obs::Histogram::bucketFloorUs(I));
    double Hi = I + 1 < obs::Histogram::kNumBuckets
                    ? double(obs::Histogram::bucketFloorUs(I + 1))
                    : Lo * 2;
    double Frac = (Rank - double(Seen)) / double(H->Buckets[I]);
    return (Lo + (Hi - Lo) * Frac) / 1e3;
  }
  return 0;
}

/// SnapshotStore::save/load of a workspace like the sessions hold.
void snapshotProbe(Result &R, const std::vector<Request> &Plan,
                   const std::string &Dir) {
  constexpr int kReps = 50;
  EngineOptions O;
  O.BackgroundCompileThreads = 0;
  O.EnvFallbacks = false;
  Engine E(O);
  E.context().setSink([](const std::string &) {});
  for (const Request &Q : Plan)
    if (Q.Session == 0)
      E.runScript(Q.Text);
  ser::WorkspaceImage Img = E.workspaceImage();
  freshDir(Dir);
  SnapshotStore Store(Dir);
  double T0 = now();
  {
    obs::TraceScope S("SnapshotStore::save", "service");
    for (int I = 0; I != kReps; ++I)
      Store.save(1, Img);
  }
  R.layer("service.snapshot_save_ms", (now() - T0) * 1e3 / kReps, "ms");
  T0 = now();
  {
    obs::TraceScope S("SnapshotStore::load", "service");
    for (int I = 0; I != kReps; ++I) {
      ser::WorkspaceImage Back;
      if (Store.load(1, Back) != SnapshotStore::LoadStatus::Ok)
        ++R.Failed;
    }
  }
  R.layer("service.snapshot_load_ms", (now() - T0) * 1e3 / kReps, "ms");
}

} // namespace

void perf::serviceProbe(Result &R, const Options &O) {
  const std::string SessionDir = O.WorkDir + "/sessions";
  const std::vector<Request> Plan = planRequests(O.Seed, kProbeSeconds);
  const std::vector<Reply> Ref = referenceReplies(Plan);
  freshDir(SessionDir);
  SessionManager M(serviceOptions(kLiveCap, SessionDir, Plan.size()));
  const std::vector<SessionId> Ids = createSessions(M);

  // The open loop. Request K is due at Start + K / kRate; the generator
  // submits it then (or as soon as the previous submit returns - admission
  // of a hibernated session's request resurrects it on this thread), and
  // polls outstanding futures in between.
  const size_t N = Plan.size();
  std::vector<std::future<Reply>> Futures(N);
  std::vector<Reply> Replies(N);
  std::vector<double> Due(N), Done(N, -1);
  std::vector<size_t> Pending;
  Samples Lag, SubmitCost;
  const double Start = now() + 0.01;
  for (size_t K = 0; K != N; ++K)
    Due[K] = Start + double(K) / kRate;
  size_t Next = 0;
  const double Deadline = Start + kProbeSeconds * 3 + 30;
  while ((Next < N || !Pending.empty()) && now() < Deadline) {
    double T = now();
    if (Next < N && T >= Due[Next]) {
      Lag.add(T - Due[Next]);
      Futures[Next] = M.submit(Ids[Plan[Next].Session], Plan[Next].Text);
      SubmitCost.add(now() - T);
      Pending.push_back(Next++);
      continue;
    }
    bool Progress = false;
    for (size_t J = 0; J != Pending.size();) {
      size_t K = Pending[J];
      if (Futures[K].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Done[K] = now();
        Replies[K] = Futures[K].get();
        Pending[J] = Pending.back();
        Pending.pop_back();
        Progress = true;
      } else {
        ++J;
      }
    }
    // Idle: sleep rather than spin, so the generator does not steal a
    // core from the workers.
    if (!Progress)
      std::this_thread::sleep_for(std::chrono::microseconds(20));
  }

  const std::vector<Program> &Ps = programs();
  Samples Latency;
  uint64_t Rejected = 0;
  for (size_t K = 0; K != N; ++K) {
    ++R.Attempted;
    if (Done[K] < 0) {
      ++R.Failed; // never answered
      continue;
    }
    const Reply &Got = Replies[K];
    if (Got.St == Reply::Status::RejectedOverloaded)
      ++Rejected;
    if (Got.St != Reply::Status::Ok) {
      ++R.Failed;
      continue;
    }
    if (Got.Output != Ref[K].Output || Ref[K].St != Reply::Status::Ok) {
      ++R.Failed;
      ++R.Mismatched;
      ++R.MismatchesBy["service." + (Plan[K].Program >= 0
                                         ? Ps[size_t(Plan[K].Program)].Hot.Name
                                         : std::string("definition"))];
      continue;
    }
    Latency.add(Done[K] - Due[K]);
  }

  obs::MetricsSnapshot Snap = M.sampleMetrics();
  Tail LatencyTail = Latency.tail();
  R.Layers["service.request_p50_ms"] =
      Metric{Latency.median() * 1e3, "ms", Latency.size(), 50};
  R.Layers["service.request_tail_ms"] =
      Metric{LatencyTail.Value * 1e3, "ms", Latency.size(), LatencyTail.Pct};
  R.layer("bench.generator_lag_ms", Lag.tail().Value * 1e3, "ms");
  R.layer("service.submit_ms", SubmitCost.mean() * 1e3, "ms");
  R.layer("service.rejected", double(Rejected), "count");
  R.layer("service.queue_ms_p50",
          histPercentileMs(Snap, "service.request.queue_seconds", 50), "ms");
  R.layer("service.queue_ms_tail",
          histPercentileMs(Snap, "service.request.queue_seconds", 99), "ms");
  R.layer("service.run_ms_p50",
          histPercentileMs(Snap, "service.request.seconds", 50), "ms");
  R.layer("service.hibernate_ms_tail",
          histPercentileMs(Snap, "service.hibernate.seconds", 99), "ms");
  R.layer("service.resurrect_ms_tail",
          histPercentileMs(Snap, "service.resurrect.seconds", 99), "ms");
  uint64_t Hits = M.sharedCache().hits(), Misses = M.sharedCache().misses();
  R.layer("repo.shared_hit_ratio",
          Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  snapshotProbe(R, Plan, O.WorkDir + "/snapshot_probe");
  M.shutdown();
}

void perf::serviceConfig(Result &R) {
  R.Config["service.sessions"] = std::to_string(kSessions);
  R.Config["service.live_cap"] = std::to_string(kLiveCap);
  R.Config["service.roam_every_rounds"] = std::to_string(kRoamEvery);
  R.Config["service.workers"] = std::to_string(kWorkers);
  R.Config["service.spec_threads"] = std::to_string(kSpecThreads);
  R.Config["service.rate_per_s"] = std::to_string(kRate);
  R.Config["service.seconds"] = std::to_string(kProbeSeconds);
  R.Config["service.loop"] = "open";
}
