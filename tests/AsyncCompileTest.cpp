//===- tests/AsyncCompileTest.cpp - Background speculative compilation ----------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The asynchronous speculation subsystem (ISSUE 1): the worker pool, the
// thread-safe repository under concurrent lookup/insert, publication
// ordering against invalidation, and drain determinism. Run this suite
// under -DMAJIC_SANITIZE=thread to certify the concurrent paths.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace majic;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.size(), 3u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.enqueue([&Count] { Count.fetch_add(1); });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, DestructorFinishesQueuedWork) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 50; ++I)
      Pool.enqueue([&Count] { Count.fetch_add(1); });
  } // ~ThreadPool drains the queue before joining
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool Pool(2);
  Pool.waitIdle(); // must not hang
}

TEST(ThreadPool, ZeroRequestedThreadsStillWorks) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
  std::atomic<bool> Ran{false};
  Pool.enqueue([&Ran] { Ran.store(true); });
  Pool.waitIdle();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPool, PromoteMovesQueuedTaskToFront) {
  ThreadPool Pool(1);
  Pool.setPaused(true); // build a backlog no worker can touch yet
  std::mutex M;
  std::vector<char> Order;
  auto Record = [&](char C) {
    return [&Order, &M, C] {
      std::lock_guard<std::mutex> Lock(M);
      Order.push_back(C);
    };
  };
  Pool.enqueue(Record('A'));
  Pool.enqueue(Record('B'));
  ThreadPool::TaskId IdC = Pool.enqueue(Record('C'));
  EXPECT_TRUE(Pool.promote(IdC));
  Pool.setPaused(false);
  Pool.waitIdle();
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], 'C'); // promoted ahead of the FIFO backlog
  EXPECT_EQ(Order[1], 'A');
  EXPECT_EQ(Order[2], 'B');
}

TEST(ThreadPool, PromoteAfterCompletionReturnsFalse) {
  ThreadPool Pool(1);
  ThreadPool::TaskId Id = Pool.enqueue([] {});
  Pool.waitIdle();
  EXPECT_FALSE(Pool.promote(Id)); // already ran: nothing left to move
  EXPECT_FALSE(Pool.promote(Id + 1000)); // never existed
}

//===----------------------------------------------------------------------===//
// Repository under concurrency
//===----------------------------------------------------------------------===//

CompiledObject makeObj(const std::string &Name, TypeSignature Sig) {
  CompiledObject Obj;
  Obj.FunctionName = Name;
  Obj.Sig = std::move(Sig);
  Obj.Code = std::make_shared<IRFunction>();
  return Obj;
}

TEST(RepositoryConcurrency, ConcurrentLookupInsertInvalidate) {
  Repository R;
  constexpr int kWriters = 3, kReaders = 3, kRounds = 400;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;

  for (int W = 0; W != kWriters; ++W)
    Threads.emplace_back([&R, &Go, W] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I != kRounds; ++I) {
        // Alternate fresh signatures (vector growth), replacements of a
        // fixed signature, and whole-function invalidation.
        R.insert(makeObj("f", TypeSignature({Type::constant(I % 17)})));
        R.insert(makeObj("f", TypeSignature::generic(1)));
        if (I % 50 == 49 && W == 0)
          R.invalidate("f");
        R.insert(makeObj("g" + std::to_string(W), TypeSignature::generic(1)));
      }
    });

  std::atomic<uint64_t> SeenHits{0};
  for (int Rd = 0; Rd != kReaders; ++Rd)
    Threads.emplace_back([&R, &Go, &SeenHits] {
      while (!Go.load())
        std::this_thread::yield();
      TypeSignature Call({Type::ofValue(Value::intScalar(3))});
      for (int I = 0; I != kRounds; ++I) {
        CompiledObjectPtr Hit = R.lookup("f", Call);
        if (Hit) {
          // The handle stays valid regardless of concurrent replacement.
          EXPECT_NE(Hit->Code, nullptr);
          SeenHits.fetch_add(1);
        }
        (void)R.versions("f");
        (void)R.totalObjects();
      }
    });

  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  // Counter bookkeeping is consistent: every reader round either hit or
  // missed, and the split miss kinds sum to the combined counter.
  EXPECT_EQ(R.lookupHits(), SeenHits.load());
  EXPECT_EQ(R.lookupMisses() + R.lookupHits(),
            static_cast<uint64_t>(kReaders) * kRounds);
  EXPECT_EQ(R.lookupMisses(),
            R.lookupMissesNoFunction() + R.lookupMissesNoSafeVersion());
}

//===----------------------------------------------------------------------===//
// Engine background speculation
//===----------------------------------------------------------------------===//

const char *kCountdownV1 = "function s = countdown(n)\ns = 0;\n"
                           "for k = 1:n\ns = s + k;\nend\n";
const char *kCountdownV2 = "function s = countdown(n)\ns = 0;\n"
                           "for k = 1:n\ns = s + 2 * k;\nend\n";

TEST(EngineAsync, SpeculateAsyncPublishesAfterDrain) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 2;
  Engine E(O);
  ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
  ASSERT_TRUE(E.speculateAsync("countdown"));
  E.drainCompiles();

  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Queued, 1u);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.Dropped, 0u);
  ASSERT_EQ(E.repository().versionCount("countdown"), 1u);
  EXPECT_EQ(E.repository().versions("countdown").front()->From,
            CompiledObject::Origin::Speculative);

  // The published object serves the matching invocation: no JIT compile.
  auto R = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                          SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 55);
  EXPECT_EQ(E.jitCompiles(), 0u);
}

TEST(EngineAsync, InFlightRequestsAreDeduplicated) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
  unsigned Queued = 0;
  for (int I = 0; I != 8; ++I)
    Queued += E.speculateAsync("countdown") ? 1 : 0;
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  // At least the first request queued; every request that found the same
  // signature still in flight was deduplicated, and the bookkeeping adds
  // up exactly.
  EXPECT_GE(Queued, 1u);
  EXPECT_EQ(S.Queued, Queued);
  EXPECT_EQ(S.Queued + S.DedupedRequests, 8u);
  EXPECT_EQ(S.Completed, S.Queued);
}

TEST(EngineAsync, InvalidationDropsInFlightResults) {
  // Reloading a function while its speculative compile is in flight must
  // never publish the stale object: after the drain, the invocation sees
  // only code compiled from the new source. Repeat to give the race a
  // chance to bite under TSan.
  for (int Round = 0; Round != 25; ++Round) {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = 2;
    Engine E(O);
    ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
    E.speculateAsync("countdown");
    // Immediately shadow with v2 (sum of 2k, not k): bumps the source
    // generation and invalidates published v1 code.
    ASSERT_TRUE(E.addSource("countdown", kCountdownV2));
    E.drainCompiles();

    auto R = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                            SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), 110) << "round " << Round;
    for (const CompiledObjectPtr &Obj : E.repository().versions("countdown"))
      EXPECT_NE(Obj->Code, nullptr);
  }
}

TEST(EngineAsync, DrainedResultsMatchSynchronousSpeculation) {
  // With a fixed seed, background speculation + drain produces the
  // same numeric results as the synchronous pre-async path.
  const char *Source = "function y = noisy(n)\ny = 0;\n"
                       "for k = 1:n\ny = y + rand() * k;\nend\n";
  auto Run = [&](unsigned Threads) {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = Threads;
    Engine E(O);
    E.context().Rand.reseed(0xfeedbeef);
    EXPECT_TRUE(E.addSource("noisy", Source));
    if (Threads > 0) {
      EXPECT_TRUE(E.speculateAsync("noisy"));
      E.drainCompiles();
    } else {
      EXPECT_TRUE(E.precompileSpeculative("noisy"));
    }
    auto R = E.callFunction("noisy", {makeValue(Value::intScalar(50))}, 1,
                            SourceLoc());
    EXPECT_EQ(E.jitCompiles(), 0u); // speculation hit in both modes
    return R[0]->scalarValue();
  };
  double Sync = Run(0);
  double Async = Run(2);
  EXPECT_DOUBLE_EQ(Sync, Async);
}

TEST(EngineAsync, FirstCallDuringCompileInterpretsAndLaterCallsHit) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
  E.speculateAsync("countdown");
  // Whether or not the worker finished yet, the result is correct and no
  // JIT compile is wasted while the speculative compile is in flight.
  auto R1 = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                           SourceLoc());
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), 55);
  EXPECT_EQ(E.jitCompiles(), 0u);
  E.drainCompiles();
  auto R2 = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                           SourceLoc());
  EXPECT_DOUBLE_EQ(R2[0]->scalarValue(), 55);
  EXPECT_EQ(E.jitCompiles(), 0u);
  // The published object (not a JIT one) now serves calls.
  ASSERT_EQ(E.repository().versionCount("countdown"), 1u);
  EXPECT_EQ(E.repository().versions("countdown").front()->From,
            CompiledObject::Origin::Speculative);
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_GE(S.TimeToFirstResultSeconds, 0.0);
}

TEST(EngineAsync, InvocationPromotesQueuedSpeculation) {
  // A call that misses on a function whose speculative compile is still
  // queued is the strongest priority signal there is: the entry jumps to
  // the front of the queue instead of waiting out the FIFO backlog.
  const char *Fns[] = {"aaa", "bbb", "ccc"};
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  for (const char *Name : Fns)
    ASSERT_TRUE(E.addSource(
        Name, "function y = " + std::string(Name) + "(x)\ny = x + 1;\n"));

  E.pauseBackgroundCompiles(); // freeze the worker so the queue is stable
  for (const char *Name : Fns)
    ASSERT_TRUE(E.speculateAsync(Name));
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"aaa", "bbb", "ccc"}));

  // Explicit promotion moves ccc to the front...
  EXPECT_TRUE(E.promoteSpeculation("ccc"));
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"ccc", "aaa", "bbb"}));
  // ...and an actual invocation of bbb promotes it implicitly (the call
  // itself interprets, since the compile hasn't finished).
  auto R =
      E.callFunction("bbb", {makeValue(Value::intScalar(4))}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5);
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"bbb", "ccc", "aaa"}));

  // Promotion of functions that are not queued reports false.
  EXPECT_FALSE(E.promoteSpeculation("nope"));

  E.resumeBackgroundCompiles();
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Completed, 3u);
  EXPECT_EQ(S.Promoted, 2u);
  EXPECT_TRUE(E.queuedSpeculations().empty());
  // Once drained nothing is queued, so promotion is a no-op again.
  EXPECT_FALSE(E.promoteSpeculation("ccc"));
}

TEST(EngineAsync, SnoopOrdersNeverRunBySourceRecency) {
  // Never-run functions tie at zero invocations, so the ranked queue falls
  // back to source recency: the file the user saved last speculates first.
  namespace fs = std::filesystem;
  std::string Dir = ::testing::TempDir() + "/majic_async_rank_mtime";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  auto Now = fs::file_time_type::clock::now();
  const struct {
    const char *Name;
    std::chrono::hours Age;
  } Files[] = {{"aa", std::chrono::hours(3)},
               {"bb", std::chrono::hours(2)},
               {"cc", std::chrono::hours(1)}};
  for (const auto &F : Files) {
    std::string Path = Dir + "/" + F.Name + ".m";
    std::ofstream(Path) << "function y = " << F.Name << "(x)\ny = x + 1;\n";
    fs::last_write_time(Path, Now - F.Age);
  }

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  E.pauseBackgroundCompiles();
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 3u);
  // Newest source first: cc (1h old), bb (2h), aa (3h).
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"cc", "bb", "aa"}));
  E.resumeBackgroundCompiles();
  E.drainCompiles();
}

TEST(EngineAsync, SnoopOrdersHotFirstAndPromotionStillWins) {
  // Once the profile has invocation counts, they dominate the ranking -
  // even over source recency - and explicit promotion still reorders the
  // ranked queue.
  namespace fs = std::filesystem;
  std::string Dir = ::testing::TempDir() + "/majic_async_rank_hot";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  auto Write = [&](const char *Name, std::chrono::hours Age) {
    std::string Path = Dir + "/" + Name + std::string(".m");
    std::ofstream(Path) << "function y = " << Name << "(x)\ny = x + 1;\n";
    fs::last_write_time(Path, fs::file_time_type::clock::now() - Age);
  };
  Write("aa", std::chrono::hours(6));
  Write("bb", std::chrono::hours(5));
  Write("cc", std::chrono::hours(4));

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 3u);
  E.drainCompiles();

  // The session's workload: bb is hot, aa lukewarm, cc never run.
  for (int I = 0; I != 3; ++I)
    E.callFunction("bb", {makeValue(Value::intScalar(1))}, 1, SourceLoc());
  E.callFunction("aa", {makeValue(Value::intScalar(1))}, 1, SourceLoc());

  // Touch every file - cc most recently, so recency alone would put the
  // never-run cc first. Invocation counts must win instead.
  Write("aa", std::chrono::hours(3));
  Write("bb", std::chrono::hours(2));
  Write("cc", std::chrono::hours(1));
  E.pauseBackgroundCompiles();
  EXPECT_EQ(E.snoop(), 3u);
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"bb", "aa", "cc"}));

  // Promotion of the coldest entry overrides the ranking; the rest keep
  // their relative hot-first order.
  EXPECT_TRUE(E.promoteSpeculation("cc"));
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"cc", "bb", "aa"}));
  E.resumeBackgroundCompiles();
  E.drainCompiles();
  EXPECT_TRUE(E.queuedSpeculations().empty());
}

TEST(EngineAsync, SnoopQueuesAndStatsAddUp) {
  std::string Dir = ::testing::TempDir() + "/majic_async_snoop";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  for (const char *Name : {"aa", "bb", "cc"}) {
    std::ofstream F(Dir + "/" + Name + std::string(".m"));
    F << "function y = " << Name << "(x)\ny = x + 1;\n";
  }
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 2;
  Engine E(O);
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 3u);
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Queued, 3u);
  EXPECT_EQ(S.Completed + S.Dropped, 3u);
  EXPECT_EQ(E.repository().totalObjects(), S.Completed);
  EXPECT_GT(S.BackgroundCompileSeconds, 0.0);
}

TEST(EngineAsync, ShutdownOnSharedPoolCancelsEveryQueuedJobKind) {
  // A session on a shared pool must never wait for that pool: shutdown
  // cancels its queued speculative compile, store save and native build
  // without running them, even when the pool is paused.
  namespace fs = std::filesystem;
  const fs::path Dir = fs::path(::testing::TempDir()) / "majic_async_shared";
  fs::remove_all(Dir);
  ThreadPool Pool(1);
  Pool.setPaused(true);
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.SharedSpecPool = &Pool;
    O.RepoDir = Dir.string();
    O.EnvFallbacks = false;
#ifndef __SANITIZE_THREAD__
    // Generated modules are uninstrumented, so the native job only joins
    // outside TSan (the build is cancelled before it runs either way).
    O.NativeTier = true;
    O.NativeHotThreshold = 1;
#endif
    Engine E(O);
    ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
    ASSERT_TRUE(E.addSource("twice", "function y = twice(x)\ny = 2 * x;\n"));
    ASSERT_TRUE(E.speculateAsync("countdown"));
    // A foreground JIT compile queues its save and, once hot, the native
    // build of the version it produced.
    auto R = E.callFunction("twice", {makeValue(Value::intScalar(4))}, 1,
                            SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 8);
    EXPECT_EQ(Pool.queueDepth(), E.nativeTierAvailable() ? 3u : 2u);

    uint64_t DroppedBefore = E.speculationStats().Dropped;
    E.shutdown();
    EXPECT_EQ(Pool.queueDepth(), 0u);
    EXPECT_EQ(E.speculationStats().Dropped, DroppedBefore + 1);
    EXPECT_FALSE(E.speculationInFlight("countdown"));
    EXPECT_TRUE(E.queuedSpeculations().empty());
  }
  for (const fs::directory_entry &F : fs::directory_iterator(Dir)) {
    EXPECT_NE(F.path().extension(), ".mjo") << F.path();
    EXPECT_NE(F.path().extension(), ".mjn") << F.path();
  }
  fs::remove_all(Dir);
}

} // namespace
