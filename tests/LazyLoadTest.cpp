//===- tests/LazyLoadTest.cpp - Lazy snoop and per-function store reads ---===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// snoop() records the files it finds and parses one when a lookup first
// needs a name it defines; a function's store entries are read when its
// source is registered. Every test here holds the lazy engine to what
// loading every file in scan order (the eager engine: loadFile over the
// directory, sorted) gives: the same definitions, results, IR and errors.
//
// The Snooper and Lexer tests hold the header scan, which lexes only the
// lines that can hold a `function` header, to a lex of the whole file.
//
//===----------------------------------------------------------------------===//

#include "ast/Lexer.h"
#include "engine/Corpus.h"
#include "engine/Engine.h"
#include "repo/Snooper.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace majic;
namespace fs = std::filesystem;

namespace {

class LazyLoadTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = fs::temp_directory_path() /
          ("majic_lazy_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
    fs::create_directories(Dir / "src");
  }
  void TearDown() override { fs::remove_all(Dir); }

  EngineOptions opts(bool Store = false) {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.EnvFallbacks = false;
    if (Store)
      O.RepoDir = (Dir / "store").string();
    return O;
  }

  void write(const std::string &File, const std::string &Text) {
    std::ofstream(Dir / "src" / File) << Text;
  }

  /// The eager engine: every file of src/ loaded in path order.
  std::unique_ptr<Engine> eager(const EngineOptions &O) {
    auto E = std::make_unique<Engine>(O);
    std::vector<std::string> Paths;
    for (const fs::directory_entry &F : fs::directory_iterator(Dir / "src"))
      Paths.push_back(F.path().string());
    std::sort(Paths.begin(), Paths.end());
    for (const std::string &P : Paths)
      E->loadFile(P);
    return E;
  }

  std::unique_ptr<Engine> lazy(const EngineOptions &O) {
    auto E = std::make_unique<Engine>(O);
    E->watchDirectory((Dir / "src").string());
    E->snoop();
    return E;
  }

  /// Store files whose names start with \p Prefix and end in \p Ext.
  unsigned storeFiles(const std::string &Prefix,
                      const std::string &Ext = ".mjo") {
    unsigned N = 0;
    if (!fs::exists(Dir / "store"))
      return N;
    for (const fs::directory_entry &F : fs::directory_iterator(Dir / "store")) {
      std::string Name = F.path().filename().string();
      N += Name.rfind(Prefix, 0) == 0 && F.path().extension() == Ext;
    }
    return N;
  }

  fs::path Dir;
};

ValuePtr num(double X) { return makeValue(Value::scalar(X)); }

double call(Engine &E, const std::string &Fn, std::vector<ValuePtr> Args) {
  return E.callFunction(Fn, std::move(Args), 1, SourceLoc())[0]->scalarValue();
}

uint64_t counter(Engine &E, const std::string &Name) {
  for (const auto &[N, V] : E.sampleMetrics().Counters)
    if (N == Name)
      return V;
  return 0;
}

uint64_t sourceLoads(Engine &E) {
  uint64_t N = 0;
  for (const char *Why : {"call", "callee", "speculate", "fallback"})
    N += counter(E, std::string("engine.source_loads.") + Why);
  return N;
}

TEST_F(LazyLoadTest, SnoopParsesNothingUntilACallNeedsIt) {
  write("aa.m", "function y = aa(x)\ny = x + 1;\n");
  write("bb.m", "function y = bb(x)\ny = x * 2;\n");
  Engine E(opts());
  E.watchDirectory((Dir / "src").string());
  EXPECT_EQ(E.snoop(), 2u);
  EXPECT_EQ(sourceLoads(E), 0u);
  EXPECT_DOUBLE_EQ(call(E, "bb", {num(4)}), 8);
  EXPECT_EQ(counter(E, "engine.source_loads.call"), 1u);
  EXPECT_EQ(sourceLoads(E), 1u);
  EXPECT_TRUE(E.knowsFunction("aa"));
  EXPECT_EQ(sourceLoads(E), 2u);
  EXPECT_FALSE(E.knowsFunction("cc"));
  EXPECT_EQ(E.snoop(), 0u);
}

// A warm session making one call on the corpus store reads the entries of
// that program's file and nothing else, parses that one file, and
// compiles nothing.
TEST_F(LazyLoadTest, WarmSingleCallReadsOnlyItsProgramsEntries) {
  const std::vector<std::pair<std::string, std::vector<double>>> Calls = {
      {"orbrk", {100}}, {"fibonacci", {11}}, {"fractal", {400}}};
  auto Args = [](const std::vector<double> &Xs) {
    std::vector<ValuePtr> Out;
    for (double X : Xs)
      Out.push_back(makeValue(Value::intScalar(X)));
    return Out;
  };
  std::vector<double> Cold;
  {
    EngineOptions O = opts(/*Store=*/true);
    Engine E(O);
    E.watchDirectory(mlibDirectory());
    E.snoop();
    for (const auto &[Fn, Xs] : Calls)
      Cold.push_back(call(E, Fn, Args(Xs)));
    E.flushRepoStore();
  }
  // orbrk.m defines orbrk and its subfunction gravrk.
  unsigned Entries = storeFiles("orbrk.") + storeFiles("gravrk.");
  ASSERT_GT(Entries, 0u);
  ASSERT_GT(storeFiles(""), Entries);

  Engine E(opts(/*Store=*/true));
  E.watchDirectory(mlibDirectory());
  EXPECT_EQ(E.snoop(), 17u);
  EXPECT_EQ(E.repoStoreStats().EntriesRead, 0u);
  EXPECT_DOUBLE_EQ(call(E, "orbrk", Args(Calls[0].second)), Cold[0]);
  EXPECT_EQ(counter(E, "engine.source_loads.call"), 1u);
  EXPECT_EQ(sourceLoads(E), 1u);
  EXPECT_EQ(E.repoStoreStats().EntriesRead, Entries);
  EXPECT_EQ(E.repoStoreStats().Loaded, Entries);
  EXPECT_EQ(E.jitCompiles(), 0u);
  EXPECT_EQ(E.interpreterFallbacks(), 0u);
}

// A subfunction and a file of the same name: the file later in scan order
// defines the name, whichever is called first.
TEST_F(LazyLoadTest, ShadowingFollowsScanOrder) {
  for (const std::string Host : {"aa", "zz"}) {
    fs::remove_all(Dir / "src");
    fs::create_directories(Dir / "src");
    write(Host + ".m", "function y = " + Host + "(x)\ny = foo(x) + 1;\n"
                       "function z = foo(x)\nz = x * 10;\n");
    write("foo.m", "function z = foo(x)\nz = x * 100;\n");
    double Expect = Host == "aa" ? 100 : 10; // foo.m sorts after aa.m only
    for (bool HostFirst : {false, true}) {
      SCOPED_TRACE(Host + (HostFirst ? ", host called first" : ", foo first"));
      std::unique_ptr<Engine> Eager = eager(opts());
      std::unique_ptr<Engine> Lazy = lazy(opts());
      for (Engine *E : {Eager.get(), Lazy.get()}) {
        if (HostFirst) {
          EXPECT_DOUBLE_EQ(call(*E, Host, {num(2)}), 2 * Expect + 1);
        }
        EXPECT_DOUBLE_EQ(call(*E, "foo", {num(2)}), 2 * Expect);
        EXPECT_DOUBLE_EQ(call(*E, Host, {num(3)}), 3 * Expect + 1);
      }
    }
  }
}

// A definition made directly shadows every snooped file, loaded or not.
TEST_F(LazyLoadTest, DirectDefinitionShadowsPendingFile) {
  write("foo.m", "function z = foo(x)\nz = x * 100;\n");
  std::unique_ptr<Engine> Lazy = lazy(opts());
  ASSERT_EQ(Lazy->runScript("function z = foo(x)\nz = x - 1;\n"), "");
  EXPECT_DOUBLE_EQ(call(*Lazy, "foo", {num(5)}), 4);
  EXPECT_EQ(sourceLoads(*Lazy), 0u);
}

// The inliner sees the callee a cross-file call resolves to, so the
// caller's IR is what the eager engine compiles.
TEST_F(LazyLoadTest, CrossFileInliningMatchesEagerIR) {
  write("caller.m", "function y = caller(n)\ny = 0;\n"
                    "for k = 1:n\ny = y + helper(k);\nend\n");
  write("helper.m", "function h = helper(k)\nh = k * k + 1;\n");
  EngineOptions O = opts();
  ASSERT_TRUE(O.InlineCalls);
  std::unique_ptr<Engine> Eager = eager(O);
  std::unique_ptr<Engine> Lazy = lazy(O);
  std::string Text[2];
  int I = 0;
  for (Engine *E : {Eager.get(), Lazy.get()}) {
    EXPECT_DOUBLE_EQ(call(*E, "caller", {num(4)}), 34);
    ASSERT_EQ(E->repository().versionCount("caller"), 1u);
    Text[I++] = E->repository().versions("caller").front()->Code->print();
  }
  EXPECT_EQ(Text[0], Text[1]);
  EXPECT_EQ(Text[0].find("helper"), std::string::npos) << "not inlined";
  EXPECT_EQ(counter(*Lazy, "engine.source_loads.callee"), 1u);
}

// A file that fails to parse raises, at the call, the error the eager
// engine raises; a name it shared falls back to the earlier file.
TEST_F(LazyLoadTest, ParseFailureMatchesEagerErrors) {
  write("aa.m", "function y = aa(x)\ny = foo(x);\n"
                "function z = foo(x)\nz = x + 7;\n");
  write("bad.m", "function y = bad(x)\ny = (x + ;\n");
  write("foo.m", "function z = foo(x)\nz = [x + ;\n");
  std::unique_ptr<Engine> Eager = eager(opts());
  std::unique_ptr<Engine> Lazy = lazy(opts());
  std::string Errors[2];
  int I = 0;
  for (Engine *E : {Eager.get(), Lazy.get()}) {
    try {
      call(*E, "bad", {num(1)});
      ADD_FAILURE() << "bad.m must not define bad";
    } catch (const MatlabError &Err) {
      Errors[I++] = Err.message();
    }
    EXPECT_DOUBLE_EQ(call(*E, "foo", {num(1)}), 8);
  }
  EXPECT_EQ(Errors[0], Errors[1]);
  EXPECT_EQ(counter(*Lazy, "engine.source_loads.fallback"), 1u);
}

// A source removed before anything loaded it still takes its store
// entries with it.
TEST_F(LazyLoadTest, RemovingANeverLoadedFileErasesItsEntries) {
  write("ff.m", "function y = ff(x)\ny = x * 3;\n");
  {
    std::unique_ptr<Engine> Cold = lazy(opts(/*Store=*/true));
    EXPECT_DOUBLE_EQ(call(*Cold, "ff", {num(2)}), 6);
  }
  ASSERT_EQ(storeFiles("ff."), 1u);
  std::unique_ptr<Engine> Warm = lazy(opts(/*Store=*/true));
  fs::remove(Dir / "src" / "ff.m");
  EXPECT_EQ(Warm->snoop(), 0u);
  EXPECT_EQ(sourceLoads(*Warm), 0u);
  EXPECT_EQ(storeFiles("ff."), 0u);
  EXPECT_FALSE(Warm->knowsFunction("ff"));
}

// A corrupt entry of the called function is quarantined when the call
// reads it, and costs one compile.
TEST_F(LazyLoadTest, CorruptEntryOfCalledFunctionIsQuarantined) {
  write("ff.m", "function y = ff(x)\ny = x * 3;\n");
  {
    std::unique_ptr<Engine> Cold = lazy(opts(/*Store=*/true));
    call(*Cold, "ff", {num(2)});
  }
  for (const fs::directory_entry &F : fs::directory_iterator(Dir / "store"))
    if (F.path().extension() == ".mjo") {
      std::fstream IO(F.path(), std::ios::in | std::ios::out |
                                    std::ios::binary);
      IO.seekp(static_cast<std::streamoff>(fs::file_size(F.path()) / 2));
      IO.put('\x5a');
    }
  std::unique_ptr<Engine> Warm = lazy(opts(/*Store=*/true));
  EXPECT_EQ(Warm->repoStoreStats().Quarantined, 0u);
  EXPECT_DOUBLE_EQ(call(*Warm, "ff", {num(2)}), 6);
  EXPECT_EQ(Warm->repoStoreStats().Quarantined, 1u);
  EXPECT_EQ(Warm->repoStoreStats().Loaded, 0u);
  EXPECT_EQ(Warm->jitCompiles(), 1u);
  EXPECT_EQ(storeFiles("ff.", ".corrupt"), 1u);
}

// Under Speculative, a function whose persisted observed signatures are
// all served from the store is not speculated again: its file stays
// pending and the call adopts the entry. The store names the entry either
// for the observed signature itself (a JIT session compiled it) or for
// the version that served it (a speculative session's guess did). A
// function never run is speculated.
TEST_F(LazyLoadTest, SpeculationSkipsWhatTheStoreServes) {
  write("ff.m", "function y = ff(x)\ny = x * 3;\n");
  write("gg.m", "function y = gg(x)\ny = x - 3;\n");
  for (CompilePolicy ColdPolicy :
       {CompilePolicy::Jit, CompilePolicy::Speculative}) {
    SCOPED_TRACE(compilePolicyName(ColdPolicy));
    fs::remove_all(Dir / "store");
    {
      EngineOptions O = opts(/*Store=*/true);
      O.Policy = ColdPolicy;
      std::unique_ptr<Engine> Cold = lazy(O);
      call(*Cold, "ff", {num(2)});
      EXPECT_EQ(Cold->jitCompiles(),
                ColdPolicy == CompilePolicy::Jit ? 1u : 0u);
    }
    EngineOptions O = opts(/*Store=*/true);
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = 1;
    std::unique_ptr<Engine> Warm = lazy(O);
    EXPECT_EQ(counter(*Warm, "engine.source_loads.speculate"), 1u);
    EXPECT_EQ(Warm->speculationStats().Queued, 1u);
    Warm->drainCompiles();
    EXPECT_DOUBLE_EQ(call(*Warm, "ff", {num(2)}), 6);
    EXPECT_EQ(counter(*Warm, "engine.source_loads.call"), 1u);
    EXPECT_EQ(Warm->jitCompiles(), 0u);
    EXPECT_EQ(Warm->interpreterFallbacks(), 0u);
    EXPECT_DOUBLE_EQ(call(*Warm, "gg", {num(2)}), -1);
    EXPECT_EQ(sourceLoads(*Warm), 2u);
  }
}

// A primed store: a speculative session ran every program once, so the
// store holds code for each function with a profile. A subfunction inlined
// at every call site (adapt.m's simp, orbrk.m's gravrk) never runs on its
// own and gets no profile; it must not make its file load at snoop, and a
// session on the store has nothing to speculate.
TEST_F(LazyLoadTest, PrimedSessionQueuesNothingTheStoreServes) {
  const std::vector<std::pair<std::string, std::vector<double>>> Calls = {
      {"adapt", {1e-8, 4000}},       {"cgopt", {60, 40}},
      {"crnich", {1, 3, 33, 33}},    {"dirich", {20, 1e-3, 10}},
      {"finedif", {1, 1, 1, 40, 40}}, {"galrkn", {24}},
      {"icn", {40}},                 {"mei", {17, 9}},
      {"orbec", {500}},              {"orbrk", {100}},
      {"qmr", {40, 20}},             {"sor", {24, 1.2, 10}},
      {"ackermann", {2, 3}},         {"fractal", {400}},
      {"mandel", {16, 30}},          {"fibonacci", {11}},
      {"heavyball", {60, 80}}};
  auto Args = [](const std::vector<double> &Xs) {
    std::vector<ValuePtr> Out;
    for (double X : Xs)
      Out.push_back(X == static_cast<long long>(X)
                        ? makeValue(Value::intScalar(X))
                        : num(X));
    return Out;
  };
  EngineOptions O = opts(/*Store=*/true);
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  std::vector<Value> Primed;
  {
    Engine E(O);
    E.watchDirectory(mlibDirectory());
    E.snoop();
    E.drainCompiles();
    for (const auto &[Fn, Xs] : Calls)
      Primed.push_back(*E.callFunction(Fn, Args(Xs), 1, SourceLoc())[0]);
    E.drainCompiles();
    E.flushRepoStore();
  }

  Engine E(O);
  E.pauseBackgroundCompiles();
  E.watchDirectory(mlibDirectory());
  EXPECT_EQ(E.snoop(), 17u);
  EXPECT_EQ(E.queuedSpeculations(), std::vector<std::string>{});
  EXPECT_EQ(E.speculationStats().Queued, 0u);
  EXPECT_EQ(counter(E, "engine.source_loads.speculate"), 0u);
  EXPECT_EQ(sourceLoads(E), 0u);
  E.resumeBackgroundCompiles();
  // The two files the subfunctions are in load at their call and are
  // served from the store.
  for (size_t I : {size_t(0), size_t(9)}) {
    SCOPED_TRACE(Calls[I].first);
    ValuePtr V =
        E.callFunction(Calls[I].first, Args(Calls[I].second), 1, SourceLoc())[0];
    ASSERT_EQ(V->numel(), Primed[I].numel());
    for (size_t K = 0; K != V->numel(); ++K)
      EXPECT_EQ(V->re(K), Primed[I].re(K));
  }
  EXPECT_EQ(counter(E, "engine.source_loads.call"), 2u);
  EXPECT_EQ(E.jitCompiles(), 0u);
  EXPECT_EQ(E.interpreterFallbacks(), 0u);
}

//===----------------------------------------------------------------------===//
// The header scan
//===----------------------------------------------------------------------===//

/// SourceSnooper::definedNames as a scan over the whole file's tokens: the
/// reference the header scan must match.
std::vector<std::string> fullLexNames(const std::string &Source,
                                      const std::string &Stem) {
  Diagnostics Ignored;
  std::vector<Token> Toks = lex(Source, 0, Ignored);
  auto Is = [&](size_t I, TokKind K) {
    return I < Toks.size() && Toks[I].Kind == K;
  };
  size_t First = 0;
  while (Is(First, TokKind::Newline))
    ++First;
  if (!Is(First, TokKind::KwFunction))
    return {Stem};
  std::vector<std::string> Names;
  for (size_t I = First; I != Toks.size(); ++I) {
    if (Toks[I].Kind != TokKind::KwFunction)
      continue;
    size_t J = I + 1;
    if (Is(J, TokKind::LBracket)) {
      while (J != Toks.size() && !Is(J, TokKind::RBracket))
        ++J;
      J += 2;
    } else if (Is(J, TokKind::Identifier) && Is(J + 1, TokKind::Assign)) {
      J += 2;
    }
    if (Is(J, TokKind::Identifier))
      Names.push_back(Toks[J].Text);
  }
  return Names;
}

/// Sources written to trip a scan that reads only some lines.
const std::vector<std::string> &adversarialSources() {
  static const std::vector<std::string> Sources = {
      // `function` in a comment, in a string, inside an identifier.
      "function y = f(x)\n% function g(x) is not here\n"
      "s = 'function h(x)'; t = \"function k\";\n"
      "y = myfunction(x) + functional;\nfunction z = g(x)\nz = x;\n",
      // A header continued on the next line.
      "function [a, ...\n b] = f(x)\na = x; b = x;\n",
      "function ...\n  y = ...\n  f(x)\ny = x;\n",
      // A `...` inside a comment and inside a string.
      "function y = f(x) % see ... below\ny = x;\nfunction z = g(x)\nz = x;\n",
      "function y = f(x)\nq = 'a ... b'; function z = g(x)\nz = x;\n",
      // Scripts: a comment first, a `function` only later.
      "% a script\nx = 1;\nfunction y = f(x)\ny = x;\n",
      "x = 1; ...\nfunction y = f(x)\n",
      "\n\n   \n% lead\n  function y = f(x)\ny = x;\n",
      // Line endings and edges.
      "function y = f(x)\r\ny = x;\r\nfunction z = g(x)\r\nz = x;\r\n",
      "function y = f(x)\ny = x;\nfunction z = g(x)",
      "function",
      "",
      "% only\n% comments\n",
      "% no final newline",
      // Headers a lone line does not finish.
      "function [a\nb] = f(x)\n",
      "function [a]\nf(x)\n",
      "function [a, b\n",
      "function\nf(x)\n",
      "function y =\nf(x)\n",
      // A continuation line that starts with a quote, a keyword on one.
      "function y = f(x)\ny = x ...\n';\nfunction z = g(x)\n",
      "function y = f(x)\nw = [1 ...\nfunction q = g(x)\n",
      "function y = f(x)\ny = x'; z = x'' + [x' x'];\nfunction z = h(x)\n",
      "function y = f(x), y = x; function z = g(x), z = x;\n",
      "function y = f(x)\ns = 'unterminated function\nfunction z = g(x)\n",
      "function y = f(x)\n$ function z = g(x)\n3. function w = h(x)\n",
  };
  return Sources;
}

std::vector<std::pair<std::string, std::string>> mlibSources() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const fs::directory_entry &F : fs::directory_iterator(mlibDirectory()))
    if (F.path().extension() == ".m") {
      std::string Text;
      EXPECT_TRUE(atomicfile::readFile(F.path().string(), Text));
      Out.push_back({F.path().stem().string(), Text});
    }
  EXPECT_EQ(Out.size(), 17u);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Random sources from fragments that begin and end headers, comments,
/// strings, brackets and continuations.
std::vector<std::string> mixedSources(unsigned N) {
  static const char *const Frags[] = {
      "function ", "y", " = ", "[", "]", "(x)", ", ", "...", "\n", "\r\n",
      "%", "'", "\"", "''", "x'", " ", "f", "myfunction", "end", ";", "1.",
      "\t"};
  std::mt19937 R(20241019);
  std::vector<std::string> Out;
  for (unsigned I = 0; I != N; ++I) {
    std::string S = R() % 2 ? "function " : "";
    for (unsigned K = R() % 40; K; --K)
      S += Frags[R() % std::size(Frags)];
    Out.push_back(S);
  }
  return Out;
}

TEST(Snooper, HeaderScanMatchesFullLex) {
  for (const auto &[Stem, Text] : mlibSources()) {
    SCOPED_TRACE(Stem);
    EXPECT_EQ(SourceSnooper::definedNames(Text, Stem),
              fullLexNames(Text, Stem));
  }
  // adapt.m and orbrk.m hold a subfunction each.
  EXPECT_EQ(SourceSnooper::definedNames(mlibSources()[1].second, "adapt"),
            (std::vector<std::string>{"adapt", "simp"}));
  for (const std::string &Text : adversarialSources()) {
    SCOPED_TRACE(Text);
    EXPECT_EQ(SourceSnooper::definedNames(Text, "stem"),
              fullLexNames(Text, "stem"));
  }
  for (const std::string &Text : mixedSources(4000)) {
    SCOPED_TRACE(Text);
    ASSERT_EQ(SourceSnooper::definedNames(Text, "stem"),
              fullLexNames(Text, "stem"));
  }
}

// The header scan rests on this: the lexer carries no state across a
// newline, so each line lexed alone gives the whole file's kinds and texts.
TEST(Lexer, EachLineAloneLexesAsInTheWhole) {
  auto Check = [](const std::string &Text) {
    Diagnostics Ignored;
    std::vector<Token> Whole = lex(Text, 0, Ignored), ByLine;
    for (size_t At = 0; At < Text.size();) {
      size_t End = Text.find('\n', At);
      End = End == std::string::npos ? Text.size() : End + 1;
      std::vector<Token> Line = lex(Text.substr(At, End - At), 0, Ignored);
      ByLine.insert(ByLine.end(), Line.begin(), Line.end() - 1);
      At = End;
    }
    ByLine.push_back(Whole.back());
    ASSERT_EQ(ByLine.size(), Whole.size());
    for (size_t I = 0; I != Whole.size(); ++I) {
      SCOPED_TRACE(I);
      EXPECT_EQ(ByLine[I].Kind, Whole[I].Kind);
      EXPECT_EQ(ByLine[I].Text, Whole[I].Text);
      EXPECT_EQ(ByLine[I].IsImaginary, Whole[I].IsImaginary);
      EXPECT_TRUE(ByLine[I].NumValue == Whole[I].NumValue ||
                  (ByLine[I].NumValue != ByLine[I].NumValue &&
                   Whole[I].NumValue != Whole[I].NumValue));
    }
  };
  for (const auto &[Stem, Text] : mlibSources()) {
    SCOPED_TRACE(Stem);
    Check(Text);
  }
  for (const std::string &Text : adversarialSources()) {
    SCOPED_TRACE(Text);
    Check(Text);
  }
  for (const std::string &Text : mixedSources(4000)) {
    SCOPED_TRACE(Text);
    Check(Text);
  }
}

} // namespace
