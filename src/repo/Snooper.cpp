//===- repo/Snooper.cpp - Source directory snooping -----------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "repo/Snooper.h"

#include "ast/Lexer.h"
#include "support/AtomicFile.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string_view>
#include <unordered_set>

using namespace majic;
namespace fs = std::filesystem;

void SourceSnooper::watchDirectory(const std::string &Dir) {
  if (std::find(Dirs.begin(), Dirs.end(), Dir) == Dirs.end())
    Dirs.push_back(Dir);
}

std::vector<SourceSnooper::Change> SourceSnooper::scan() {
  std::vector<Change> Changes;
  std::unordered_set<std::string> Seen;
  // Directories whose listing failed for any reason other than genuine
  // absence. A file we cannot enumerate is not a file that was deleted: a
  // transient EPERM / EIO / NFS hiccup must never be reported as Removed,
  // because the engine reacts to Removed by dropping the function and
  // erasing its persistent cache entries.
  std::vector<std::string> Unreadable;
  for (const std::string &Dir : Dirs) {
    std::error_code EC;
    fs::directory_iterator It(Dir, EC), End;
    if (EC) {
      // A directory that is genuinely gone means its files are gone too
      // (wholesale removal); any other failure makes it unreadable.
      if (EC != std::errc::no_such_file_or_directory &&
          EC != std::errc::not_a_directory)
        Unreadable.push_back(Dir);
      continue;
    }
    while (It != End) {
      const fs::directory_entry &Entry = *It;
      const fs::path &P = Entry.path();
      if (P.extension() == ".m") {
        std::string Path = P.string();
        std::error_code StEC;
        bool Regular = Entry.is_regular_file(StEC);
        if (StEC) {
          // The directory listed the name, so it exists; a failed stat
          // only means we learn nothing new about it this scan.
          Seen.insert(Path);
        } else if (Regular) {
          Seen.insert(Path);
          std::error_code MtEC;
          auto MTime = Entry.last_write_time(MtEC);
          if (!MtEC) {
            int64_t Stamp =
                static_cast<int64_t>(MTime.time_since_epoch().count());
            auto Known = LastMTime.find(Path);
            bool IsNew = Known == LastMTime.end();
            if (IsNew || Known->second != Stamp) {
              LastMTime[Path] = Stamp;
              Changes.push_back({Path, P.stem().string(),
                                 IsNew ? Change::Kind::Added
                                       : Change::Kind::Modified,
                                 Stamp, {}});
            }
          }
        }
      }
      // The non-throwing increment: a mid-listing error leaves the rest of
      // the directory unseen, which must not read as mass deletion (and
      // the throwing operator++ would propagate out of scan()).
      It.increment(EC);
      if (EC) {
        Unreadable.push_back(Dir);
        break;
      }
    }
  }
  // A file we reported before that no longer exists was removed (this also
  // covers a watched directory disappearing wholesale); the engine must
  // stop serving its compiled versions. Files under a directory whose
  // listing failed are exempt: absence of evidence only.
  auto UnderUnreadable = [&](const std::string &Path) {
    for (const std::string &Dir : Unreadable)
      if (Path.compare(0, Dir.size(), Dir) == 0)
        return true;
    return false;
  };
  for (auto It = LastMTime.begin(); It != LastMTime.end();) {
    if (Seen.count(It->first) || UnderUnreadable(It->first)) {
      ++It;
      continue;
    }
    Changes.push_back({It->first, fs::path(It->first).stem().string(),
                       Change::Kind::Removed, It->second, {}});
    It = LastMTime.erase(It);
  }
  // Deterministic processing order; claims are made in it, so the order
  // decides which file defines a name that several define.
  std::sort(Changes.begin(), Changes.end(),
            [](const Change &A, const Change &B) { return A.Path < B.Path; });
  for (Change &C : Changes) {
    if (C.K == Change::Kind::Removed)
      C.Names = retire(C.Path, C.FunctionName);
    else
      record(C);
  }
  return Changes;
}

namespace {

/// The tokens of a source from one line on, lexed a line at a time as they
/// are asked for. The lexer carries no state across a newline (Lexer.cpp),
/// so these are the kinds and texts the whole source's lex gives from that
/// line on; only locations and SpaceBefore at line starts may differ.
class LineTokens {
public:
  LineTokens(std::string_view Src, size_t From) : Src(Src), Next(From) {}

  /// Token \p I of the run; Eof past the end of the source.
  const Token &operator[](size_t I) {
    while (I >= Toks.size() && Next < Src.size())
      lexLine();
    return I < Toks.size() ? Toks[I] : EofTok;
  }

  /// Lexes the next line onto the run; returns the run's token count.
  size_t lexLine() {
    size_t End = Src.find('\n', Next);
    End = End == std::string_view::npos ? Src.size() : End + 1;
    // Lexer errors are the parse's to report, when the file is loaded.
    Diagnostics Ignored;
    std::vector<Token> Line = lex(Src.substr(Next, End - Next), 0, Ignored);
    Toks.insert(Toks.end(), std::make_move_iterator(Line.begin()),
                std::make_move_iterator(Line.end() - 1)); // not its Eof
    Next = End;
    return Toks.size();
  }

private:
  std::string_view Src;
  size_t Next; ///< start of the first line not lexed yet
  std::vector<Token> Toks;
  Token EofTok;
};

} // namespace

std::vector<std::string>
SourceSnooper::definedNames(const std::string &Source, const std::string &Stem) {
  // The first token decides: a file that does not open with `function` is
  // a script.
  LineTokens Head(Source, 0);
  size_t First = 0;
  while (Head[First].Kind == TokKind::Newline)
    ++First;
  if (Head[First].Kind != TokKind::KwFunction)
    return {Stem};
  // `function` is a keyword, so each occurrence begins a function; its
  // name follows in one of the parser's three header forms:
  //   function name(...)   function out = name(...)   function [o1, o2] = name(...)
  // Only lines holding the word can hold the keyword. Each is lexed alone,
  // and the tokens after a keyword are lexed as far as the header reads
  // them: through `...` continuations, or wherever an unclosed `[` leads.
  std::vector<std::string> Names;
  for (size_t At = Source.find("function"); At != std::string::npos;) {
    size_t LineStart = Source.rfind('\n', At);
    LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
    LineTokens Toks(Source, LineStart);
    size_t InLine = Toks.lexLine();
    for (size_t I = 0; I != InLine; ++I) {
      if (Toks[I].Kind != TokKind::KwFunction)
        continue;
      size_t J = I + 1;
      if (Toks[J].Kind == TokKind::LBracket) {
        while (Toks[J].Kind != TokKind::Eof &&
               Toks[J].Kind != TokKind::RBracket)
          ++J;
        J += 2; // past "] ="
      } else if (Toks[J].Kind == TokKind::Identifier &&
                 Toks[J + 1].Kind == TokKind::Assign) {
        J += 2;
      }
      if (Toks[J].Kind == TokKind::Identifier)
        Names.push_back(Toks[J].Text);
    }
    size_t LineEnd = Source.find('\n', At);
    At = LineEnd == std::string::npos ? LineEnd
                                      : Source.find("function", LineEnd);
  }
  return Names;
}

void SourceSnooper::record(Change &C) {
  std::string Text;
  if (atomicfile::readFile(C.Path, Text))
    C.Names = definedNames(Text, C.FunctionName);
  // A pending record this scan supersedes was never loaded, and the text
  // it stood for is gone: its claims go with it.
  auto Latest = LatestRec.find(C.Path);
  if (Latest != LatestRec.end() &&
      Recs[Latest->second].St == FileRec::State::Pending) {
    dropClaims(Latest->second);
    Recs[Latest->second].St = FileRec::State::Failed;
  }
  uint32_t Id = static_cast<uint32_t>(Recs.size());
  Recs.push_back({C.Path, C.Names, {}, FileRec::State::Pending});
  LatestRec[C.Path] = Id;
  for (const std::string &Name : C.Names)
    Claims[Name].push_back(Id);
}

void SourceSnooper::dropClaims(uint32_t Rec) {
  for (const std::string &Name : Recs[Rec].Names) {
    auto It = Claims.find(Name);
    if (It == Claims.end())
      continue;
    std::vector<uint32_t> &Chain = It->second;
    Chain.erase(std::remove(Chain.begin(), Chain.end(), Rec), Chain.end());
    if (Chain.empty())
      Claims.erase(It);
  }
}

std::vector<std::string> SourceSnooper::retire(const std::string &Path,
                                               const std::string &Stem) {
  std::vector<std::string> Names{Stem};
  auto Latest = LatestRec.find(Path);
  auto Loaded = LoadedRec.find(Path);
  if (Latest != LatestRec.end() &&
      Recs[Latest->second].St == FileRec::State::Pending) {
    Names = Recs[Latest->second].Names;
    Recs[Latest->second].St = FileRec::State::Failed;
  } else if (Loaded != LoadedRec.end()) {
    Names = Recs[Loaded->second].Defined;
  }
  if (Latest != LatestRec.end())
    LatestRec.erase(Latest);
  if (Loaded != LoadedRec.end())
    LoadedRec.erase(Loaded);
  // The names stop resolving altogether, whichever file held them: what
  // loading every file eagerly and then tearing these names down leaves.
  for (const std::string &Name : Names)
    Claims.erase(Name);
  return Names;
}

const std::string *SourceSnooper::pendingFile(const std::string &Name) const {
  auto It = Claims.find(Name);
  if (It == Claims.end())
    return nullptr;
  const FileRec &R = Recs[It->second.back()];
  return R.St == FileRec::State::Pending ? &R.Path : nullptr;
}

bool SourceSnooper::isPending(const std::string &Path) const {
  auto It = LatestRec.find(Path);
  return It != LatestRec.end() &&
         Recs[It->second].St == FileRec::State::Pending;
}

void SourceSnooper::beginLoad(const std::string &Path) {
  Recs[LatestRec.at(Path)].St = FileRec::State::Loading;
}

bool SourceSnooper::owns(const std::string &Path,
                         const std::string &Name) const {
  auto It = Claims.find(Name);
  auto Latest = LatestRec.find(Path);
  return It != Claims.end() && Latest != LatestRec.end() &&
         It->second.back() == Latest->second;
}

void SourceSnooper::endLoad(const std::string &Path, bool Ok,
                            std::vector<std::string> Defined) {
  uint32_t Id = LatestRec.at(Path);
  FileRec &R = Recs[Id];
  if (!Ok) {
    R.St = FileRec::State::Failed;
    dropClaims(Id);
    return;
  }
  R.St = FileRec::State::Loaded;
  R.Defined = std::move(Defined);
  LoadedRec[Path] = Id;
}

void SourceSnooper::forget(const std::string &Name) { Claims.erase(Name); }
