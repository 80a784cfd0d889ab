//===- repo/Snooper.h - Source directory snooping --------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source snooping (Section 2): the repository "compiles code on its own,
/// ahead of time, by snooping the source code directories, maintaining
/// dependency information between source code and object code and
/// triggering recompilations when the source code changes". This class
/// does the watching: it reports .m files that appeared, changed or
/// disappeared since the last scan.
///
/// It also keeps the books of deferred loading (DESIGN.md "Lazy snoop and
/// per-function store reads"). A scan does not parse what it finds: it
/// records each new or changed file as *pending*, with the names its
/// `function` headers define, and each such name gets a *claim* on it. A
/// name's latest claim decides which file defines it, exactly as loading
/// every file in scan order would. The engine parses a pending file when a
/// lookup first needs one of the names it holds the latest claim on.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_REPO_SNOOPER_H
#define MAJIC_REPO_SNOOPER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace majic {

class SourceSnooper {
public:
  /// Adds a directory to watch (non-recursive, .m files only).
  void watchDirectory(const std::string &Dir);

  struct Change {
    /// What happened to the file since the previous scan. A Removed change
    /// is how the engine learns to stop serving compiled versions of a
    /// deleted source file (the repository entry - and, with the on-disk
    /// store, its files - must be invalidated, not served stale).
    enum class Kind : uint8_t { Added, Modified, Removed };

    std::string Path;         ///< Full path to the .m file.
    std::string FunctionName; ///< Basename without extension.
    Kind K;                   ///< Added / Modified / Removed.
    int64_t MTime;            ///< Filesystem stamp; most-recent-first lets
                              ///< the engine speculate on fresh edits first
                              ///< (last known stamp for Removed changes).
    /// Added/Modified: the names the file's `function` headers define (the
    /// stem for a script). Removed: the names the engine must stop
    /// serving - those of the file's last successful load, else those of
    /// its header scan, else the stem.
    std::vector<std::string> Names;
  };

  /// Scans the watched directories, returning files that are new, whose
  /// modification time changed, or that disappeared since the previous
  /// scan, in path order. Each new or changed file becomes pending and
  /// claims its names; a removed file's names lose every claim.
  std::vector<Change> scan();

  const std::vector<std::string> &directories() const { return Dirs; }

  /// The names \p Source's `function` headers define, in file order, from
  /// the lexer's tokens (no parse); a script defines \p Stem. Only the
  /// lines that can hold a header are lexed, with the result a scan of the
  /// whole file's tokens gives (DESIGN.md "The header-line scan").
  static std::vector<std::string> definedNames(const std::string &Source,
                                               const std::string &Stem);

  //===--------------------------------------------------------------------===//
  // Deferred loading
  //===--------------------------------------------------------------------===//

  /// The file a lookup of \p Name must load first: the holder of the
  /// latest claim on \p Name, while it is pending. Null otherwise.
  const std::string *pendingFile(const std::string &Name) const;

  /// True when \p Path was scanned and is not loaded yet.
  bool isPending(const std::string &Path) const;

  /// Marks pending \p Path as loading: it stops being pending, so a load
  /// that reaches it again through call sites ends there.
  void beginLoad(const std::string &Path);

  /// True when the loading \p Path holds the latest claim on \p Name: the
  /// engine registers only those of the file's functions.
  bool owns(const std::string &Path, const std::string &Name) const;

  /// Ends the load of \p Path. On success \p Defined (every function the
  /// parse found) is what a later removal tears down; on a parse failure
  /// the file gives up its claims, and each name falls back to its
  /// previous claim.
  void endLoad(const std::string &Path, bool Ok,
               std::vector<std::string> Defined);

  /// Drops every claim on \p Name: a definition registered directly
  /// (Engine::addSource, a definition typed at the prompt) shadows every
  /// file scanned before it.
  void forget(const std::string &Name);

private:
  /// One scan's record of one file.
  struct FileRec {
    std::string Path;
    std::vector<std::string> Names;   ///< the header scan's: its claims
    std::vector<std::string> Defined; ///< what a successful load parsed
    enum class State : uint8_t { Pending, Loading, Loaded, Failed } St;
  };

  void record(Change &C);
  void dropClaims(uint32_t Rec);
  /// The names a removal of \p Path tears down, with every claim on them.
  std::vector<std::string> retire(const std::string &Path,
                                  const std::string &Stem);

  std::vector<std::string> Dirs;
  std::unordered_map<std::string, int64_t> LastMTime;
  std::vector<FileRec> Recs;
  /// Per path: its latest record, and its last successfully loaded one.
  std::unordered_map<std::string, uint32_t> LatestRec, LoadedRec;
  /// Per name: the records claiming it, oldest first.
  std::unordered_map<std::string, std::vector<uint32_t>> Claims;
};

} // namespace majic

#endif // MAJIC_REPO_SNOOPER_H
