//===- support/AtomicFile.cpp - Crash-safe file writes ---------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"

#include "support/FaultInjection.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace majic;
namespace fs = std::filesystem;

const char *const majic::atomicfile::kTempMarker = ".tmp";

namespace {

void setError(std::string *Error, const std::string &What) {
  if (Error)
    *Error = What + ": " + std::strerror(errno);
}

/// fsync the directory containing \p Path so a completed rename is durable.
void syncParentDir(const std::string &Path) {
  fs::path Parent = fs::path(Path).parent_path();
  if (Parent.empty())
    Parent = ".";
  int Fd = ::open(Parent.c_str(), O_RDONLY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

} // namespace

bool majic::atomicfile::writeFileAtomic(const std::string &Path,
                                        const std::string &Bytes,
                                        std::string *Error) {
  // Unique within the process so concurrent saves of the same target never
  // share a temp file; unique-enough across crashed processes because the
  // sweep removes strays by pattern, not by name.
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Path + kTempMarker +
                    std::to_string(static_cast<unsigned long>(::getpid())) +
                    "." +
                    std::to_string(Counter.fetch_add(1,
                                                     std::memory_order_relaxed));

  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    setError(Error, "cannot create '" + Tmp + "'");
    return false;
  }
  // Crash-sweep kill points bracket every state transition of the
  // protocol: an empty temp file, a half-written temp file, a full but
  // unsynced temp file, a durable temp file, and a renamed target whose
  // directory entry is not yet synced. killPoint() is a no-op (one relaxed
  // load) unless a test armed a kill schedule; it never throws, so the
  // function's no-exceptions contract holds.
  faults::killPoint(faults::Site::AtomicWriteStep);
  // Write in two halves so the sweep can die with a genuinely torn payload
  // on disk, not just before-any-bytes or after-all-bytes.
  size_t Chunk[2] = {Bytes.size() / 2, Bytes.size()};
  size_t Off = 0;
  for (size_t Limit : Chunk) {
    while (Off < Limit) {
      ssize_t N = ::write(Fd, Bytes.data() + Off, Limit - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        setError(Error, "cannot write '" + Tmp + "'");
        ::close(Fd);
        ::unlink(Tmp.c_str());
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    faults::killPoint(faults::Site::AtomicWriteStep);
  }
  // The data must be on disk before the rename makes it reachable,
  // otherwise a crash could expose a named-but-empty file.
  if (::fsync(Fd) != 0) {
    setError(Error, "cannot fsync '" + Tmp + "'");
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return false;
  }
  faults::killPoint(faults::Site::AtomicWriteStep);
  if (::close(Fd) != 0) {
    setError(Error, "cannot close '" + Tmp + "'");
    ::unlink(Tmp.c_str());
    return false;
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    setError(Error, "cannot rename '" + Tmp + "' to '" + Path + "'");
    ::unlink(Tmp.c_str());
    return false;
  }
  faults::killPoint(faults::Site::AtomicWriteStep);
  syncParentDir(Path);
  return true;
}

bool majic::atomicfile::readFile(const std::string &Path, std::string &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  // One read of the size fstat reports, then reads until end of file, so a
  // file that grows meanwhile is still read whole.
  struct stat St;
  std::string Bytes;
  if (::fstat(Fd, &St) == 0 && St.st_size > 0)
    Bytes.resize(static_cast<size_t>(St.st_size) + 1);
  size_t Len = 0;
  while (true) {
    if (Len == Bytes.size())
      Bytes.resize(Bytes.size() + 4096);
    ssize_t N = ::read(Fd, Bytes.data() + Len, Bytes.size() - Len);
    if (N == 0)
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return false;
    }
    Len += static_cast<size_t>(N);
  }
  ::close(Fd);
  Bytes.resize(Len);
  Out = std::move(Bytes);
  return true;
}

std::vector<std::string> majic::atomicfile::listFiles(
    const std::string &Dir,
    const std::function<bool(std::string_view Name)> &Match) {
  std::vector<std::string> Paths;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Paths;
  // Joined as std::filesystem joins a directory and a file name.
  std::string Base = Dir.empty() || Dir.back() == '/' ? Dir : Dir + "/";
  while (const dirent *E = ::readdir(D)) {
    std::string_view Name = E->d_name;
    if (!Match(Name))
      continue;
    std::string Path = Base;
    Path += Name;
    // The listing's file type spares a stat unless it is a symlink or the
    // file system leaves it unknown.
    bool Regular = E->d_type == DT_REG;
    if (E->d_type == DT_LNK || E->d_type == DT_UNKNOWN) {
      struct stat St;
      Regular = ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
    }
    if (Regular)
      Paths.push_back(std::move(Path));
  }
  ::closedir(D);
  return Paths;
}

unsigned majic::atomicfile::sweepTempFiles(
    const std::string &Dir, std::initializer_list<std::string_view> Suffixes) {
  std::vector<std::string> Patterns;
  for (std::string_view Suffix : Suffixes)
    Patterns.push_back(std::string(Suffix) + kTempMarker);
  unsigned Removed = 0;
  for (const std::string &Path : listFiles(Dir, [&](std::string_view Name) {
         for (const std::string &P : Patterns)
           if (Name.find(P) != std::string_view::npos)
             return true;
         return false;
       }))
    Removed += ::unlink(Path.c_str()) == 0;
  return Removed;
}
