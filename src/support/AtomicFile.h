//===- support/AtomicFile.h - Crash-safe file writes -----------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistent file writes for the persistent code repository. A save
/// writes into a uniquely named temp file next to the target, fsyncs it,
/// and renames it over the target (POSIX rename is atomic within a file
/// system), then fsyncs the directory so the rename itself survives a
/// power cut. A crash at any point leaves either the old file, the new
/// file, or a stray temp file - never a torn target. Temp files left over
/// from a crash are swept by pattern on the next startup.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_ATOMICFILE_H
#define MAJIC_SUPPORT_ATOMICFILE_H

#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace majic {
namespace atomicfile {

/// The marker every temp file name contains; sweepTempFiles matches on it.
extern const char *const kTempMarker;

/// Atomically replaces \p Path with \p Bytes (temp file + fsync + rename +
/// directory fsync). Returns false and fills \p Error on failure; a failed
/// write never leaves a partial target or a temp file behind.
bool writeFileAtomic(const std::string &Path, const std::string &Bytes,
                     std::string *Error = nullptr);

/// Reads all of \p Path into \p Out (binary). Returns false on I/O error.
bool readFile(const std::string &Path, std::string &Out);

/// The paths (\p Dir joined with the name) of the regular files in \p Dir,
/// symlinks followed, whose names \p Match accepts, in listing order. One
/// readdir pass; a name is matched before anything is stat'ed or built
/// from it. A directory that cannot be listed lists nothing.
std::vector<std::string>
listFiles(const std::string &Dir,
          const std::function<bool(std::string_view Name)> &Match);

/// Deletes every regular file in \p Dir whose name contains one of
/// \p Suffixes followed by the temp marker (e.g. leftovers of crashed saves
/// of "*.mjo" files), listing the directory once. Returns the number of
/// files removed.
unsigned sweepTempFiles(const std::string &Dir,
                        std::initializer_list<std::string_view> Suffixes);

} // namespace atomicfile
} // namespace majic

#endif // MAJIC_SUPPORT_ATOMICFILE_H
