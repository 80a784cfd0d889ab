//===- perfbench/Sandbox.cpp - Keep native-compile scratch in the checkout -===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark reads and writes only inside its checkout. The native
/// tier's compiler driver makes its scratch directory from the fixed
/// template "/tmp/majic-native-XXXXXX" (NativeCompiler.cpp), so majic_perf
/// defines mkdtemp itself, which takes precedence over the C library's for
/// every call linked into this executable. A template under /tmp/ is
/// rebased onto the current directory, in place (the result is shorter
/// than the template); run.py starts majic_perf in .bench_build/tmp. Other
/// templates are created where they name.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

extern "C" char *mkdtemp(char *Template) {
  size_t Len = std::strlen(Template);
  if (Len < 6 || std::strcmp(Template + Len - 6, "XXXXXX") != 0) {
    errno = EINVAL;
    return nullptr;
  }
  if (std::strncmp(Template, "/tmp/", 5) == 0) {
    std::memmove(Template, Template + 5, Len - 5 + 1);
    Len -= 5;
  }
  static std::atomic<uint64_t> Counter{0};
  static const char Digits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  for (int Try = 0; Try != 100; ++Try) {
    uint64_t V = uint64_t(getpid()) * 1000003u + Counter.fetch_add(1);
    for (size_t I = Len - 6; I != Len; ++I, V /= 36)
      Template[I] = Digits[V % 36];
    if (mkdir(Template, 0700) == 0)
      return Template;
    if (errno != EEXIST)
      return nullptr;
  }
  return nullptr;
}
