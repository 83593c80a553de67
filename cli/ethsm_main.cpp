// The unified `ethsm` CLI: list/print/run experiment presets and spec files,
// inspect and GC checkpoint directories. All logic lives in api/cli.cpp so
// the bench wrappers and tests share it.

#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "api/cli.h"

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // A cell runs its whole sweep list as one pool region, so pool threads stay
  // busy from one sweep's jobs to the next. Under glibc's dynamic mmap
  // threshold (raised by the first large free) each thread's arena would then
  // keep its own high-water mark resident; fixed thresholds return large
  // blocks and free heap tops to the OS, holding peak RSS near the live size.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 2 << 20);
#endif
  return ethsm::api::cli_main(argc, argv);
}
