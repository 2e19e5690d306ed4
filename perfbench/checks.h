// Correctness checks of the perfbench workloads, judged against
// properties rather than saved output:
//   - crash safety of a stable-storage image under the scheme's own
//     promise (zero fsck violations, or repair to a clean re-check);
//   - the namespace left after the drain equals the generated model;
//   - sampled file data reads back with its tags and content pattern;
//   - block conservation between the fs counters and the final image.
// SelfTest() feeds each check a damaged input and requires it to fail.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ops.h"
#include "src/core/machine.h"
#include "src/fsck/fsck.h"

namespace perfbench {

// Where the file systems sit inside a (possibly sharded) volume image.
struct ImageLayout {
  uint32_t shards = 1;
  uint32_t shard_blocks = 0;
  uint32_t ino_stride = 0;
  static ImageLayout Of(mufs::Machine& m);
};

// Result of recovering one image: journal replay, fsck check, and repair
// plus re-check where the scheme promises only repairability.
struct Recovery {
  size_t violations = 0;
  std::string first_violation;
  bool clean_after = true;  // Re-check after repair had no violations.
  uint64_t blocks_claimed = 0;
  double replay_s = 0;  // Host seconds per stage.
  double check_s = 0;
  double repair_s = 0;
};

// Schemes that promise only repairability: No Order and Async.
bool RepairOnly(mufs::Scheme s);

// `crash_image` false checks a drained image: no replay-only scheme is
// repaired, since every scheme must leave it clean.
Recovery Recover(mufs::DiskImage image, mufs::Scheme scheme, const ImageLayout& layout,
                 bool check_stale_data, uint32_t repair_threads, bool crash_image = true);

// True when the image keeps the scheme's crash promise.
bool CrashSafe(const Recovery& r, mufs::Scheme scheme);

// The live namespace: every path under "/" with its type and, for
// regular files, its size (content ids are not observable).
mufs::Task<void> WalkNamespace(mufs::Machine& m, mufs::Proc& p, Namespace* out, OpLog* log);

// Empty when `actual` matches `expected` in names, types and file sizes;
// otherwise the first difference. Directory sizes are not compared: they
// depend on how concurrent users interleave in shared parents.
std::string CompareNamespace(const Namespace& expected, const Namespace& actual);

// Reads up to `count` regular files picked from `expected` by `seed` and
// verifies their data; counts mismatches in log->bad_reads.
mufs::Task<void> VerifySample(mufs::Machine& m, mufs::Proc& p, const Namespace& expected,
                              uint64_t seed, int count, OpLog* log);

// fs.blocks_allocated - fs.blocks_freed must equal the blocks fsck finds
// claimed in the final image minus those of a freshly formatted one.
bool BlocksConserved(uint64_t allocated, uint64_t freed, uint64_t final_claimed,
                     uint64_t fresh_claimed);

// Runs every check on a damaged input and returns the names of checks
// that failed to reject it (empty = every check can fail).
std::vector<std::string> SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
