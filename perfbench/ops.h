// Generated operation scripts for the perfbench workloads.
//
// Every workload is a pure function of its seed: a set-up script (run
// untimed), one script per concurrent user, and the namespace those
// scripts must leave behind (the model the correctness checks compare
// the file system against). The executor issues each script's calls
// itself through Machine::vfs() and times every metadata mutation in
// simulated time, from outside the file system.
#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/machine.h"

namespace perfbench {

enum class OpKind {
  kMkdir,
  kRmdir,
  kCreate,   // Create, then StatIno + WriteFile of `bytes` when bytes > 0.
  kAppend,   // Stat, then WriteFile of `bytes` at offset `size`.
  kUnlink,
  kRename,   // path -> path2.
  kRead,     // Stat, then ReadFile of the whole file, verified.
  kStat,
  kReadDir,
  kSleep,    // Idle for `bytes` nanoseconds of simulated time.
};

struct Op {
  OpKind kind = OpKind::kStat;
  std::string path;
  std::string path2;
  uint64_t bytes = 0;    // Create/append length, or sleep length.
  uint64_t size = 0;     // Append offset / expected size for reads.
  uint32_t content = 0;  // Content id the file's data pattern derives from.
};

// What a path must hold once every script has run.
struct Entry {
  mufs::FileType type = mufs::FileType::kRegular;
  uint64_t size = 0;      // Regular files only.
  uint32_t content = 0;   // Regular files only.
  bool operator==(const Entry&) const = default;
};
using Namespace = std::map<std::string, Entry>;

struct Workload {
  std::string name;
  mufs::MachineConfig base;  // Scheme is filled in per run.
  std::vector<Op> setup;
  std::vector<std::vector<Op>> users;
  Namespace expected;
  bool drop_caches = true;
  // crash_sweep only: crash images taken per scheme and fsck's
  // stale-data check.
  int crash_points = 0;
  bool check_stale_data = false;
  // Input instances (seeds seed*kMaxInstances + i) a run pools.
  int instances = 1;
  // Also run the slot-reuse probe (MakeSlotReuseProbe) once per scheme
  // and round.
  bool slot_reuse_probe = false;
};

inline constexpr uint64_t kMaxInstances = 16;

// The four workloads; an unknown name returns false.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// A fixed script, the same for every seed: one user removes a file
// whose entry is on disk, creates a file that takes the freed directory
// slot, then stats and removes the new file. Soft Updates loses the new
// entry: the removal's pending dependency still owns the slot, and the
// next access of the directory block zeroes the new entry's inode
// number. Its stat and unlink then fail with not found, on every run.
void MakeSlotReuseProbe(Workload* out);

// File contents are a pure function of (ino, generation, content id,
// offset): every 4 KB block starts with the fsck data tag, the rest is a
// pattern of the content id. Appends extend the same function.
void FillData(uint32_t ino, uint32_t generation, uint32_t content, uint64_t offset,
              std::span<uint8_t> out);
// Offset of the first byte of `data` (read from `offset`) that differs
// from FillData, or -1 when it all matches.
int64_t FirstBadByte(uint32_t ino, uint32_t generation, uint32_t content, uint64_t offset,
                     std::span<const uint8_t> data);

// Per-script accounting filled in by RunOps.
struct OpLog {
  uint64_t attempted = 0;  // File-system calls issued.
  uint64_t failed = 0;     // Calls that returned an error.
  uint64_t bad_reads = 0;  // Reads whose data did not match the model.
  std::vector<mufs::SimDuration> mutation_ns;  // create/unlink/mkdir/rmdir/rename.
  std::vector<std::string> errors;             // First few failures, for stderr.
};

mufs::Task<void> RunOps(mufs::Machine& m, mufs::Proc& p, const std::vector<Op>& ops,
                        OpLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
