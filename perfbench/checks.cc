#include "checks.h"

#include <chrono>
#include <cstring>

#include "src/fsck/pfsck.h"
#include "src/journal/journal_recovery.h"
#include "src/sim/rng.h"

namespace perfbench {

using mufs::FileType;
using mufs::FsStatus;
using mufs::Scheme;

namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

mufs::FsckReport Check(const mufs::DiskImage& img, const ImageLayout& l,
                       const mufs::FsckOptions& opt) {
  if (l.shards <= 1) {
    return mufs::FsckChecker(&img, opt).Check();
  }
  mufs::ShardLayout sl{l.shards, l.shard_blocks, l.ino_stride};
  return mufs::PfsckCheckSharded(img, sl, opt);
}

}  // namespace

ImageLayout ImageLayout::Of(mufs::Machine& m) {
  return ImageLayout{static_cast<uint32_t>(m.NumShards()), m.ShardBlocks(), m.InoStride()};
}

bool RepairOnly(Scheme s) { return s == Scheme::kNoOrder || s == Scheme::kAsync; }

Recovery Recover(mufs::DiskImage image, Scheme scheme, const ImageLayout& layout,
                 bool check_stale_data, uint32_t repair_threads, bool crash_image) {
  Recovery r;
  auto t = std::chrono::steady_clock::now();
  if (scheme == Scheme::kJournaling) {
    for (uint32_t s = 0; s < layout.shards; ++s) {
      mufs::JournalRecovery(&image, s * layout.shard_blocks).Run();
    }
  }
  r.replay_s = Since(t);
  mufs::FsckOptions opt;
  opt.check_stale_data = check_stale_data;
  t = std::chrono::steady_clock::now();
  mufs::FsckReport report = Check(image, layout, opt);
  r.check_s = Since(t);
  r.violations = report.violations.size();
  r.blocks_claimed = report.blocks_claimed;
  if (!report.violations.empty()) {
    r.first_violation = std::string(mufs::ToString(report.violations[0].type)) + ": " +
                        report.violations[0].detail;
  }
  // Schemes that promise only repairability are always repaired, so
  // the repair work per image does not depend on what the check found.
  if (!crash_image || !RepairOnly(scheme)) {
    return r;
  }
  t = std::chrono::steady_clock::now();
  opt.threads = repair_threads;
  if (layout.shards <= 1) {
    mufs::PfsckRepair(&image, opt);
  } else {
    mufs::ShardLayout sl{layout.shards, layout.shard_blocks, layout.ino_stride};
    mufs::PfsckRepairSharded(&image, sl, opt);
  }
  opt.threads = 0;
  r.clean_after = Check(image, layout, opt).Clean();
  r.repair_s = Since(t);
  return r;
}

bool CrashSafe(const Recovery& r, Scheme scheme) {
  return RepairOnly(scheme) ? r.clean_after : r.violations == 0;
}

namespace {

mufs::Task<void> Walk(mufs::Machine& m, mufs::Proc& p, std::string dir, Namespace* out,
                      OpLog* log) {
  ++log->attempted;
  mufs::Result<std::vector<mufs::DirEntryInfo>> rd = co_await m.vfs().ReadDir(p, dir);
  if (!rd.Ok()) {
    ++log->failed;
    log->errors.push_back("readdir " + dir + ": " + std::string(mufs::ToString(rd.status())));
    co_return;
  }
  std::vector<mufs::DirEntryInfo> entries = std::move(rd.value());
  std::string prefix = dir == "/" ? "/" : dir + "/";
  for (const mufs::DirEntryInfo& e : entries) {
    if (e.name == "." || e.name == "..") {
      continue;
    }
    std::string path = prefix + e.name;
    if (e.name.empty() || e.name.find('/') != std::string::npos) {
      // A damaged entry: record it, but never resolve it (an empty name
      // resolves to the directory itself and would recurse forever).
      (*out)[prefix + "<bad name, ino " + std::to_string(e.ino) + ">"] =
          Entry{FileType::kRegular, 0, 0};
      continue;
    }
    ++log->attempted;
    mufs::Result<mufs::StatInfo> st = co_await m.vfs().Stat(p, path);
    if (!st.Ok()) {
      ++log->failed;
      log->errors.push_back("stat " + path + ": " + std::string(mufs::ToString(st.status())));
      continue;
    }
    bool is_dir = st.value().type == FileType::kDirectory;
    (*out)[path] = Entry{st.value().type, is_dir ? 0 : st.value().size, 0};
    if (is_dir) {
      co_await Walk(m, p, path, out, log);
    }
  }
}

}  // namespace

mufs::Task<void> WalkNamespace(mufs::Machine& m, mufs::Proc& p, Namespace* out, OpLog* log) {
  std::string root = "/";
  co_await Walk(m, p, root, out, log);
}

std::string CompareNamespace(const Namespace& expected, const Namespace& actual) {
  auto describe = [](const std::string& path, const Entry& e) {
    return path + (e.type == FileType::kDirectory ? " (dir)"
                                                   : " (" + std::to_string(e.size) + " B)");
  };
  auto a = actual.begin();
  for (const auto& [path, want] : expected) {
    if (a == actual.end() || a->first > path) {
      return "missing " + describe(path, want);
    }
    if (a->first < path) {
      return "unexpected " + describe(a->first, a->second);
    }
    bool same = a->second.type == want.type &&
                (want.type == FileType::kDirectory || a->second.size == want.size);
    if (!same) {
      return "expected " + describe(path, want) + ", found " + describe(a->first, a->second);
    }
    ++a;
  }
  return a == actual.end() ? "" : "unexpected " + describe(a->first, a->second);
}

mufs::Task<void> VerifySample(mufs::Machine& m, mufs::Proc& p, const Namespace& expected,
                              uint64_t seed, int count, OpLog* log) {
  std::vector<Op> reads;
  for (const auto& [path, e] : expected) {
    if (e.type == FileType::kRegular) {
      reads.push_back(Op{OpKind::kRead, path, "", 0, e.size, e.content});
    }
  }
  mufs::Rng rng(seed);
  while (static_cast<int>(reads.size()) > count) {
    reads.erase(reads.begin() +
                rng.UniformInt(0, static_cast<int64_t>(reads.size()) - 1));
  }
  co_await RunOps(m, p, reads, log);
}

bool BlocksConserved(uint64_t allocated, uint64_t freed, uint64_t final_claimed,
                     uint64_t fresh_claimed) {
  return allocated - freed == final_claimed - fresh_claimed;
}

namespace {

struct Done {
  bool done = false;
};

// A tiny Conventional machine holding one synced file; returns its
// stable image and the file's inode number.
mufs::DiskImage SyncedOneFileImage(uint32_t* ino_out) {
  mufs::MachineConfig cfg;
  cfg.scheme = Scheme::kConventional;
  cfg.total_inodes = 256;
  mufs::Machine m(cfg);
  mufs::Proc p = m.MakeProc("selftest");
  Done d;
  auto body = [](mufs::Machine* mm, mufs::Proc* pp, uint32_t* ino, Done* dd) -> mufs::Task<void> {
    co_await mm->Boot(*pp);
    std::string path = "/victim";
    mufs::Result<uint32_t> r = co_await mm->vfs().Create(*pp, path);
    *ino = r.ValueOr(0);
    (void)co_await mm->vfs().SyncEverything(*pp);
    dd->done = true;
  };
  m.engine().Spawn(body(&m, &p, ino_out, &d), "selftest");
  m.engine().RunUntil([&] { return d.done; });
  return m.CrashNow();
}

}  // namespace

std::vector<std::string> SelfTest() {
  std::vector<std::string> not_rejected;
  // Crash safety: a directory entry pointing at a freed inode.
  uint32_t ino = 0;
  mufs::DiskImage img = SyncedOneFileImage(&ino);
  ImageLayout single{1, img.TotalBlocks(), 0};
  bool clean_before = CrashSafe(Recover(img, Scheme::kConventional, single, false, 0),
                                Scheme::kConventional);
  mufs::BlockData blk;
  img.Read(0, &blk);
  mufs::SuperBlock sb;
  std::memcpy(&sb, blk.data(), sizeof(sb));
  img.Read(sb.ItableBlock(ino), &blk);
  mufs::DiskInode freed;  // mode kFree.
  std::memcpy(blk.data() + sb.ItableOffset(ino), &freed, sizeof(freed));
  img.Write(sb.ItableBlock(ino), blk, 0);
  Recovery damaged = Recover(img, Scheme::kConventional, single, false, 0);
  if (ino == 0 || !clean_before || CrashSafe(damaged, Scheme::kConventional) ||
      damaged.first_violation.rfind(
          std::string(mufs::ToString(mufs::FsckViolationType::kDanglingDirEntry)), 0) != 0) {
    not_rejected.push_back("crash safety (dangling entry)");
  }
  // Namespace: a changed size, a missing file and an extra file.
  Namespace model = {{"/d", Entry{FileType::kDirectory, 0, 0}},
                     {"/d/f", Entry{FileType::kRegular, 1024, 7}}};
  Namespace resized = model;
  resized["/d/f"].size = 2048;
  Namespace missing = {{"/d", model["/d"]}};
  Namespace extra = model;
  extra["/d/g"] = Entry{FileType::kRegular, 0, 0};
  if (!CompareNamespace(model, model).empty() || CompareNamespace(model, resized).empty() ||
      CompareNamespace(model, missing).empty() || CompareNamespace(model, extra).empty()) {
    not_rejected.push_back("namespace");
  }
  // Data: one flipped byte after the tag, and a wrong generation.
  std::vector<uint8_t> data(6000);
  FillData(9, 3, 5, 0, data);
  bool intact = FirstBadByte(9, 3, 5, 0, data) < 0;
  bool stale = FirstBadByte(9, 4, 5, 0, data) >= 0;
  data[5000] ^= 1;
  if (!intact || !stale || FirstBadByte(9, 3, 5, 0, data) != 5000) {
    not_rejected.push_back("data tags");
  }
  // Conservation: one leaked block.
  if (!BlocksConserved(10, 4, 9, 3) || BlocksConserved(10, 4, 10, 3)) {
    not_rejected.push_back("block conservation");
  }
  return not_rejected;
}

}  // namespace perfbench
