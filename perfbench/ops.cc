#include "ops.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/fsck/fsck.h"
#include "src/sim/rng.h"
#include "src/workload/tree_gen.h"

namespace perfbench {

using mufs::FileType;
using mufs::FsStatus;
using mufs::Result;
using mufs::Rng;

namespace {

// Workload sizes. Each scheme must see at least 1,000 metadata
// mutations per workload, so every op_p99_ms has ten samples above it.
constexpr int kRemoveUsers = 4;
constexpr int kRemoveInstances = 3;
constexpr int kCreateRemoveUsers = 4;
constexpr int kCreateRemovePairs = 300;   // Per user.
constexpr int kChurnUsers = 2;
constexpr int kChurnPhases = 8;
constexpr int kChurnRenames = 4;           // Per phase.
constexpr int kSettleMs = 16000;
constexpr int kCrashPoints = 4;           // Crash images per scheme and instance.
constexpr int kCrashInstances = 3;

// Builds one script while keeping the expected namespace in step, so
// every generated op is valid against the state its script will see.
class Script {
 public:
  Script(Namespace* ns, uint32_t* next_content) : ns_(ns), next_content_(next_content) {}

  std::vector<Op>& ops() { return ops_; }

  void Mkdir(const std::string& path) {
    Push(OpKind::kMkdir, path);
    (*ns_)[path] = Entry{FileType::kDirectory, 0, 0};
  }
  void Rmdir(const std::string& path) {
    Push(OpKind::kRmdir, path);
    ns_->erase(path);
  }
  void Create(const std::string& path, uint64_t bytes) {
    Op& op = Push(OpKind::kCreate, path);
    op.bytes = bytes;
    op.content = (*next_content_)++;
    (*ns_)[path] = Entry{FileType::kRegular, bytes, op.content};
  }
  void Append(const std::string& path, uint64_t bytes) {
    Entry& e = ns_->at(path);
    Op& op = Push(OpKind::kAppend, path);
    op.bytes = bytes;
    op.size = e.size;
    op.content = e.content;
    e.size += bytes;
  }
  void Unlink(const std::string& path) {
    Push(OpKind::kUnlink, path);
    ns_->erase(path);
  }
  // Regular files only: a directory rename would move its subtree.
  void Rename(const std::string& from, const std::string& to) {
    Op& op = Push(OpKind::kRename, from);
    op.path2 = to;
    auto node = ns_->extract(from);
    node.key() = to;
    ns_->insert(std::move(node));
  }
  void Read(const std::string& path) {
    const Entry& e = ns_->at(path);
    Op& op = Push(OpKind::kRead, path);
    op.size = e.size;
    op.content = e.content;
  }
  void Stat(const std::string& path) {
    const Entry& e = ns_->at(path);
    Op& op = Push(OpKind::kStat, path);
    op.size = e.size;
    op.content = e.type == FileType::kDirectory ? 1 : 0;
  }
  void ReadDir(const std::string& path) { Push(OpKind::kReadDir, path); }
  void Sleep(mufs::SimDuration d) { Push(OpKind::kSleep, "").bytes = static_cast<uint64_t>(d); }

 private:
  Op& Push(OpKind kind, const std::string& path) {
    ops_.push_back(Op{kind, path, "", 0, 0, 0});
    return ops_.back();
  }

  Namespace* ns_;
  uint32_t* next_content_;
  std::vector<Op> ops_;
};

// Paths in `ns` directly under `dir` with the given type.
std::vector<std::string> Children(const Namespace& ns, const std::string& dir, FileType type) {
  std::vector<std::string> out;
  std::string prefix = dir + "/";
  for (auto it = ns.lower_bound(prefix); it != ns.end() && it->first.starts_with(prefix);
       ++it) {
    if (it->second.type == type && it->first.find('/', prefix.size()) == std::string::npos) {
      out.push_back(it->first);
    }
  }
  return out;
}

template <typename Container>
const auto& Pick(Rng& rng, const Container& v) {
  return v[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
}

// Sizes in whole 512-byte units so no 4 KB block holds a partial tag.
uint64_t SmallSize(Rng& rng, int max_units) {
  return 512 * static_cast<uint64_t>(rng.UniformInt(1, max_units));
}

// Files outside the users' subtrees that every workload keeps to the
// end, so sampled data reads always have survivors to check.
void KeepDir(Script& s, Rng& rng) {
  s.Mkdir("/keep");
  for (int i = 0; i < 12; ++i) {
    s.Create("/keep/k" + std::to_string(i), SmallSize(rng, 128));
  }
}

// Exactly `k` distinct indices of [0, n), picked by the seed: fixed
// counts keep every seed's op mix (and so its latency tail) the same.
std::vector<bool> ChooseExactly(Rng& rng, size_t n, size_t k) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    idx[i] = i;
  }
  std::vector<bool> chosen(n, false);
  for (size_t i = 0; i < k && i < n; ++i) {
    size_t j = i + static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n - i) - 1));
    std::swap(idx[i], idx[j]);
    chosen[idx[i]] = true;
  }
  return chosen;
}

void RemoveTree(uint64_t seed, Workload* w) {
  w->instances = kRemoveInstances;
  // One generated 535-file, 14.3 MB tree per user.
  std::vector<mufs::TreeSpec> trees;
  for (int u = 0; u < kRemoveUsers; ++u) {
    mufs::TreeGenOptions opt;
    opt.seed = seed * kRemoveUsers + static_cast<uint64_t>(u);
    trees.push_back(mufs::GenerateTree(opt));
  }
  Rng rng(seed ^ 0x72656d6f7665ull);
  uint32_t content = 1;
  Script setup(&w->expected, &content);
  KeepDir(setup, rng);
  for (int u = 0; u < kRemoveUsers; ++u) {
    std::string root = "/tree" + std::to_string(u);
    setup.Mkdir(root);
    for (const auto& d : trees[static_cast<size_t>(u)].directories) {
      setup.Mkdir(root + "/" + d);
    }
    for (const auto& f : trees[static_cast<size_t>(u)].files) {
      setup.Create(root + "/" + f.path, f.size);
    }
  }
  w->setup = std::move(setup.ops());
  // The paper's recursive remove: every file, then the directories
  // deepest-first, then the root.
  for (int u = 0; u < kRemoveUsers; ++u) {
    const mufs::TreeSpec& tree = trees[static_cast<size_t>(u)];
    std::string root = "/tree" + std::to_string(u);
    Script s(&w->expected, &content);
    for (const auto& f : tree.files) {
      s.Unlink(root + "/" + f.path);
    }
    for (auto it = tree.directories.rbegin(); it != tree.directories.rend(); ++it) {
      s.Rmdir(root + "/" + *it);
    }
    s.Rmdir(root);
    w->users.push_back(std::move(s.ops()));
  }
}

// Fig 5c's body: each user creates 1 KB files in its own directory and
// removes each right away; one in sixteen, at seeded positions,
// survives.
void CreateRemove1k(uint64_t seed, Workload* w) {
  Rng rng(seed ^ 0x637265617465ull);
  uint32_t content = 1;
  Script setup(&w->expected, &content);
  KeepDir(setup, rng);
  for (int u = 0; u < kCreateRemoveUsers; ++u) {
    setup.Mkdir("/u" + std::to_string(u));
  }
  w->setup = std::move(setup.ops());
  for (int u = 0; u < kCreateRemoveUsers; ++u) {
    Script s(&w->expected, &content);
    std::string dir = "/u" + std::to_string(u) + "/";
    // One file in sixteen survives, so the final namespace is not empty.
    std::vector<bool> keep = ChooseExactly(rng, kCreateRemovePairs, kCreateRemovePairs / 16);
    for (int i = 0; i < kCreateRemovePairs; ++i) {
      std::string path = dir + "f" + std::to_string(rng.UniformInt(0, 1 << 20)) + "_" +
                         std::to_string(i);
      s.Create(path, 1024);
      if (!keep[static_cast<size_t>(i)]) {
        s.Unlink(path);
      }
    }
    w->users.push_back(std::move(s.ops()));
  }
}

// Seeded churn with syncer-separated phases, shaped like
// crash_consistency_test's churn but run by two concurrent users: each
// phase's updates land against the previous phase's on-disk state, which
// is where an unordered scheme leaves dangling entries and exposed stale
// data. Renames are followed by creates, create/remove pairs and
// directory churn in the same phase and by the next phase's creates.
void CrashSweep(uint64_t seed, Workload* w) {
  w->base.alloc_init = true;
  w->base.syncer.sweep_seconds = 3;
  // One CPU per churn user: the users' phases run in step, and on one
  // CPU about half the calls would wait for the other user's CPU charge,
  // which puts the median latency on the edge between two values.
  w->base.cpus = kChurnUsers;
  w->drop_caches = false;
  w->crash_points = kCrashPoints;
  w->instances = kCrashInstances;
  w->check_stale_data = true;
  Rng rng(seed ^ 0x6372617368ull);
  uint32_t content = 1;
  Script setup(&w->expected, &content);
  KeepDir(setup, rng);
  w->setup = std::move(setup.ops());
  Namespace& ns = w->expected;
  int next = 0;
  auto fresh = [&](const std::string& dir) { return dir + "/c" + std::to_string(next++); };
  // Two churn users, each in its own directories.
  for (int u = 0; u < kChurnUsers; ++u) {
    Script s(&ns, &content);
    const std::string id = std::to_string(u);
    const std::array<std::string, 3> tops = {"/a" + id, "/b" + id, "/c" + id};
    auto mine = [&](const std::string& path) {
      return std::any_of(tops.begin(), tops.end(),
                         [&](const std::string& t) { return path.starts_with(t + "/"); });
    };
    for (const auto& t : tops) {
      s.Mkdir(t);
    }
    // Think time between phases: long enough for the syncer to push a
    // phase to disk.
    auto pause = [&] { s.Sleep(mufs::Msec(4000)); };
    // Before creates that follow removals: long enough for the removals'
    // cleared entries to reach disk. A rename's removal is held until the
    // new entry is on disk, which takes up to three syncer sweeps. A
    // create that reuses the slot of a removal still in memory is lost
    // under Soft Updates (see MakeSlotReuseProbe), at seed-dependent
    // points; the probe shows that fault on fixed inputs instead.
    auto settle = [&] { s.Sleep(mufs::Msec(kSettleMs)); };
    auto all_files = [&] {
      std::vector<std::string> out;
      for (const auto& [path, e] : ns) {
        if (e.type == FileType::kRegular && mine(path)) {
          out.push_back(path);
        }
      }
      return out;
    };
    for (int phase = 0; phase < kChurnPhases; ++phase) {
      std::vector<std::string> dirs(tops.begin(), tops.end());
      for (const auto& [path, e] : ns) {
        if (e.type == FileType::kDirectory && mine(path)) {
          dirs.push_back(path);
        }
      }
      // Creates spread over every directory.
      for (int i = 0; i < 40; ++i) {
        s.Create(fresh(Pick(rng, dirs)), SmallSize(rng, 24));
      }
      pause();
      // Free half: blocks and inodes become reusable.
      std::vector<std::string> files = all_files();
      std::vector<bool> drop = ChooseExactly(rng, files.size(), files.size() / 2);
      for (size_t i = 0; i < files.size(); ++i) {
        if (drop[i]) {
          s.Unlink(files[i]);
        }
      }
      settle();
      // Reuse them.
      for (int i = 0; i < 25; ++i) {
        s.Create(fresh(Pick(rng, dirs)), SmallSize(rng, 16));
      }
      pause();
      // Renames within and across directories, then more creates.
      files = all_files();
      for (int i = 0; i < kChurnRenames; ++i) {
        size_t k = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(files.size()) - 1));
        const std::string& from = files[k];
        std::string dir = from.substr(0, from.rfind('/'));
        s.Rename(from, fresh(i % 2 == 0 ? dir : Pick(rng, tops)));
        files.erase(files.begin() + static_cast<std::ptrdiff_t>(k));
      }
      // Create/remove pairs and directory churn.
      for (int i = 0; i < 8; ++i) {
        std::string f = fresh(Pick(rng, dirs));
        s.Create(f, SmallSize(rng, 4));
        s.Unlink(f);
      }
      std::string sub = Pick(rng, tops) + "/d" + std::to_string(next++);
      s.Mkdir(sub);
      s.Create(sub + "/x", SmallSize(rng, 8));
      std::vector<std::string> subs(dirs.begin() + tops.size(), dirs.end());
      std::vector<bool> gone = ChooseExactly(rng, subs.size(), (subs.size() + 1) / 2);
      for (size_t i = 0; i < subs.size(); ++i) {
        if (gone[i]) {
          for (const std::string& f : Children(ns, subs[i], FileType::kRegular)) {
            s.Unlink(f);
          }
          s.Rmdir(subs[i]);
        }
      }
      settle();
    }
    pause();
    w->users.push_back(std::move(s.ops()));
  }
}

}  // namespace

void MakeSlotReuseProbe(Workload* out) {
  *out = Workload{};
  out->name = "slot_reuse_probe";
  uint32_t content = 1;
  Script setup(&out->expected, &content);
  setup.Mkdir("/p");
  for (int i = 0; i < 4; ++i) {
    setup.Create("/p/f" + std::to_string(i), 1024);
  }
  out->setup = std::move(setup.ops());
  // RunMultiUser syncs after set-up, so /p/f0's entry is on disk.
  Script s(&out->expected, &content);
  s.Unlink("/p/f0");
  s.Create("/p/g", 1024);
  s.Stat("/p/g");
  s.Unlink("/p/g");
  out->users.push_back(std::move(s.ops()));
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "remove_tree") {
    RemoveTree(seed, out);
  } else if (name == "create_remove_1k") {
    CreateRemove1k(seed, out);
    out->slot_reuse_probe = true;
  } else if (name == "create_remove_volume") {
    // The same body on a 2-disk striped volume with sharded metadata
    // (one shard and one CPU per disk), pooled over more instances: its
    // op tail varies more with the input. Clean caches are dropped after
    // set-up, as in create_remove_1k.
    out->base.disks = 2;
    out->instances = 4;
    out->drop_caches = true;
    CreateRemove1k(seed, out);
  } else if (name == "crash_sweep") {
    CrashSweep(seed, out);
  } else {
    return false;
  }
  return true;
}

namespace {

// One 64-bit pattern word per aligned 8 bytes of the file.
uint64_t PatternWord(uint32_t content, uint64_t word) {
  uint64_t x = (word + 1) * 0x9e3779b97f4a7c15ull ^ (content + 1ull) * 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

}  // namespace

void FillData(uint32_t ino, uint32_t generation, uint32_t content, uint64_t offset,
              std::span<uint8_t> out) {
  std::array<uint8_t, sizeof(mufs::DataBlockTag)> tag{};
  mufs::TagDataBlock(tag.data(), ino, generation);
  size_t i = 0;
  while (i < out.size()) {
    uint64_t o = offset + i;
    uint64_t in_block = o % mufs::kBlockSize;
    if (in_block < tag.size()) {
      out[i++] = tag[in_block];
      continue;
    }
    uint64_t w = PatternWord(content, o / 8);
    size_t n = std::min<size_t>(8 - o % 8, out.size() - i);
    std::memcpy(out.data() + i, reinterpret_cast<const uint8_t*>(&w) + o % 8, n);
    i += n;
  }
}

int64_t FirstBadByte(uint32_t ino, uint32_t generation, uint32_t content, uint64_t offset,
                     std::span<const uint8_t> data) {
  std::vector<uint8_t> want(data.size());
  FillData(ino, generation, content, offset, want);
  auto [a, b] = std::mismatch(data.begin(), data.end(), want.begin());
  return a == data.end() ? -1 : static_cast<int64_t>(a - data.begin());
}

namespace {

void Fail(OpLog* log, const Op& op, const char* call, FsStatus st) {
  ++log->failed;
  if (log->errors.size() < 5) {
    log->errors.push_back(std::string(call) + " " + op.path + ": " +
                          std::string(mufs::ToString(st)));
  }
}

void BadRead(OpLog* log, const Op& op, const std::string& why) {
  ++log->bad_reads;
  if (log->errors.size() < 5) {
    log->errors.push_back("read check " + op.path + ": " + why);
  }
}

}  // namespace

mufs::Task<void> RunOps(mufs::Machine& m, mufs::Proc& p, const std::vector<Op>& ops,
                        OpLog* log) {
  mufs::FsInterface& fs = m.vfs();
  mufs::Engine& eng = m.engine();
  std::vector<uint8_t> buf;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kSleep) {
      co_await eng.Sleep(static_cast<mufs::SimDuration>(op.bytes));
      continue;
    }
    mufs::SimTime t0 = eng.Now();
    ++log->attempted;
    switch (op.kind) {
      case OpKind::kMkdir:
      case OpKind::kRmdir:
      case OpKind::kUnlink:
      case OpKind::kRename: {
        FsStatus st = FsStatus::kOk;
        if (op.kind == OpKind::kMkdir) {
          st = co_await fs.Mkdir(p, op.path);
        } else if (op.kind == OpKind::kRmdir) {
          st = co_await fs.Rmdir(p, op.path);
        } else if (op.kind == OpKind::kUnlink) {
          st = co_await fs.Unlink(p, op.path);
        } else {
          st = co_await fs.Rename(p, op.path, op.path2);
        }
        log->mutation_ns.push_back(eng.Now() - t0);
        if (st != FsStatus::kOk) {
          Fail(log, op, "mutate", st);
        }
        break;
      }
      case OpKind::kCreate: {
        Result<uint32_t> ino = co_await fs.Create(p, op.path);
        log->mutation_ns.push_back(eng.Now() - t0);
        if (!ino.Ok()) {
          Fail(log, op, "create", ino.status());
          break;
        }
        if (op.bytes == 0) {
          break;
        }
        ++log->attempted;
        Result<mufs::StatInfo> st = co_await fs.StatIno(p, ino.value());
        if (!st.Ok()) {
          Fail(log, op, "statino", st.status());
          break;
        }
        buf.resize(op.bytes);
        FillData(ino.value(), st.value().generation, op.content, 0, buf);
        std::span<const uint8_t> data(buf);
        ++log->attempted;
        Result<uint64_t> wr = co_await fs.WriteFile(p, ino.value(), 0, data);
        if (!wr.Ok()) {
          Fail(log, op, "write", wr.status());
        }
        break;
      }
      case OpKind::kAppend:
      case OpKind::kRead:
      case OpKind::kStat: {
        Result<mufs::StatInfo> st = co_await fs.Stat(p, op.path);
        if (!st.Ok()) {
          Fail(log, op, "stat", st.status());
          break;
        }
        const mufs::StatInfo& info = st.value();
        bool is_dir = info.type == FileType::kDirectory;
        if (op.kind == OpKind::kStat) {
          if (is_dir != (op.content == 1) || (!is_dir && info.size != op.size)) {
            BadRead(log, op, "stat mismatch");
          }
          break;
        }
        if (info.size != op.size) {
          BadRead(log, op, "size " + std::to_string(info.size) + " != " +
                               std::to_string(op.size));
          break;
        }
        ++log->attempted;
        if (op.kind == OpKind::kAppend) {
          buf.resize(op.bytes);
          FillData(info.ino, info.generation, op.content, op.size, buf);
          std::span<const uint8_t> data(buf);
          Result<uint64_t> wr = co_await fs.WriteFile(p, info.ino, op.size, data);
          if (!wr.Ok()) {
            Fail(log, op, "append", wr.status());
          }
          break;
        }
        buf.assign(op.size, 0);
        std::span<uint8_t> out(buf);
        Result<uint64_t> rd = co_await fs.ReadFile(p, info.ino, 0, out);
        if (!rd.Ok()) {
          Fail(log, op, "read", rd.status());
        } else if (rd.value() != op.size) {
          BadRead(log, op, "read " + std::to_string(rd.value()) + " of " +
                               std::to_string(op.size) + " bytes");
        } else if (int64_t bad = FirstBadByte(info.ino, info.generation, op.content, 0, buf);
                   bad >= 0) {
          mufs::DataBlockTag tag;
          std::memcpy(&tag, buf.data() + bad / mufs::kBlockSize * mufs::kBlockSize, sizeof(tag));
          BadRead(log, op, "data differs at byte " + std::to_string(bad) + " of " +
                               std::to_string(op.size) + "; block tag ino " +
                               std::to_string(tag.ino) + " gen " +
                               std::to_string(tag.generation) + ", file ino " +
                               std::to_string(info.ino) + " gen " +
                               std::to_string(info.generation));
        }
        break;
      }
      case OpKind::kReadDir: {
        Result<std::vector<mufs::DirEntryInfo>> rd = co_await fs.ReadDir(p, op.path);
        if (!rd.Ok()) {
          Fail(log, op, "readdir", rd.status());
        }
        break;
      }
      case OpKind::kSleep:
        break;
    }
  }
}

}  // namespace perfbench
