// perfbench: one workload under all seven ordering schemes, from one
// process. Prints one JSON object on its last stdout line:
//   {"correct":..,"attempted":..,"failed":..,"problems":[..],
//    "end_to_end":{name:{value,unit}},"per_layer":{name:{value,unit}}}
// perfbench/run.py builds this binary, selects the metric set for
// --trace and adds the gprof host profile.
//
//   perfbench --workload remove_tree --seed 1 --seconds 10
//
// A run repeats rounds (every scheme once, same inputs) until --seconds
// of host time have passed. Host metrics are medians over rounds; the
// simulated metrics come from round 0 and every later round must
// reproduce them exactly.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "ops.h"
#include "src/fsck/crash_harness.h"
#include "src/workload/workloads.h"

namespace perfbench {
namespace {

using mufs::Machine;
using mufs::Scheme;
using mufs::SimDuration;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Host-speed calibration. The shared host's speed drifts by tens of
// percent over seconds, alike for every code path. A fixed loop owned by
// the benchmark (hash-map updates and a sort, like the simulator's
// pointer-heavy work, and untouched by changes to the simulator) runs
// after every scheme; host times are scaled by kCalibrationRefS over its
// median time in the run, i.e. reported in reference-machine seconds.
// ---------------------------------------------------------------------

// Median calibration time on the 4-vCPU machine the first numbers were
// taken on (README).
constexpr double kCalibrationRefS = 0.020;

double Calibrate() {
  Clock::time_point t0 = Clock::now();
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t x = 1;
  for (int i = 0; i < 300000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 33) % 60000] += static_cast<uint64_t>(i);
  }
  std::vector<uint64_t> v;
  v.reserve(table.size());
  for (const auto& [k, val] : table) {
    v.push_back(k ^ val);
  }
  std::sort(v.begin(), v.end());
  volatile uint64_t sink = v[v.size() / 2];
  (void)sink;
  return Since(t0);
}

// ---------------------------------------------------------------------
// Layer counters read from the stats registry around the timed phase.
// ---------------------------------------------------------------------

// Counters summed over member disks on a striped volume ("disk0.x").
const char* const kDiskCounters[] = {"disk.reads", "disk.writes", "disk.blocks_written",
                                     "disk.busy_ns", "disk.merged_requests",
                                     "disk.model.prefetch_hits"};
const char* const kDiskHistograms[] = {"disk.access_ns", "disk.response_ns", "disk.queue_ns"};
const char* const kCounters[] = {
    "cache.hits",           "cache.misses",         "cache.sync_writes",
    "cache.delayed_writes", "cache.write_lock_waits", "cache.copy_budget_waits",
    "syncer.passes",        "policy.ordering_points", "su.cancelled_pairs",
    "su.undos",             "su.redos",             "su.deferred_frees",
    "journal.txns",         "journal.forced_commits", "journal.checkpoint_stalls",
    "journal.log_writes",   "async.op_stalls",      "async.epochs",
    "volume.held",          "volume.splits",        "fs.blocks_allocated",
    "fs.blocks_freed"};

struct Hist {
  std::vector<mufs::SimDuration> edges;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  mufs::SimDuration sum = 0;
  mufs::SimDuration max = 0;

  void Add(const mufs::LatencyHistogram& h) {
    if (edges.empty()) {
      edges = h.edges();
      buckets.assign(h.buckets().size(), 0);
    }
    for (size_t i = 0; i < buckets.size() && i < h.buckets().size(); ++i) {
      buckets[i] += h.buckets()[i];
    }
    count += h.count();
    sum += h.sum();
    max = std::max(max, h.max());
  }
  void Merge(const Hist& o) {
    if (edges.empty()) {
      *this = o;
      return;
    }
    for (size_t i = 0; i < buckets.size() && i < o.buckets.size(); ++i) {
      buckets[i] += o.buckets[i];
    }
    count += o.count;
    sum += o.sum;
    max = std::max(max, o.max);
  }
  // Upper bucket edge holding the q-quantile (bucket resolution).
  double QuantileMs(double q) const {
    if (count == 0) {
      return 0;
    }
    uint64_t need = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen >= need) {
        return mufs::ToMs(i < edges.size() ? edges[i] : max);
      }
    }
    return mufs::ToMs(max);
  }
  double MeanMs() const {
    return count > 0 ? mufs::ToMs(sum) / static_cast<double>(count) : 0;
  }
};

struct LayerSnapshot {
  std::map<std::string, double> counters;
  std::vector<double> disk_busy_ns;  // Per member disk.
  std::map<std::string, Hist> hists;
  uint64_t events = 0;
  SimDuration cpu = 0;
};

LayerSnapshot Snapshot(Machine& m) {
  LayerSnapshot s;
  mufs::StatsRegistry& st = m.stats();
  for (const char* c : kCounters) {
    s.counters[c] = static_cast<double>(st.counter(c).value());
  }
  const size_t disks = m.NumDisks();
  for (size_t d = 0; d < disks; ++d) {
    std::string inst = disks > 1 ? "disk" + std::to_string(d) : "";
    for (const char* c : kDiskCounters) {
      s.counters[c] += static_cast<double>(st.counter(mufs::InstanceMetricName(inst, c)).value());
    }
    s.disk_busy_ns.push_back(
        static_cast<double>(st.counter(mufs::InstanceMetricName(inst, "disk.busy_ns")).value()));
    for (const char* h : kDiskHistograms) {
      s.hists[h].Add(st.histogram(mufs::InstanceMetricName(inst, h)));
    }
  }
  s.hists["async.barrier_wait_ns"].Add(st.histogram("async.barrier_wait_ns"));
  s.events = m.engine().EventsProcessed();
  s.cpu = m.cpu().TotalCharged();
  return s;
}

// end - begin, for the timed phase only.
LayerSnapshot Delta(const LayerSnapshot& a, const LayerSnapshot& b) {
  LayerSnapshot d;
  for (const auto& [k, v] : b.counters) {
    d.counters[k] = v - a.counters.at(k);
  }
  for (size_t i = 0; i < b.disk_busy_ns.size(); ++i) {
    d.disk_busy_ns.push_back(b.disk_busy_ns[i] - a.disk_busy_ns[i]);
  }
  for (const auto& [k, h] : b.hists) {
    Hist x = h;
    const Hist& y = a.hists.at(k);
    for (size_t i = 0; i < x.buckets.size(); ++i) {
      x.buckets[i] -= y.buckets[i];
    }
    x.count -= y.count;
    x.sum -= y.sum;
    d.hists[k] = x;
  }
  d.events = b.events - a.events;
  d.cpu = b.cpu - a.cpu;
  return d;
}

// ---------------------------------------------------------------------
// One scheme's run of a workload.
// ---------------------------------------------------------------------

struct SchemeRun {
  Scheme scheme = Scheme::kConventional;
  // Host seconds.
  double setup_s = 0;
  double users_s = 0;
  double drain_s = 0;
  double crash_s = 0;  // crash_sweep: rerun + recovery of every image.
  double rerun_s = 0;
  double replay_s = 0;
  double check_s = 0;
  double repair_s = 0;
  uint64_t images = 0;
  uint64_t crash_images = 0;  // Images of the crash sweep (every round).
  uint64_t images_violating = 0;
  // Simulated.
  SimDuration elapsed = 0;
  SimDuration durable = 0;
  std::vector<SimDuration> latency;  // Sorted mutation latencies.
  LayerSnapshot layer;
  double dirty_blocks_max = 0;
  OpLog log;
  std::vector<std::string> problems;

  double Host() const { return users_s + drain_s + crash_s; }
  // Converts the timed host seconds to reference-machine seconds.
  void ScaleHost(double speed) {
    for (double* t : {&users_s, &drain_s, &crash_s, &rerun_s, &replay_s, &check_s, &repair_s}) {
      *t *= speed;
    }
  }
  std::string Fingerprint() const {
    std::string f = std::to_string(elapsed) + "/" + std::to_string(durable) + "/" +
                    std::to_string(layer.events) + "/" + std::to_string(images_violating) +
                    "/" + std::to_string(log.failed);
    for (SimDuration l : latency) {
      f += "," + std::to_string(l);
    }
    return f;
  }
};

// Pools one more input instance's run of the same scheme into `into`:
// host times, simulated times, counters and images add up; latencies
// pool (sorted again by the caller).
void Merge(SchemeRun* into, SchemeRun&& r) {
  into->setup_s += r.setup_s;
  into->users_s += r.users_s;
  into->drain_s += r.drain_s;
  into->crash_s += r.crash_s;
  into->rerun_s += r.rerun_s;
  into->replay_s += r.replay_s;
  into->check_s += r.check_s;
  into->repair_s += r.repair_s;
  into->images += r.images;
  into->crash_images += r.crash_images;
  into->images_violating += r.images_violating;
  into->elapsed += r.elapsed;
  into->durable += r.durable;
  into->latency.insert(into->latency.end(), r.latency.begin(), r.latency.end());
  for (const auto& [k, v] : r.layer.counters) {
    into->layer.counters[k] += v;
  }
  into->layer.disk_busy_ns.resize(r.layer.disk_busy_ns.size(), 0);
  for (size_t d = 0; d < r.layer.disk_busy_ns.size(); ++d) {
    into->layer.disk_busy_ns[d] += r.layer.disk_busy_ns[d];
  }
  for (const auto& [k, h] : r.layer.hists) {
    into->layer.hists[k].Merge(h);
  }
  into->layer.events += r.layer.events;
  into->layer.cpu += r.layer.cpu;
  into->dirty_blocks_max = std::max(into->dirty_blocks_max, r.dirty_blocks_max);
  into->log.attempted += r.log.attempted;
  into->log.failed += r.log.failed;
  into->log.bad_reads += r.log.bad_reads;
  into->problems.insert(into->problems.end(), r.problems.begin(), r.problems.end());
}

SimDuration Percentile(const std::vector<SimDuration>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

mufs::MachineConfig ConfigFor(const Workload& w, Scheme s) {
  mufs::MachineConfig cfg = w.base;
  cfg.scheme = s;
  return cfg;
}

uint32_t RepairThreads() {
  return std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 4);
}

void Problem(SchemeRun* r, const std::string& what) {
  r->problems.push_back(std::string(mufs::SchemeName(r->scheme)) + ": " + what);
}

struct RunCtx {
  const Workload* w;
  SchemeRun* run;
  Clock::time_point host_users0;
  Clock::time_point host_users_done;
  mufs::SimTime t0 = 0;
  mufs::SimTime t_done = 0;
  int started = 0;
  int finished = 0;
  bool snapshot = false;
  LayerSnapshot before;
  std::vector<OpLog> logs;
  std::unique_ptr<mufs::DiskImage> last_user_image;
};

mufs::Task<void> Verify(Machine* m, mufs::Proc* p, const Workload* w, uint64_t seed,
                        Namespace* ns, OpLog* log, bool* done) {
  co_await WalkNamespace(*m, *p, ns, log);
  co_await VerifySample(*m, *p, w->expected, seed, 32, log);
  // The final image is the synced one: at quiescence Journaling's
  // stable image can still lack the last transactions (see README).
  ++log->attempted;
  mufs::FsStatus synced = co_await m->vfs().SyncEverything(*p);
  if (synced != mufs::FsStatus::kOk) {
    ++log->failed;
  }
  *done = true;
}

// Blocks fsck finds claimed in a freshly formatted image of this shape
// (disk count, and whether a journal extent is reserved).
uint64_t FreshClaimed(const mufs::MachineConfig& cfg) {
  static std::map<std::pair<uint32_t, bool>, uint64_t> cache;
  auto key = std::make_pair(cfg.disks, cfg.scheme == Scheme::kJournaling);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Machine fresh(cfg);
    uint64_t claimed = Recover(fresh.CrashNow(), cfg.scheme, ImageLayout::Of(fresh), false, 0,
                               false).blocks_claimed;
    it = cache.emplace(key, claimed).first;
  }
  return it->second;
}

mufs::Task<void> RunUser(Machine* m, mufs::Proc* p, const std::vector<Op>* ops, OpLog* log,
                         int* running) {
  co_await RunOps(*m, *p, *ops, log);
  --*running;
}

// The crash harness's workload: the set-up script, then every user's
// script concurrently (user 0 on the harness's process).
mufs::Task<void> RunAllUsers(Machine& m, mufs::Proc& p, const Workload& w, OpLog* log) {
  co_await RunOps(m, p, w.setup, log);
  int running = static_cast<int>(w.users.size()) - 1;
  std::vector<mufs::Proc> procs;
  procs.reserve(w.users.size());
  for (size_t u = 1; u < w.users.size(); ++u) {
    procs.push_back(m.MakeProc("churn" + std::to_string(u)));
    m.engine().Spawn(RunUser(&m, &procs.back(), &w.users[u], log, &running), procs.back().name);
  }
  co_await RunOps(m, p, w.users[0], log);
  while (running > 0) {
    co_await m.engine().Sleep(mufs::Msec(10));
  }
}

// `verify` runs the correctness checks after the drain; `last_user_image`
// also recovers the image taken when the last user finished.
SchemeRun RunScheme(const Workload& w, Scheme scheme, uint64_t seed, bool verify,
                    bool last_user_image) {
  SchemeRun r;
  r.scheme = scheme;
  Clock::time_point setup0 = Clock::now();
  mufs::MachineConfig cfg = ConfigFor(w, scheme);

  // crash_sweep: crash points are evenly spaced over the run's device
  // writes, measured as part of set-up. The measuring run is a whole run
  // of the churn, so its calls count like any other; the reruns stop at
  // their crash point and only their images are checked.
  std::vector<uint64_t> crash_at;
  mufs::CrashHarness harness(cfg);
  OpLog harness_log;
  mufs::CrashHarness::Workload churn = [&w, &harness_log](Machine& m,
                                                          mufs::Proc& p) -> mufs::Task<void> {
    co_await RunAllUsers(m, p, w, &harness_log);
  };
  if (w.crash_points > 0) {
    uint64_t writes = harness.MeasureWrites(churn);
    for (int k = 1; k <= w.crash_points; ++k) {
      crash_at.push_back(std::max<uint64_t>(
          1, writes * static_cast<uint64_t>(k) / static_cast<uint64_t>(w.crash_points + 1)));
    }
    r.log.attempted += harness_log.attempted;
    r.log.failed += harness_log.failed;
    r.log.bad_reads += harness_log.bad_reads;
    for (const std::string& e : harness_log.errors) {
      Problem(&r, "crash harness run: " + e);
    }
  }

  Machine m(cfg);
  RunCtx ctx;
  ctx.w = &w;
  ctx.run = &r;
  ctx.logs.resize(w.users.size());
  OpLog setup_log;
  mufs::SetupFn setup = [&w, &setup_log](Machine& mm, mufs::Proc& p) -> mufs::Task<void> {
    co_await RunOps(mm, p, w.setup, &setup_log);
  };
  const int users = static_cast<int>(w.users.size());
  mufs::UserFn body = [&ctx, &setup0, users](Machine& mm, mufs::Proc& p,
                                             int u) -> mufs::Task<void> {
    if (ctx.started++ == 0) {
      ctx.host_users0 = Clock::now();
      ctx.run->setup_s = Since(setup0);
      ctx.t0 = mm.engine().Now();
      ctx.before = Snapshot(mm);
    }
    co_await RunOps(mm, p, ctx.w->users[static_cast<size_t>(u)],
                    &ctx.logs[static_cast<size_t>(u)]);
    if (++ctx.finished == users) {
      ctx.t_done = mm.engine().Now();
      ctx.host_users_done = Clock::now();
      if (ctx.snapshot) {
        ctx.last_user_image = std::make_unique<mufs::DiskImage>(mm.CrashNow());
      }
    }
  };
  ctx.snapshot = verify && last_user_image && w.crash_points == 0;
  mufs::RunMeasurement meas = mufs::RunMultiUser(m, users, setup, body, w.drop_caches);
  Clock::time_point drained = Clock::now();
  r.users_s = std::chrono::duration<double>(ctx.host_users_done - ctx.host_users0).count();
  r.drain_s = std::chrono::duration<double>(drained - ctx.host_users_done).count();
  r.elapsed = ctx.t_done - ctx.t0;
  r.durable = m.engine().Now() - ctx.t0;
  r.layer = Delta(ctx.before, Snapshot(m));
  r.dirty_blocks_max = static_cast<double>(m.stats().gauge("cache.dirty_blocks").max());
  for (const OpLog& l : ctx.logs) {
    r.log.attempted += l.attempted;
    r.log.failed += l.failed;
    r.log.bad_reads += l.bad_reads;
    r.latency.insert(r.latency.end(), l.mutation_ns.begin(), l.mutation_ns.end());
    for (const std::string& e : l.errors) {
      Problem(&r, e);
    }
  }
  std::sort(r.latency.begin(), r.latency.end());
  if (setup_log.failed > 0 || setup_log.bad_reads > 0) {
    Problem(&r, "set-up failed: " + (setup_log.errors.empty() ? "" : setup_log.errors[0]));
  }
  if (r.log.bad_reads > 0) {
    Problem(&r, std::to_string(r.log.bad_reads) + " reads returned wrong data");
  }
  bool quiet = !m.vfs().AnyDirtyInode();
  for (size_t s = 0; s < m.NumShards(); ++s) {
    quiet = quiet && m.cache(s).DirtyCount() == 0;
  }
  if (!quiet) {
    Problem(&r, "not quiescent 90 s after the last user finished");
  }

  // crash_sweep: re-run to each crash point, then recover the image.
  Clock::time_point crash0 = Clock::now();
  for (uint64_t at : crash_at) {
    Clock::time_point t = Clock::now();
    mufs::DiskImage img = harness.CrashImageAtWrite(churn, at);
    r.rerun_s += Since(t);
    ImageLayout layout{1, img.TotalBlocks(), 0};
    Recovery rec = Recover(std::move(img), scheme, layout, w.check_stale_data, RepairThreads());
    r.replay_s += rec.replay_s;
    r.check_s += rec.check_s;
    r.repair_s += rec.repair_s;
    ++r.images;
    ++r.crash_images;
    r.images_violating += rec.violations > 0 ? 1 : 0;
    if (!CrashSafe(rec, scheme)) {
      Problem(&r, "crash image at write " + std::to_string(at) + ": " + rec.first_violation);
    }
  }
  r.crash_s = crash_at.empty() ? 0 : Since(crash0);
  if (!verify) {
    return r;
  }

  // Crash safety of the image taken when the last user finished.
  if (ctx.last_user_image != nullptr) {
    Recovery rec = Recover(std::move(*ctx.last_user_image), scheme, ImageLayout::Of(m),
                           w.check_stale_data, RepairThreads());
    ++r.images;
    r.check_s += rec.check_s;
    r.repair_s += rec.repair_s;
    r.replay_s += rec.replay_s;
    if (!CrashSafe(rec, scheme)) {
      Problem(&r, "image at last user's finish: " + rec.first_violation);
    }
  }
  // Namespace and sampled data, on the drained machine.
  Namespace actual;
  OpLog vlog;
  bool done = false;
  mufs::Proc vp = m.MakeProc("verify");
  m.engine().Spawn(Verify(&m, &vp, &w, seed, &actual, &vlog, &done), "verify");
  const mufs::SimTime verify_limit = m.engine().Now() + mufs::Sec(600);
  m.engine().RunUntil([&] { return done || m.engine().Now() > verify_limit; });
  std::string diff = CompareNamespace(w.expected, actual);
  if (!done || !diff.empty()) {
    Problem(&r, "namespace differs from the model: " + diff);
  }
  if (vlog.failed > 0 || vlog.bad_reads > 0) {
    Problem(&r, "sampled data check: " + (vlog.errors.empty() ? "" : vlog.errors[0]));
  }
  // Final image: clean, and its claimed blocks match the fs counters.
  Recovery fin = Recover(m.CrashNow(), scheme, ImageLayout::Of(m), false, 0, false);
  if (fin.violations > 0) {
    Problem(&r, "final image: " + fin.first_violation);
  }
  uint64_t alloc = m.stats().counter("fs.blocks_allocated").value();
  uint64_t freed = m.stats().counter("fs.blocks_freed").value();
  uint64_t fresh = FreshClaimed(cfg);
  if (!BlocksConserved(alloc, freed, fin.blocks_claimed, fresh)) {
    Problem(&r, "blocks allocated-freed " + std::to_string(alloc - freed) +
                    " != claimed " + std::to_string(fin.blocks_claimed) + " - fresh " +
                    std::to_string(fresh));
  }
  (void)meas;
  return r;
}

// The slot-reuse probe on a fresh machine of `scheme`. Its failed calls
// come from a program fault on fixed inputs (see MakeSlotReuseProbe), so
// they count in `failed` and are not a problem; its image is not checked.
// Set-up calls are not counted, as in RunScheme.
OpLog RunSlotReuseProbe(const Workload& probe, Scheme scheme, std::string* problem) {
  Machine m(ConfigFor(probe, scheme));
  OpLog setup_log;
  OpLog log;
  mufs::SetupFn setup = [&probe, &setup_log](Machine& mm, mufs::Proc& p) -> mufs::Task<void> {
    co_await RunOps(mm, p, probe.setup, &setup_log);
  };
  mufs::UserFn body = [&probe, &log](Machine& mm, mufs::Proc& p, int) -> mufs::Task<void> {
    co_await RunOps(mm, p, probe.users[0], &log);
  };
  mufs::RunMultiUser(m, 1, setup, body, probe.drop_caches);
  if (setup_log.failed > 0 || setup_log.bad_reads > 0 || log.bad_reads > 0) {
    *problem = "slot-reuse probe: set-up failed or a read returned wrong data";
  }
  return log;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) {
    log_sum += std::log(std::max(x, 1e-12));
  }
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", items[i].second.first);
      out += (i ? "," : "") + std::string("\"") + items[i].first + "\":{\"value\":" + buf +
             ",\"unit\":\"" + items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k == "--workload") {
      workload = argv[i + 1];
    } else if (k == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (k != "--trace") {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  // Independent input instances pooled into every scheme's figures:
  // op tails and simulated times are chaotic in the input, and pooling
  // keeps their seed-to-seed spread small.
  std::vector<Workload> instances(1);
  bool known = MakeWorkload(workload, seed * kMaxInstances, &instances[0]);
  for (int i = 1; known && i < instances[0].instances; ++i) {
    instances.emplace_back();
    MakeWorkload(workload, seed * kMaxInstances + static_cast<uint64_t>(i), &instances.back());
  }
  const Workload& w = instances[0];
  Workload probe;
  MakeSlotReuseProbe(&probe);
  if (!known) {
    std::fprintf(stderr,
                 "usage: perfbench --workload remove_tree|create_remove_1k|"
                 "create_remove_volume|crash_sweep --seed N --seconds S\n");
    return 2;
  }

  std::vector<std::vector<SchemeRun>> rounds;
  std::vector<double> calibration;
  double setup_s = 0;
  Clock::time_point measure0 = Clock::now();
  setup_s = Since(kProcessStart);
  do {
    bool first = rounds.empty();
    std::vector<SchemeRun> round;
    for (Scheme s : mufs::kAllSchemes) {
      if (calibration.empty()) {
        calibration.push_back(Calibrate());
      }
      // The last-user crash image is recovered for the first instance.
      // Each instance's host times are scaled by the calibrations around it.
      for (size_t i = 0; i < instances.size(); ++i) {
        double before = calibration.back();
        SchemeRun r = RunScheme(instances[i], s, seed, first, i == 0);
        calibration.push_back(Calibrate());
        r.ScaleHost(kCalibrationRefS / ((before + calibration.back()) / 2));
        if (i == 0) {
          round.push_back(std::move(r));
        } else {
          Merge(&round.back(), std::move(r));
        }
      }
      std::sort(round.back().latency.begin(), round.back().latency.end());
      if (w.slot_reuse_probe) {
        std::string problem;
        OpLog pl = RunSlotReuseProbe(probe, s, &problem);
        round.back().log.attempted += pl.attempted;
        round.back().log.failed += pl.failed;
        if (!problem.empty()) {
          Problem(&round.back(), problem);
        }
        for (size_t k = 0; first && k < pl.errors.size(); ++k) {
          std::fprintf(stderr, "slot-reuse probe, %s: %s\n",
                       std::string(mufs::SchemeName(s)).c_str(), pl.errors[k].c_str());
        }
      }
      if (first) {
        // One cold set-up: process start (workload generation included)
        // to the first scheme's timed phase, plus the other set-ups.
        setup_s += round.back().setup_s;
      }
      std::fprintf(stderr, "round %zu %-16s setup %.3fs users %.3fs drain %.3fs crash %.3fs\n",
                   rounds.size(), std::string(mufs::SchemeName(s)).c_str(),
                   round.back().setup_s, round.back().users_s, round.back().drain_s,
                   round.back().crash_s);
    }
    rounds.push_back(std::move(round));
    // At least two rounds: when the host is slow, a lone round 0 would
    // put one round's host time in place of a median.
  } while (Since(measure0) < seconds || rounds.size() < 2);

  // Correctness: checks on round 0, determinism of every later round.
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& round : rounds) {
    for (size_t i = 0; i < round.size(); ++i) {
      const SchemeRun& r = round[i];
      // Round 0's extra checks are not counted, so every round attempts
      // the same operations.
      attempted += r.log.attempted + r.crash_images;
      failed += r.log.failed;
      problems.insert(problems.end(), r.problems.begin(), r.problems.end());
      if (r.Fingerprint() != rounds[0][i].Fingerprint()) {
        problems.push_back(std::string(mufs::SchemeName(r.scheme)) +
                           ": simulated results differ between rounds");
      }
      if (r.latency.size() < 1000 * instances.size()) {
        problems.push_back(std::string(mufs::SchemeName(r.scheme)) + ": only " +
                           std::to_string(r.latency.size()) + " mutations");
      }
    }
  }
  const std::vector<SchemeRun>& r0 = rounds[0];
  if (w.crash_points > 0 && r0.back().scheme == Scheme::kNoOrder &&
      r0.back().images_violating == 0) {
    problems.push_back("NoOrder: no crash image violates integrity");
  }
  for (const std::string& name : SelfTest()) {
    problems.push_back("self-test: the " + name + " check accepted a damaged input");
  }

  // End-to-end metrics.
  std::vector<double> host_rounds;
  for (const auto& round : rounds) {
    double h = 0;
    for (const SchemeRun& r : round) {
      h += r.Host();
    }
    host_rounds.push_back(h);
  }
  std::vector<double> el, du, p50, p99;
  const double n_inst = static_cast<double>(instances.size());
  for (const SchemeRun& r : r0) {
    el.push_back(mufs::ToSeconds(r.elapsed) / n_inst);
    du.push_back(mufs::ToSeconds(r.durable) / n_inst);
    p50.push_back(mufs::ToMs(Percentile(r.latency, 0.50)));
    p99.push_back(mufs::ToMs(Percentile(r.latency, 0.99)));
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Metrics e2e;
  // Host times in reference-machine seconds (see Calibrate).
  const double speed = kCalibrationRefS / Median(calibration);
  e2e.Add("host_s", Median(host_rounds), "s");
  e2e.Add("setup_s", setup_s * speed, "s");
  e2e.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  e2e.Add("sim_elapsed_s", Geomean(el), "s");
  e2e.Add("sim_durable_s", Geomean(du), "s");
  e2e.Add("op_p50_ms", Geomean(p50), "ms");
  e2e.Add("op_p99_ms", Geomean(p99), "ms");

  // Per-layer metrics.
  Metrics layer;
  auto host_median = [&](size_t i, double SchemeRun::*field) {
    std::vector<double> v;
    for (const auto& round : rounds) {
      v.push_back(round[i].*field);
    }
    return Median(v);
  };
  double users_s = 0, drain_s = 0, rerun_s = 0, replay_s = 0, check_s = 0, repair_s = 0;
  double events = 0, cpu = 0, util = 0, spread = 0, dirty_max = 0;
  uint64_t images = 0;
  uint64_t violating = 0;
  std::map<std::string, double> sums;
  std::map<std::string, Hist> hists;
  for (size_t i = 0; i < r0.size(); ++i) {
    const SchemeRun& r = r0[i];
    std::string pre = "scheme." + std::string(mufs::SchemeName(r.scheme)) + ".";
    std::vector<double> host;
    for (const auto& round : rounds) {
      host.push_back(round[i].Host());
    }
    layer.Add(pre + "host_s", Median(host), "s");
    layer.Add(pre + "sim_elapsed_s", el[i], "s");
    layer.Add(pre + "sim_durable_s", du[i], "s");
    layer.Add(pre + "op_p50_ms", p50[i], "ms");
    layer.Add(pre + "op_p99_ms", p99[i], "ms");
    users_s += host_median(i, &SchemeRun::users_s);
    drain_s += host_median(i, &SchemeRun::drain_s);
    rerun_s += host_median(i, &SchemeRun::rerun_s);
    replay_s += host_median(i, &SchemeRun::replay_s);
    check_s += host_median(i, &SchemeRun::check_s);
    repair_s += host_median(i, &SchemeRun::repair_s);
    images += r.images;
    violating += r.images_violating;
    events += static_cast<double>(r.layer.events);
    cpu += mufs::ToSeconds(r.layer.cpu);
    double lo = 1, hi = 0, mean = 0;
    for (double b : r.layer.disk_busy_ns) {
      double u = b / static_cast<double>(r.durable);
      lo = std::min(lo, u);
      hi = std::max(hi, u);
      mean += u / static_cast<double>(r.layer.disk_busy_ns.size());
    }
    util += mean / static_cast<double>(r0.size());
    spread += (hi - lo) / static_cast<double>(r0.size());
    dirty_max = std::max(dirty_max, r.dirty_blocks_max);
    for (const auto& [k, v] : r.layer.counters) {
      sums[k] += v;
    }
    for (const auto& [k, h] : r.layer.hists) {
      hists[k].Merge(h);
    }
  }
  double timed_host = users_s + drain_s;
  layer.Add("workload.users_host_s", users_s, "s");
  layer.Add("workload.drain_host_s", drain_s, "s");
  layer.Add("sim.events", events, "count");
  layer.Add("sim.events_per_host_s", timed_host > 0 ? events / timed_host : 0, "1/s");
  layer.Add("cpu.busy_s", cpu, "s");
  layer.Add("disk.requests", sums["disk.reads"] + sums["disk.writes"], "count");
  layer.Add("disk.blocks_written", sums["disk.blocks_written"], "count");
  layer.Add("disk.access_ms_mean", hists["disk.access_ns"].MeanMs(), "ms");
  layer.Add("disk.utilization", util, "ratio");
  layer.Add("disk.prefetch_hits", sums["disk.model.prefetch_hits"], "count");
  layer.Add("driver.queue_ms_p99", hists["disk.queue_ns"].QuantileMs(0.99), "ms");
  layer.Add("driver.response_ms_mean", hists["disk.response_ns"].MeanMs(), "ms");
  layer.Add("driver.merged_requests", sums["disk.merged_requests"], "count");
  double lookups = sums["cache.hits"] + sums["cache.misses"];
  layer.Add("cache.hit_rate", lookups > 0 ? sums["cache.hits"] / lookups : 0, "ratio");
  for (const char* c : {"cache.sync_writes", "cache.delayed_writes", "cache.write_lock_waits",
                        "cache.copy_budget_waits"}) {
    layer.Add(c, sums[c], "count");
  }
  layer.Add("cache.dirty_blocks_max", dirty_max, "count");
  for (const char* c : {"syncer.passes", "policy.ordering_points", "su.cancelled_pairs",
                        "su.undos", "su.redos", "su.deferred_frees", "journal.txns",
                        "journal.forced_commits", "journal.checkpoint_stalls",
                        "journal.log_writes", "async.op_stalls", "async.epochs"}) {
    layer.Add(c, sums[c], "count");
  }
  layer.Add("async.barrier_wait_ms", mufs::ToMs(hists["async.barrier_wait_ns"].sum), "ms");
  layer.Add("volume.held", sums["volume.held"], "count");
  layer.Add("volume.splits", sums["volume.splits"], "count");
  layer.Add("disk.util_spread", spread, "ratio");
  layer.Add("fsck.images", static_cast<double>(images), "count");
  layer.Add("fsck.images_violating", static_cast<double>(violating), "count");
  layer.Add("fsck.check_host_s", check_s, "s");
  layer.Add("fsck.repair_host_s", repair_s, "s");
  layer.Add("recovery.replay_host_s", replay_s, "s");
  layer.Add("harness.rerun_host_s", rerun_s, "s");
  layer.Add("host.calibration_ms", Median(calibration) * 1000, "ms");
  layer.Add("host.speed_factor", speed, "ratio");

  std::string probs = "[";
  for (size_t i = 0; i < problems.size(); ++i) {
    probs += (i ? "," : "") + JsonString(problems[i]);
    std::fprintf(stderr, "problem: %s\n", problems[i].c_str());
  }
  probs += "]";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"rounds\":%zu,"
              "\"problems\":%s,\"end_to_end\":%s,\"per_layer\":%s}\n",
              problems.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), rounds.size(), probs.c_str(),
              e2e.Json().c_str(), layer.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One malloc arena: with per-thread arenas, peak_rss_mb depends on how
  // the threaded fsck's allocations happen to interleave (55.8-63.8 MB
  // for the same create_remove_volume run).
  mallopt(M_ARENA_MAX, 1);
  return perfbench::Main(argc, argv);
}
