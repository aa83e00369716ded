// perfbench_service -- the repository benchmark: ShardedService end to end.
//
//   perfbench_service --workload <mem-point|disk-zipf|durable-mixed>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --work-dir <dir>
//
// One load-generating process drives one ShardedService (default
// ServiceOptions: 4 shards, 4 admission workers, queue 64) built over
// the paper's Synthetic dataset (20-d integers, L-infinity, n = 100,000,
// 5 HFI pivots).  A run has two measured phases:
//
//   1. closed loop: 4 client threads, each sending its lane's next
//      request when the previous one returns (saturation throughput);
//   2. open loop: Poisson arrivals at the workload's fixed rate, sent by
//      4 sender threads; every request is timed from when it was due.
//
// With --trace 1 a fresh service is then replayed one request at a time
// and each request is decomposed through public pieces -- ShardRouter
// membership, per-shard MetricDB replicas built from
// ShardedService::config(), MergeShardResults -- with spans around each
// call (see tracer.h).  The per-layer metrics come from that replay;
// contention figures (queue depth, rejections, generator lag) come from
// the untraced phases.
//
// Correctness gates (any failure makes "correct" false): a deterministic
// sample of read answers equals a LinearScan oracle; durable-mixed state
// equals an oracle that replays exactly the acknowledged updates, after
// quiescing and again after OpenDurable; every failure is a typed
// request-path Status; and the replica decomposition answers every
// traced request bit-identically to the service.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (end-to-end with --trace 0, per-layer with --trace 1) and a
// full report.  README.md explains every field.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "calibration.h"
#include "counting_env.h"
#include "loadgen.h"
#include "src/api/metric_db.h"
#include "src/core/thread_pool.h"
#include "src/data/generators.h"
#include "src/service/result_merger.h"
#include "src/service/retry.h"
#include "src/service/sharded_service.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

using pmi::ApplyResult;
using pmi::Dataset;
using pmi::DurabilityOptions;
using pmi::MetricDB;
using pmi::MetricDBConfig;
using pmi::Neighbor;
using pmi::ObjectId;
using pmi::ObjectView;
using pmi::OpStats;
using pmi::QueryRequest;
using pmi::QueryResult;
using pmi::RetryPolicy;
using pmi::RetryStats;
using pmi::ServiceOptions;
using pmi::ShardedService;
using pmi::Status;
using pmi::StatusCode;
using pmi::StatusOr;
using pmi::UpdateOp;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kObjects = 100000;
// The database and its query popularity are fixed, like a deployed
// service's data; --seed varies the traffic sent to it.
constexpr uint64_t kDataSeed = 4;  // MakeSyntheticPaper's own default
constexpr uint64_t kPopularitySeed = 0x5eed0001;
constexpr uint32_t kLanes = 4;           // closed-loop clients = open-loop senders
// The engine's thread count (ThreadPool::Global), set explicitly: builds
// and recovery use kBuildThreads; while requests are served it is
// kServeThreads, so the 4 admission workers are the service's parallelism
// and a batch's latency does not hinge on how many cores the host lends
// its intra-query regions at that moment.
constexpr unsigned kBuildThreads = 4;
constexpr unsigned kServeThreads = 1;
// Calibration spins this many threads; a run is invalid when the host
// gives it fewer effective cores.
constexpr unsigned kRunThreads = std::max(kBuildThreads, kLanes);
constexpr size_t kKnnK = 10;
constexpr double kSelectivity = 0.001;   // MRQ radius: 0.1% of the dataset
// setup_s is the median of several timed set-ups: kSetupsBefore before
// the load phases, then more after them until there are at least
// kMinSetups and kMinSetupSeconds of them (at most kMaxSetups), so a fast
// build gets as many samples as its time allows.
constexpr int kSetupsBefore = 3;
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kMinSetupSeconds = 3.0;
constexpr size_t kRateWindows = 16;  // closed-loop throughput windows
constexpr double kClosedShare = 0.2;     // of --seconds; the rest is open loop
// The two phases alternate in kRounds segments each, so that both sample
// the whole run and a burst of outside load lands in few windows.
constexpr int kRounds = 4;
constexpr uint32_t kClosedPerLane = 40000;
constexpr uint32_t kSampleStride = 16;   // oracle sample: every 16th closed request
constexpr uint32_t kSamplePerLane = 64;
constexpr uint32_t kTraceCheckpointEvery = 40;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// Progress line on stderr: seconds since start and the stage reached.
void Stage(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "perfbench: %7.2fs %s\n", SecondsSince(start), what);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct WorkloadSpec {
  std::string name;
  std::string index;
  bool durable = false;
  MixSpec mix;
  /// Fixed open-loop offered rate, requests/s.  The senders are
  /// synchronous, so a sender busy with one request delays the next; each
  /// rate keeps the 4 senders about 30% busy, which is 18-33% of the
  /// closed-loop saturation rate measured when the benchmark was defined
  /// (4-vCPU x86 host).  At 40% of saturation they were 40-90% busy and
  /// the load generator's own queueing set the tail.
  double open_rate = 0;
  /// Requests replayed by the traced run.
  uint32_t trace_requests = 0;
  /// durable-mixed: Checkpoint after every this many committed applies
  /// (in the load phases; the traced replay uses kTraceCheckpointEvery).
  uint32_t checkpoint_every = 0;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "mem-point") {
    w.index = "EPT*";
    w.open_rate = 2000;  // saturation ~11,000 req/s
    w.trace_requests = 2000;
  } else if (name == "disk-zipf") {
    w.index = "SPB-tree";
    w.mix.zipf_reads = true;
    w.open_rate = 100;  // saturation ~300 req/s
    w.trace_requests = 200;
  } else if (name == "durable-mixed") {
    w.index = "EPT*";
    w.durable = true;
    w.mix.write_share = 0.3;
    w.mix.read_batch = 32;
    w.open_rate = 200;  // saturation ~740 req/s
    w.trace_requests = 300;
    w.checkpoint_every = 100;
  } else {
    return std::nullopt;
  }
  return w;
}

// -- JSON output ----------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// An ordered JSON object built field by field.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    fields_.emplace_back(key, raw);
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Add(key, perfbench::Num(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Add(key, "\"" + v + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Add(key, v ? "true" : "false");
  }
  std::string str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Metrics in the contract's shape: name -> {value, unit}.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    json_.Add(name, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  std::string str() const { return json_.str(); }

 private:
  JsonObject json_;
};

std::string SummaryJson(const Summary& s) {
  return JsonObject()
      .Num("count", double(s.count))
      .Num("p50", s.p50)
      .Num("p99", s.p99)
      .Num("beyond_p99", double(s.beyond_p99))
      .Bool("p99_resolved", s.p99_resolved)
      .str();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// -- gates ----------------------------------------------------------------------

/// Collects correctness-gate failures; the run is correct iff none.
class Gates {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }
  std::string json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) out += ", ";
      std::string msg;
      for (char c : failures_[i]) {
        if (c == '"' || c == '\\') msg += '\\';
        msg += c;
      }
      out += "\"" + msg + "\"";
    }
    return out + "]";
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  uint64_t count_ = 0;
};

/// Request-path failures the service documents as typed outcomes.
bool IsTypedFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  if (a.ids != b.ids || a.neighbors.size() != b.neighbors.size()) return false;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    const std::vector<Neighbor>& x = a.neighbors[i];
    const std::vector<Neighbor>& y = b.neighbors[i];
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].id != y[j].id || x[j].dist != y[j].dist) return false;
    }
  }
  return true;
}

/// The oracle's answer in the service's canonical form (range ids
/// ascending; kNN already (distance, id) ordered).
QueryResult Canonical(QueryResult r) {
  for (std::vector<ObjectId>& ids : r.ids) std::sort(ids.begin(), ids.end());
  return r;
}

/// Runs ShardedService::Checkpoint on its own thread, once per Request(),
/// so a checkpoint stalls the service the way a background checkpoint
/// would rather than holding up the client whose apply crossed the count.
class Checkpointer {
 public:
  Checkpointer(ShardedService* svc, Gates* gates)
      : svc_(svc), gates_(gates), thread_([this] { Loop(); }) {}
  ~Checkpointer() { Stop(); }
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  void Request() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    cv_.notify_one();
  }

  /// Runs the checkpoints still pending, then joins the thread.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Duration of each checkpoint, in ms.  Call after Stop().
  const std::vector<double>& ms() const { return ms_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return pending_ > 0 || stop_; });
      if (pending_ == 0) return;
      --pending_;
      lock.unlock();
      const auto t0 = Clock::now();
      const Status st = svc_->Checkpoint();
      const double ms = MsBetween(t0, Clock::now());
      if (!st.ok()) gates_->Fail("checkpoint: " + st.ToString());
      lock.lock();
      ms_.push_back(ms);
    }
  }

  ShardedService* svc_;
  Gates* gates_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t pending_ = 0;
  bool stop_ = false;
  std::vector<double> ms_;
  std::thread thread_;  // last: starts after the members it uses
};

// -- the run ----------------------------------------------------------------------

/// Per-thread accumulator of the load phases.
struct PhaseTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t untyped = 0;
  uint64_t queries = 0;     // batch elements answered
  uint64_t update_ops = 0;  // ops committed
  TimedSamples range_ms, knn_ms, apply_ms;  // open loop, at = due time
  TimedSamples lag_ms;                      // open loop, at = due time
  TimedSamples done_queries;                // closed loop, at = completion
  uint64_t retry_calls = 0;
  uint64_t retry_attempts = 0;
  double retry_slept_ms = 0;

  void Merge(const PhaseTally& o) {
    attempted += o.attempted;
    failed += o.failed;
    untyped += o.untyped;
    queries += o.queries;
    update_ops += o.update_ops;
    range_ms.Append(o.range_ms);
    knn_ms.Append(o.knn_ms);
    apply_ms.Append(o.apply_ms);
    lag_ms.Append(o.lag_ms);
    done_queries.Append(o.done_queries);
    retry_calls += o.retry_calls;
    retry_attempts += o.retry_attempts;
    retry_slept_ms += o.retry_slept_ms;
  }
};

class Bench {
 public:
  Bench(WorkloadSpec spec, uint64_t seed, double seconds, bool trace,
        std::string work_dir)
      : spec_(std::move(spec)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        work_dir_(std::move(work_dir)),
        svc_env_(&tracer_),
        replica_env_(&tracer_) {}

  int Run();

 private:
  // set-up
  void MakeData();
  void MakeStreams();
  std::unique_ptr<ShardedService> CreateService(const std::string& dir);
  void BuildOracle();

  // requests
  QueryRequest MakeQuery(const Lane& lane, const Request& r) const;
  std::vector<UpdateOp> MakeToggles(const Lane& lane, const Request& r) const;
  /// Records acknowledged `ops` of `stripe`; the caller holds the stripe's
  /// mutex or is the only sender.
  void Ack(const std::vector<UpdateOp>& ops, uint32_t stripe);
  /// Sends one request through the service; returns its outcome.
  Status Send(ShardedService& svc, const Lane& lane, const Request& r,
              PhaseTally* t, QueryResult* answer);
  void MaybeCheckpoint();

  // phases
  /// One segment of each phase; the run alternates them kRounds times.
  void ClosedLoop(ShardedService& svc, int round);
  void OpenLoop(ShardedService& svc, int round);
  void CheckSample();
  void CheckDurableState(ShardedService& svc, const char* when);
  void Recover();
  void TracedRun();

  std::unique_ptr<ShardedService> TimedSetup(const std::string& dir, bool keep);
  std::string Report() const;
  double SatQps() const;
  std::string E2EMetrics() const;
  std::string LayerMetrics() const;

  WorkloadSpec spec_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string work_dir_;

  Tracer tracer_;
  CountingEnv svc_env_;
  CountingEnv replica_env_;
  Gates gates_;

  Dataset data_ = Dataset::Vectors(20);
  double radius_ = 0;
  MetricDBConfig config_;
  std::unique_ptr<MetricDB> oracle_;
  Calibration cal_start_, cal_end_;

  Streams streams_;
  std::vector<uint8_t> live_;                         // toggle state per id
  std::vector<std::vector<UpdateOp>> acked_;          // per stripe, in order
  std::array<std::mutex, kLanes> stripe_mu_;          // serializes a stripe's updates
  std::atomic<uint64_t> committed_applies_{0};
  std::unique_ptr<Checkpointer> checkpointer_;  // load phases, durable only
  std::vector<double> load_checkpoint_ms_;

  // sampled closed-loop answers: (lane, position) -> answer
  std::mutex sample_mu_;
  std::vector<std::tuple<uint32_t, uint32_t, QueryResult>> samples_;

  // end-to-end results
  std::vector<double> setup_s_;
  double rss_mb_ = 0;
  PhaseTally closed_tally_, open_tally_;
  double closed_elapsed_ = 0, open_elapsed_ = 0;
  std::vector<uint64_t> closed_pos_ = std::vector<uint64_t>(kLanes, 0);
  std::atomic<size_t> open_next_{0};  // next open-schedule request to send
  uint64_t open_unsent_ = 0;
  ShardedService::ServiceStats svc_stats_;
  double recover_s_ = 0;
  uint64_t recovery_bytes_read_ = 0;

  // per-layer results (traced run)
  struct Layer {
    std::vector<double> request_on_ms, request_off_ms, hop_ms, pin_us,
        gather_self_ms, merge_ms, shard_query_ms, shard_apply_ms,
        checkpoint_ms, sync_ms;
    std::vector<double> create_s;
    uint64_t queries = 0, results = 0, compdists = 0, page_reads = 0,
             pool_hits = 0, physical_reads = 0;
    uint64_t applies = 0, update_ops = 0, apply_syncs = 0, apply_bytes = 0;
    double index_bytes = 0;
    double ns_per_distance = 0;
    size_t spans = 0;
    std::string span_file;
  } layer_;
};

// -- set-up -------------------------------------------------------------------------

void Bench::MakeData() {
  data_ = pmi::MakeSyntheticPaper(kObjects, kDataSeed);
  // Radius for 0.1% selectivity: the kSelectivity quantile of distances
  // from 32 seeded query objects to the whole dataset.
  std::unique_ptr<pmi::Metric> metric =
      pmi::MakeMetricFor(pmi::BenchDatasetId::kSynthetic);
  Rng rng(kDataSeed);
  std::vector<double> d;
  d.reserve(size_t(32) * kObjects);
  for (int q = 0; q < 32; ++q) {
    const ObjectView qv = data_.view(rng.Below(kObjects));
    for (uint32_t i = 0; i < kObjects; ++i) {
      d.push_back(metric->Distance(qv, data_.view(i)));
    }
  }
  const size_t at = static_cast<size_t>(kSelectivity * double(d.size()));
  std::nth_element(d.begin(), d.begin() + at, d.end());
  radius_ = d[at];
  config_ = MetricDBConfig()
                .WithMetric("Linf")
                .WithIndex(spec_.index)
                .WithPivots(5)
                .WithPivotMethod("hfi");
  live_.assign(kObjects, 1);
  acked_.assign(kLanes, {});
}

void Bench::MakeStreams() {
  StreamShape shape;
  shape.popularity_seed = kPopularitySeed;
  shape.objects = kObjects;
  shape.lanes = kLanes;
  shape.closed_per_lane = kClosedPerLane;
  shape.open_rate = spec_.open_rate;
  shape.open_s = seconds_ * (1 - kClosedShare);
  shape.trace_requests = spec_.trace_requests;
  streams_ = perfbench::MakeStreams(spec_.mix, shape, seed_);
}

std::unique_ptr<ShardedService> Bench::CreateService(const std::string& dir) {
  Dataset copy = data_;
  ServiceOptions sopts;  // defaults: 4 shards, 4 workers, queue 64
  StatusOr<std::unique_ptr<ShardedService>> svc =
      spec_.durable ? ShardedService::CreateDurable(
                          config_, std::move(copy), dir, sopts,
                          DurabilityOptions{pmi::SyncMode::kAlways, 32, &svc_env_})
                    : ShardedService::Create(config_, std::move(copy), sopts);
  if (!svc.ok()) {
    gates_.Fail("service create: " + svc.status().ToString());
    return nullptr;
  }
  return std::move(*svc);
}

void Bench::BuildOracle() {
  StatusOr<MetricDB> db = MetricDB::Create(
      MetricDBConfig().WithMetric("Linf").WithIndex("LinearScan").WithPivots(1),
      data_);
  if (!db.ok()) {
    gates_.Fail("oracle create: " + db.status().ToString());
    return;
  }
  oracle_ = std::make_unique<MetricDB>(std::move(*db));
}

// -- requests -----------------------------------------------------------------------

QueryRequest Bench::MakeQuery(const Lane& lane, const Request& r) const {
  std::vector<ObjectView> batch;
  batch.reserve(r.count);
  for (uint32_t i = 0; i < r.count; ++i) {
    batch.push_back(data_.view(lane.ids[r.first + i]));
  }
  return r.kind == Kind::kRange ? QueryRequest::RangeBatch(std::move(batch), radius_)
                                : QueryRequest::KnnBatch(std::move(batch), kKnnK);
}

std::vector<UpdateOp> Bench::MakeToggles(const Lane& lane, const Request& r) const {
  std::vector<UpdateOp> ops;
  for (uint32_t i = 0; i < r.count; ++i) {
    const ObjectId id = lane.ids[r.first + i];
    ops.push_back(live_[id] ? UpdateOp::Remove(id) : UpdateOp::Insert(id));
  }
  return ops;
}

void Bench::Ack(const std::vector<UpdateOp>& ops, uint32_t stripe) {
  for (const UpdateOp& op : ops) live_[op.id] = op.op == pmi::WalOp::kInsert;
  acked_[stripe].insert(acked_[stripe].end(), ops.begin(), ops.end());
}

Status Bench::Send(ShardedService& svc, const Lane& lane, const Request& r,
                   PhaseTally* t, QueryResult* answer) {
  ++t->attempted;
  Status st;
  if (r.kind == Kind::kApply) {
    // Updates of one stripe run one at a time, so each sees the liveness
    // its predecessors left.
    std::lock_guard<std::mutex> lock(stripe_mu_[r.stripe]);
    const std::vector<UpdateOp> ops = MakeToggles(lane, r);
    RetryStats rs;
    StatusOr<ApplyResult> ar =
        pmi::ApplyWithRetry(svc, ops, RetryPolicy{}, {}, &rs);
    ++t->retry_calls;
    t->retry_attempts += rs.attempts;
    t->retry_slept_ms += rs.slept_ms;
    st = ar.ok() ? ar->Collapse() : ar.status();
    if (st.ok()) {
      Ack(ops, r.stripe);
      t->update_ops += ops.size();
      MaybeCheckpoint();
    }
  } else {
    const QueryRequest q = MakeQuery(lane, r);
    // durable-mixed clients go through the retry layer; the read-only
    // workloads call the service directly.
    RetryStats rs;
    StatusOr<QueryResult> a = spec_.durable
                                  ? pmi::QueryWithRetry(svc, q, RetryPolicy{}, {}, &rs)
                                  : svc.Query(q);
    if (spec_.durable) {
      ++t->retry_calls;
      t->retry_attempts += rs.attempts;
      t->retry_slept_ms += rs.slept_ms;
    }
    st = a.ok() ? Status() : a.status();
    if (a.ok()) {
      t->queries += r.count;
      if (answer != nullptr) *answer = std::move(*a);
    }
  }
  if (!st.ok()) {
    ++t->failed;
    if (!IsTypedFailure(st)) {
      ++t->untyped;
      gates_.Fail("untyped failure: " + st.ToString());
    }
  }
  return st;
}

void Bench::MaybeCheckpoint() {
  if (checkpointer_ == nullptr) return;
  const uint64_t n = committed_applies_.fetch_add(1) + 1;
  if (n % spec_.checkpoint_every == 0) checkpointer_->Request();
}

// -- load phases ----------------------------------------------------------------------

void Bench::ClosedLoop(ShardedService& svc, int round) {
  const double seg_s = seconds_ * kClosedShare / kRounds;
  const double offset_s = seg_s * round;  // phase time before this segment
  std::vector<PhaseTally> tallies(kLanes);
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seg_s));
  std::vector<std::thread> clients;
  for (uint32_t j = 0; j < kLanes; ++j) {
    clients.emplace_back([&, j] {
      const Lane& lane = streams_.closed[j];
      uint64_t& i = closed_pos_[j];  // each lane resumes where it stopped
      for (; Clock::now() < until; ++i) {
        const uint32_t pos = static_cast<uint32_t>(i % lane.requests.size());
        const Request& r = lane.requests[pos];
        // Read-only workloads keep a deterministic sample of answers for
        // the oracle gate; durable-mixed checks its quiesced state instead.
        const bool sample = !spec_.durable && i < lane.requests.size() &&
                            pos % kSampleStride == 0 &&
                            pos / kSampleStride < kSamplePerLane;
        QueryResult answer;
        Status st = Send(svc, lane, r, &tallies[j], sample ? &answer : nullptr);
        if (st.ok() && r.kind != Kind::kApply) {
          tallies[j].done_queries.Add(offset_s + SecondsSince(t0), r.count);
        }
        if (sample && st.ok()) {
          std::lock_guard<std::mutex> lock(sample_mu_);
          samples_.emplace_back(j, pos, std::move(answer));
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  closed_elapsed_ += SecondsSince(t0);
  for (const PhaseTally& t : tallies) closed_tally_.Merge(t);
}

void Bench::OpenLoop(ShardedService& svc, int round) {
  // This segment sends the open schedule's requests due in
  // [begin_s, end_s), on the clock of the open phase as a whole.  Each
  // free sender takes the next request in due order, so a request waits
  // for a sender only when all of them are busy.
  const double seg_s = seconds_ * (1 - kClosedShare) / kRounds;
  const double begin_s = seg_s * round;
  const double end_s = begin_s + seg_s;
  // A sender that falls this far behind schedule stops; the requests not
  // sent count as attempted and failed.
  const double give_up_s = end_s + 10;
  const Lane& lane = streams_.open;
  std::vector<PhaseTally> tallies(kLanes);
  std::atomic<uint64_t> unsent{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto t0 = start - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(begin_s));
  std::vector<std::thread> senders;
  for (uint32_t j = 0; j < kLanes; ++j) {
    senders.emplace_back([&, j] {
      PhaseTally& t = tallies[j];
      for (;;) {
        const size_t i = open_next_.fetch_add(1);
        if (i >= lane.requests.size() || lane.requests[i].due_s >= end_s) {
          open_next_.fetch_sub(1);  // leave it for the next segment
          break;
        }
        const Request& r = lane.requests[i];
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(r.due_s));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        if (std::chrono::duration<double>(sent - t0).count() > give_up_s) {
          unsent.fetch_add(1);
          continue;
        }
        t.lag_ms.Add(r.due_s, MsBetween(due, sent));
        Status st = Send(svc, lane, r, &t, nullptr);
        const double ms = MsBetween(due, Clock::now());
        if (!st.ok()) continue;
        (r.kind == Kind::kRange ? t.range_ms
         : r.kind == Kind::kKnn ? t.knn_ms
                                : t.apply_ms)
            .Add(r.due_s, ms);
      }
    });
  }
  for (std::thread& s : senders) s.join();
  open_elapsed_ += SecondsSince(start);
  for (const PhaseTally& t : tallies) open_tally_.Merge(t);
  open_unsent_ += unsent.load();
  open_tally_.attempted += unsent.load();
  open_tally_.failed += unsent.load();
}

// -- correctness gates -------------------------------------------------------------------

void Bench::CheckSample() {
  if (oracle_ == nullptr) return;
  std::sort(samples_.begin(), samples_.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) <
           std::tie(std::get<0>(b), std::get<1>(b));
  });
  for (const auto& [lane, pos, answer] : samples_) {
    const QueryRequest q = MakeQuery(streams_.closed[lane], streams_.closed[lane].requests[pos]);
    StatusOr<QueryResult> want = oracle_->Query(q);
    if (!want.ok() || !SameAnswer(answer, Canonical(std::move(*want)))) {
      gates_.Fail("oracle mismatch at lane " + std::to_string(lane) +
                  " request " + std::to_string(pos));
    }
  }
  if (samples_.empty()) gates_.Fail("no sampled answers to check");
}

/// Quiesced durable-mixed state: liveness of every id and a fixed sample
/// of batch reads must match the oracle replaying the acked updates.
void Bench::CheckDurableState(ShardedService& svc, const char* when) {
  if (oracle_ == nullptr) return;
  for (ObjectId id = 0; id < kObjects; ++id) {
    if (svc.alive(id) != (live_[id] != 0)) {
      gates_.Fail(std::string(when) + ": liveness of id " + std::to_string(id) +
                  " differs from the acknowledged updates");
      return;
    }
  }
  uint32_t checked = 0;
  for (const Request& r : streams_.trace.requests) {
    if (r.kind == Kind::kApply) continue;
    const QueryRequest q = MakeQuery(streams_.trace, r);
    StatusOr<QueryResult> got = svc.Query(q);
    StatusOr<QueryResult> want = oracle_->Query(q);
    if (!got.ok() || !want.ok() ||
        !SameAnswer(*got, Canonical(std::move(*want)))) {
      gates_.Fail(std::string(when) + ": read answer differs from the oracle");
      return;
    }
    if (++checked == 16) break;
  }
}

/// Applies every acknowledged update to the oracle (lanes own disjoint
/// ids, so replaying lane by lane reproduces the final state).
void ApplyAcked(MetricDB* oracle, const std::vector<std::vector<UpdateOp>>& acked,
                Gates* gates) {
  for (const std::vector<UpdateOp>& ops : acked) {
    if (ops.empty()) continue;
    Status st = oracle->Apply(ops);
    if (!st.ok()) gates->Fail("oracle replay: " + st.ToString());
  }
}

void Bench::Recover() {
  const std::string dir = work_dir_ + "/service";
  const uint64_t read0 = svc_env_.counts().bytes_read;
  const auto t0 = Clock::now();
  StatusOr<std::unique_ptr<ShardedService>> svc = ShardedService::OpenDurable(
      dir, ServiceOptions{},
      DurabilityOptions{pmi::SyncMode::kAlways, 32, &svc_env_});
  recover_s_ = SecondsSince(t0);
  recovery_bytes_read_ = svc_env_.counts().bytes_read - read0;
  if (!svc.ok()) {
    gates_.Fail("OpenDurable: " + svc.status().ToString());
    return;
  }
  CheckDurableState(**svc, "after OpenDurable");
  Status st = (*svc)->Close();
  if (!st.ok()) gates_.Fail("close after recovery: " + st.ToString());
}

// -- traced replay ----------------------------------------------------------------------

void Bench::TracedRun() {
  const std::string dir = work_dir_ + "/trace-service";
  std::unique_ptr<ShardedService> svc = CreateService(dir);
  if (svc == nullptr) return;
  live_.assign(kObjects, 1);
  const pmi::ShardRouter& router = svc->router();

  // Per-shard replicas from the service's effective config, with their
  // own page cache of the same budget (shared across the replicas, as
  // the service shares one across its shards).
  MetricDBConfig rcfg = svc->config();
  rcfg.options.buffer_pool = std::make_shared<pmi::BufferPool>(
      rcfg.options.page_size, rcfg.options.cache_bytes);
  std::vector<MetricDB> replicas;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    Dataset part = Dataset::Vectors(data_.dim());
    for (ObjectId id : router.members(s)) part.Add(data_.view(id));
    const auto t0 = Clock::now();
    StatusOr<MetricDB> db =
        spec_.durable
            ? MetricDB::CreateDurable(
                  rcfg, std::move(part), dir + "-replica-" + std::to_string(s),
                  DurabilityOptions{pmi::SyncMode::kAlways, 32, &replica_env_})
            : MetricDB::Create(rcfg, std::move(part));
    layer_.create_s.push_back(SecondsSince(t0));
    if (!db.ok()) {
      gates_.Fail("replica create: " + db.status().ToString());
      return;
    }
    replicas.push_back(std::move(*db));
    layer_.index_bytes += double(replicas.back().index().memory_bytes() +
                                 replicas.back().index().disk_bytes());
  }

  // Metric layer: ns per Distance over a fixed sample of dataset pairs.
  {
    Rng rng(SubSeed(seed_, 400));
    std::vector<std::pair<ObjectId, ObjectId>> pairs(4096);
    for (auto& p : pairs) p = {rng.Below(kObjects), rng.Below(kObjects)};
    const pmi::Metric& metric = replicas[0].metric();
    std::vector<double> ns;
    double sink = 0;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = Clock::now();
      for (int round = 0; round < 16; ++round) {
        for (const auto& [a, b] : pairs) {
          sink += metric.Distance(data_.view(a), data_.view(b));
        }
      }
      ns.push_back(SecondsSince(t0) * 1e9 / (16.0 * pairs.size()));
    }
    volatile double keep = sink;  // the loop's result is used
    (void)keep;
    layer_.ns_per_distance = Median(ns);
  }

  RetryPolicy policy;
  uint64_t applies_done = 0;
  auto replay = [&](bool spans) {
    tracer_.set_enabled(spans);
    std::vector<double>& request_ms =
        spans ? layer_.request_on_ms : layer_.request_off_ms;
    for (size_t i = 0; i < streams_.trace.requests.size(); ++i) {
      const Request& r = streams_.trace.requests[i];
      tracer_.set_request(i + 1);
      ScopedSpan root(&tracer_, "replay");
      if (r.kind == Kind::kApply) {
        const std::vector<UpdateOp> ops = MakeToggles(streams_.trace, r);
        const CountingEnv::Counts before = svc_env_.counts();
        const size_t syncs_before = svc_env_.sync_ms().size();
        ScopedSpan req(&tracer_, "request");
        StatusOr<ApplyResult> ar = pmi::ApplyWithRetry(*svc, ops, policy);
        request_ms.push_back(req.End());
        const Status st = ar.ok() ? ar->Collapse() : ar.status();
        if (!st.ok()) {
          gates_.Fail("traced apply: " + st.ToString());
          continue;
        }
        Ack(ops, r.stripe);
        if (spans) {
          const CountingEnv::Counts after = svc_env_.counts();
          const std::vector<double> sync_ms = svc_env_.sync_ms();
          layer_.sync_ms.insert(layer_.sync_ms.end(),
                                sync_ms.begin() + syncs_before, sync_ms.end());
          ++layer_.applies;
          layer_.update_ops += ops.size();
          layer_.apply_syncs += after.syncs - before.syncs;
          layer_.apply_bytes += after.bytes_appended - before.bytes_appended;
        }
        std::vector<std::vector<UpdateOp>> routed(router.num_shards());
        for (const UpdateOp& op : ops) {
          routed[router.shard_of(op.id)].push_back({op.op, router.local_of(op.id)});
        }
        for (uint32_t s = 0; s < routed.size(); ++s) {
          if (routed[s].empty()) continue;
          ScopedSpan span(&tracer_, "shard.apply");
          Status rst = replicas[s].Apply(routed[s]);
          const double ms = span.End();
          if (spans) layer_.shard_apply_ms.push_back(ms);
          if (!rst.ok()) gates_.Fail("replica apply: " + rst.ToString());
        }
        if (spec_.checkpoint_every != 0 &&
            ++applies_done % kTraceCheckpointEvery == 0) {
          ScopedSpan span(&tracer_, "checkpoint");
          Status cst = svc->Checkpoint();
          const double ms = span.End();
          if (spans) layer_.checkpoint_ms.push_back(ms);
          if (!cst.ok()) gates_.Fail("traced checkpoint: " + cst.ToString());
        }
        continue;
      }

      const QueryRequest q = MakeQuery(streams_.trace, r);
      ScopedSpan req(&tracer_, "request");
      StatusOr<QueryResult> answer =
          spec_.durable ? pmi::QueryWithRetry(*svc, q, policy) : svc->Query(q);
      const double req_ms = req.End();
      request_ms.push_back(req_ms);
      if (!answer.ok()) {
        gates_.Fail("traced query: " + answer.status().ToString());
        continue;
      }

      // The same request through the service's direct read path.
      std::optional<double> gather_ms;
      {
        ScopedSpan pin(&tracer_, "svc.pin");
        StatusOr<ShardedService::ReadView> view = svc->GetReadView();
        const double pin_ms = pin.End();
        if (view.ok()) {
          if (spans) layer_.pin_us.push_back(pin_ms * 1e3);
          ScopedSpan gather(&tracer_, "svc.gather");
          StatusOr<QueryResult> g = view->Query(q);
          gather_ms = gather.End();
          if (!g.ok() || !SameAnswer(*g, *answer)) {
            gates_.Fail("ReadView answer differs from Query at traced request " +
                        std::to_string(i));
          }
        }
      }

      // The decomposition: each shard replica, then the merge.
      std::vector<QueryResult> per_shard;
      double shards_ms = 0;
      for (uint32_t s = 0; s < replicas.size(); ++s) {
        StatusOr<MetricDB::ReadView> view = replicas[s].GetReadView();
        ScopedSpan span(&tracer_, "shard.query");
        StatusOr<QueryResult> part =
            view.ok() ? view->Query(q) : replicas[s].Query(q);
        const double ms = span.End();
        shards_ms += ms;
        if (!part.ok()) {
          gates_.Fail("replica query: " + part.status().ToString());
          break;
        }
        if (spans) {
          layer_.shard_query_ms.push_back(ms);
          const OpStats& st = part->stats;
          layer_.compdists += st.dist_computations;
          layer_.page_reads += st.page_reads;
          layer_.pool_hits += st.pool_hits;
          layer_.physical_reads += st.physical_reads;
        }
        per_shard.push_back(std::move(*part));
      }
      if (per_shard.size() != replicas.size()) continue;
      ScopedSpan merge(&tracer_, "svc.merge");
      QueryResult merged = pmi::MergeShardResults(router, q, std::move(per_shard));
      const double merge_ms = merge.End();
      if (!SameAnswer(merged, *answer)) {
        gates_.Fail("replica decomposition differs from the service at traced request " +
                    std::to_string(i));
      }
      if (!spans) continue;
      layer_.merge_ms.push_back(merge_ms);
      layer_.queries += q.batch.size();
      for (const auto& ids : merged.ids) layer_.results += ids.size();
      for (const auto& nn : merged.neighbors) layer_.results += nn.size();
      // Unversioned shards have no read view: the hop is then the request
      // minus the replicas' shard and merge time.
      layer_.hop_ms.push_back(req_ms - gather_ms.value_or(shards_ms + merge_ms));
      if (gather_ms.has_value()) {
        layer_.gather_self_ms.push_back(*gather_ms - shards_ms - merge_ms);
      }
    }
    tracer_.set_enabled(false);
  };
  Stage("replicas built");
  pmi::ThreadPool::SetGlobalThreads(kServeThreads);
  replay(/*spans=*/true);
  Stage("replay with spans done");
  layer_.spans = tracer_.spans().size();
  layer_.span_file = work_dir_ + "/spans.jsonl";
  if (!tracer_.Dump(layer_.span_file)) gates_.Fail("span dump failed");
  replay(/*spans=*/false);
  pmi::ThreadPool::SetGlobalThreads(kBuildThreads);

  for (MetricDB& db : replicas) {
    Status st = db.Close();
    if (!st.ok()) gates_.Fail("replica close: " + st.ToString());
  }
  Status st = svc->Close();
  if (!st.ok()) gates_.Fail("traced service close: " + st.ToString());
}

// -- report ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// An open-loop latency distribution: p50 and p99 as the medians of the
/// per-window percentiles (see WindowedPercentile), with the sample
/// count, p99 and tail size of the whole phase.
struct Latency {
  Summary whole;
  double p50 = 0;
  double p99 = 0;
  double p90 = 0;
  size_t windows = 0;

  Latency(const TimedSamples& s, double span_s)
      : whole(Summarize(s.value)),
        p50(WindowedPercentile(s, span_s, 0.50)),
        p99(WindowedPercentile(s, span_s, 0.99)),
        p90(WindowedPercentile(s, span_s, 0.90)),
        windows(WindowCount(s.size())) {}

  std::string json() const {
    return JsonObject()
        .Num("count", double(whole.count))
        .Num("p50", p50)
        .Num("p99", p99)
        .Num("p90", p90)
        .Num("windows", double(windows))
        .Num("p99_whole_phase", whole.p99)
        .Num("beyond_p99", double(whole.beyond_p99))
        .Bool("p99_resolved", whole.p99_resolved)
        .str();
  }
};

double Bench::SatQps() const {
  return WindowedRate(closed_tally_.done_queries, seconds_ * kClosedShare,
                      kRateWindows);
}

std::string Bench::E2EMetrics() const {
  const double open_s = seconds_ * (1 - kClosedShare);
  const Latency range(open_tally_.range_ms, open_s);
  const Latency knn(open_tally_.knn_ms, open_s);
  MetricSet m;
  m.Set("setup_s", Median(setup_s_), "s");
  m.Set("rss_mb", rss_mb_, "MB");
  m.Set("sat_qps", SatQps(), "1/s");
  m.Set("range_p50_ms", range.p50, "ms");
  m.Set("knn_p50_ms", knn.p50, "ms");
  return m.str();
}

std::string Bench::LayerMetrics() const {
  const Layer& l = layer_;
  MetricSet m;
  const double calls = double(open_tally_.retry_calls + closed_tally_.retry_calls);
  const auto& adm = svc_stats_.admission;
  m.Set("admission.hop_ms_p50", Median(l.hop_ms), "ms");
  m.Set("admission.peak_depth", adm.peak_depth, "count");
  m.Set("admission.rejected_ratio",
        Ratio(double(adm.rejected), double(adm.accepted + adm.rejected)), "ratio");
  m.Set("retry.attempts_per_call",
        Ratio(double(open_tally_.retry_attempts + closed_tally_.retry_attempts), calls),
        "count");
  m.Set("retry.slept_ms_per_call",
        Ratio(open_tally_.retry_slept_ms + closed_tally_.retry_slept_ms, calls), "ms");
  m.Set("gather.pin_us_p50", Median(l.pin_us), "us");
  m.Set("gather.self_ms_p50", Median(l.gather_self_ms), "ms");
  m.Set("merge.ms_p50", Median(l.merge_ms), "ms");
  const Summary sq = Summarize(l.shard_query_ms);
  m.Set("shard.query_ms_p50", sq.p50, "ms");
  m.Set("shard.query_ms_p99", sq.p99, "ms");
  const Summary sa = Summarize(l.shard_apply_ms);
  m.Set("shard.apply_ms_p50", sa.p50, "ms");
  m.Set("shard.apply_ms_p99", sa.p99, "ms");
  double create_sum = 0, create_max = 0;
  for (double s : l.create_s) {
    create_sum += s;
    create_max = std::max(create_max, s);
  }
  m.Set("shard.create_s_sum", create_sum, "s");
  m.Set("shard.create_s_max", create_max, "s");
  m.Set("index.compdists_per_query", Ratio(double(l.compdists), double(l.queries)),
        "count");
  m.Set("index.results_per_compdist", Ratio(double(l.results), double(l.compdists)),
        "ratio");
  m.Set("index.bytes", l.index_bytes, "bytes");
  m.Set("pages.logical_pa_per_query", Ratio(double(l.page_reads), double(l.queries)),
        "count");
  m.Set("pool.hit_ratio",
        Ratio(double(l.pool_hits), double(l.pool_hits + l.physical_reads)), "ratio");
  m.Set("pool.physical_reads_per_query",
        Ratio(double(l.physical_reads), double(l.queries)), "count");
  m.Set("metric.ns_per_distance", l.ns_per_distance, "ns");
  m.Set("env.syncs_per_apply", Ratio(double(l.apply_syncs), double(l.applies)), "count");
  m.Set("env.sync_ms_p50", Median(l.sync_ms), "ms");
  m.Set("env.bytes_written_per_update_op",
        Ratio(double(l.apply_bytes), double(l.update_ops)), "bytes");
  m.Set("checkpoint.ms", Median(l.checkpoint_ms), "ms");
  m.Set("recovery.bytes_read", double(recovery_bytes_read_), "bytes");
  const Summary lag = Summarize(open_tally_.lag_ms.value);
  m.Set("loadgen.lag_ms_p50", lag.p50, "ms");
  m.Set("loadgen.lag_ms_p99", lag.p99, "ms");
  m.Set("trace.overhead_ratio",
        Ratio(Median(l.request_on_ms), Median(l.request_off_ms)), "ratio");
  return m.str();
}

std::string JsonList(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
  return s + "]";
}

std::string Bench::Report() const {
  const uint64_t attempted = closed_tally_.attempted + open_tally_.attempted;
  const uint64_t failed = closed_tally_.failed + open_tally_.failed;
  const double open_s = seconds_ * (1 - kClosedShare);

  // Generator lag growth: the median lag of the open phase's last quarter
  // against its first.  A backlog that keeps building shows as a rising
  // median; single slow requests do not.
  std::vector<double> first_q, last_q;
  const TimedSamples& lag = open_tally_.lag_ms;
  for (size_t i = 0; i < lag.size(); ++i) {
    if (lag.at[i] < open_s / 4) first_q.push_back(lag.value[i]);
    if (lag.at[i] >= open_s * 3 / 4) last_q.push_back(lag.value[i]);
  }
  const double lag_first = Median(first_q);
  const double lag_last = Median(last_q);
  const bool lag_grew = lag_last > 2 * lag_first + 1.0;
  const double eff = std::min(cal_start_.effective_cores, cal_end_.effective_cores);
  const bool cores_short = eff < 0.9 * double(kRunThreads);
  std::vector<std::string> reasons;
  if (cores_short) reasons.push_back("\"effective cores below the threads used\"");
  if (lag_grew) reasons.push_back("\"generator lag grew\"");
  std::string invalid = "[";
  for (size_t i = 0; i < reasons.size(); ++i) invalid += (i ? ", " : "") + reasons[i];
  invalid += "]";

  const Summary lag_all = Summarize(lag.value);
  JsonObject host;
  host.Num("nproc", cal_start_.nproc)
      .Num("spin_rate_1", cal_start_.spin_rate_1)
      .Num("effective_cores_start", cal_start_.effective_cores)
      .Num("effective_cores_end", cal_end_.effective_cores)
      .Num("spin_threads", cal_start_.spin_threads)
      .Num("engine_threads_build", kBuildThreads)
      .Num("engine_threads_serve", kServeThreads)
      .Num("client_threads", kLanes)
      .Num("lag_ms_p50", lag_all.p50)
      .Num("lag_ms_p99", lag_all.p99)
      .Num("lag_ms_p50_first_quarter", lag_first)
      .Num("lag_ms_p50_last_quarter", lag_last)
      .Bool("valid", !cores_short && !lag_grew)
      .Add("invalid_reasons", invalid);

  // Every end-to-end metric of the workload, by name with its unit; the
  // distributions behind the latency figures follow under "latency".
  const Latency range(open_tally_.range_ms, open_s);
  const Latency knn(open_tally_.knn_ms, open_s);
  MetricSet e2e;
  e2e.Set("setup_s", Median(setup_s_), "s");
  e2e.Set("rss_mb", rss_mb_, "MB");
  e2e.Set("sat_qps", SatQps(), "1/s");
  e2e.Set("range_p50_ms", range.p50, "ms");
  e2e.Set("range_p90_ms", range.p90, "ms");
  e2e.Set("range_p99_ms", range.p99, "ms");
  e2e.Set("knn_p50_ms", knn.p50, "ms");
  e2e.Set("knn_p90_ms", knn.p90, "ms");
  e2e.Set("knn_p99_ms", knn.p99, "ms");
  e2e.Set("error_rate", Ratio(double(failed), double(attempted)), "ratio");
  JsonObject latency;
  latency.Add("range_ms", range.json()).Add("knn_ms", knn.json());
  if (spec_.durable) {
    const Latency apply(open_tally_.apply_ms, open_s);
    e2e.Set("sat_update_ops_s", Ratio(double(closed_tally_.update_ops), closed_elapsed_),
            "1/s");
    e2e.Set("apply_p50_ms", apply.p50, "ms");
    e2e.Set("apply_p99_ms", apply.p99, "ms");
    e2e.Set("recover_s", recover_s_, "s");
    latency.Add("apply_ms", apply.json())
        .Add("checkpoint_ms", SummaryJson(Summarize(load_checkpoint_ms_)));
  }
  JsonObject samples;
  samples.Add("setup_s", JsonList(setup_s_))
      .Num("sat_qps_whole_phase", Ratio(double(closed_tally_.queries), closed_elapsed_));

  JsonObject phases;
  phases.Num("closed_s", closed_elapsed_)
      .Num("closed_requests", double(closed_tally_.attempted))
      .Num("open_s", open_elapsed_)
      .Num("open_rate", spec_.open_rate)
      .Num("open_requests", double(open_tally_.attempted))
      .Num("open_unsent", double(open_unsent_))
      .Num("untyped_failures", double(closed_tally_.untyped + open_tally_.untyped))
      .Num("queue_peak_depth", svc_stats_.admission.peak_depth)
      .Num("queue_rejected", double(svc_stats_.admission.rejected))
      .Num("oracle_samples", double(samples_.size()))
      .Num("radius", radius_);

  JsonObject digests;
  digests.Str("closed", Hex(streams_.closed_digest))
      .Str("open", Hex(streams_.open_digest))
      .Str("trace", Hex(streams_.trace_digest));

  JsonObject report;
  report.Str("workload", spec_.name)
      .Num("seed", double(seed_))
      .Add("stream_digests", digests.str())
      .Add("host", host.str())
      .Add("end_to_end", e2e.str())
      .Add("latency", latency.str())
      .Add("samples", samples.str())
      .Add("phases", phases.str())
      .Add("gate_failures", gates_.json());
  if (trace_) {
    report.Add("per_layer", LayerMetrics())
        .Num("trace_spans", double(layer_.spans))
        .Str("span_file", layer_.span_file)
        .Num("trace_request_p50_ms_spans_on", Median(layer_.request_on_ms))
        .Num("trace_request_p50_ms_spans_off", Median(layer_.request_off_ms));
  }

  return JsonObject()
      .Bool("correct", gates_.ok())
      .Num("attempted", double(attempted))
      .Num("failed", double(failed))
      .Add("metrics", trace_ ? LayerMetrics() : E2EMetrics())
      .Add("report", report.str())
      .str();
}

/// Times one set-up (ShardedService::Create / CreateDurable).  When
/// `keep` is false the service is closed and its directory removed.
std::unique_ptr<ShardedService> Bench::TimedSetup(const std::string& dir, bool keep) {
  std::filesystem::remove_all(dir);
  const auto t0 = Clock::now();
  std::unique_ptr<ShardedService> svc = CreateService(dir);
  setup_s_.push_back(SecondsSince(t0));
  if (setup_s_.size() == 1) rss_mb_ = RssMb();
  if (!keep && svc != nullptr) {
    svc.reset();
    std::filesystem::remove_all(dir);
  }
  return svc;
}

int Bench::Run() {
  pmi::ThreadPool::SetGlobalThreads(kBuildThreads);
  std::filesystem::remove_all(work_dir_);
  std::filesystem::create_directories(work_dir_);
  Stage("start");
  cal_start_ = Calibrate(kRunThreads);
  MakeData();
  MakeStreams();
  std::fprintf(stderr, "perfbench: %s seed=%llu radius=%.0f digests closed=%s open=%s trace=%s\n",
               spec_.name.c_str(), static_cast<unsigned long long>(seed_), radius_,
               Hex(streams_.closed_digest).c_str(), Hex(streams_.open_digest).c_str(),
               Hex(streams_.trace_digest).c_str());

  // Set-up is timed several times, spread over the run so that one burst
  // of outside load cannot move the median.  The last set-up before the
  // load phases is the service under test.
  const std::string dir = work_dir_ + "/service";
  const std::string spare_dir = work_dir_ + "/setup";
  for (int rep = 1; rep < kSetupsBefore; ++rep) TimedSetup(spare_dir, false);
  std::unique_ptr<ShardedService> svc = TimedSetup(dir, true);
  Stage("set-up done");
  BuildOracle();
  if (svc != nullptr) {
    if (spec_.checkpoint_every != 0) {
      checkpointer_ = std::make_unique<Checkpointer>(svc.get(), &gates_);
    }
    pmi::ThreadPool::SetGlobalThreads(kServeThreads);
    for (int round = 0; round < kRounds; ++round) {
      ClosedLoop(*svc, round);
      OpenLoop(*svc, round);
    }
    pmi::ThreadPool::SetGlobalThreads(kBuildThreads);
    Stage("load phases done");
    if (checkpointer_ != nullptr) {
      checkpointer_->Stop();
      load_checkpoint_ms_ = checkpointer_->ms();
      checkpointer_.reset();
    }
    svc_stats_ = svc->stats();
    if (spec_.durable) {
      ApplyAcked(oracle_.get(), acked_, &gates_);
      CheckDurableState(*svc, "after quiescing");
      Status st = svc->Close();
      if (!st.ok()) gates_.Fail("close: " + st.ToString());
      svc.reset();
      Recover();
    } else {
      CheckSample();
      Status st = svc->Close();
      if (!st.ok()) gates_.Fail("close: " + st.ToString());
      svc.reset();
    }
  }
  Stage("checks done");
  if (trace_ && gates_.ok()) TracedRun();
  auto setup_total = [this] {
    double total = 0;
    for (double s : setup_s_) total += s;
    return total;
  };
  while (gates_.ok() && setup_s_.size() < kMaxSetups &&
         (setup_s_.size() < kMinSetups || setup_total() < kMinSetupSeconds)) {
    TimedSetup(spare_dir, false);
  }
  cal_end_ = Calibrate(kRunThreads);
  Stage("done");

  std::printf("%s\n", Report().c_str());
  std::fflush(stdout);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir_, ec)) {
    if (entry.is_directory()) std::filesystem::remove_all(entry.path(), ec);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace", "--work-dir"}) {
    if (args.count(key) == 0) {
      std::fprintf(stderr,
                   "usage: %s --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> --work-dir <dir>\n",
                   argv[0]);
      return 2;
    }
  }
  std::optional<perfbench::WorkloadSpec> spec =
      perfbench::FindWorkload(args["--workload"]);
  const double seconds = std::atof(args["--seconds"].c_str());
  if (!spec || seconds <= 0) {
    std::fprintf(stderr, "unknown workload or bad --seconds\n");
    return 2;
  }
  perfbench::Bench bench(*spec, std::strtoull(args["--seed"].c_str(), nullptr, 10),
                         seconds, args["--trace"] == "1", args["--work-dir"]);
  return bench.Run();
}
