// perfbench_selftest -- the benchmark's own tests.
//
//   perfbench_selftest <scratch-dir>
//
// Checks the pieces the benchmark's numbers rest on: stream determinism
// (same seed, same digest; different seeds, different digests), the Zipf
// sampler against known answers, the percentile logic and its p99
// resolution rule, and the counting Env's byte and sync counts.  Prints
// one line per failed check and exits non-zero if any failed.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "counting_env.h"
#include "loadgen.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void TestStreamDigests() {
  using perfbench::MakeStreams;
  perfbench::MixSpec mixed;
  mixed.write_share = 0.3;
  mixed.read_batch = 32;
  perfbench::MixSpec zipf;
  zipf.zipf_reads = true;
  perfbench::StreamShape shape;
  shape.objects = 1000;
  shape.lanes = 4;
  shape.closed_per_lane = 500;
  shape.open_rate = 300;
  shape.open_s = 5;
  shape.trace_requests = 100;
  for (const perfbench::MixSpec& mix : {perfbench::MixSpec{}, zipf, mixed}) {
    const perfbench::Streams a = MakeStreams(mix, shape, 7);
    const perfbench::Streams b = MakeStreams(mix, shape, 7);
    const perfbench::Streams c = MakeStreams(mix, shape, 8);
    Check(a.closed_digest == b.closed_digest && a.open_digest == b.open_digest &&
              a.trace_digest == b.trace_digest,
          "same seed gives the same stream digests");
    Check(a.closed_digest != c.closed_digest && a.open_digest != c.open_digest &&
              a.trace_digest != c.trace_digest,
          "different seeds give different stream digests");
  }
  // Update ids stay in their request's stripe and are distinct per
  // batch; closed-loop client j writes only stripe j.
  const perfbench::Streams m = MakeStreams(mixed, shape, 11);
  bool striped = true, owned = true, distinct = true, saw_write = false;
  auto check_lane = [&](const perfbench::Lane& lane, int owner) {
    for (const perfbench::Request& r : lane.requests) {
      if (r.kind != perfbench::Kind::kApply) continue;
      saw_write = true;
      owned &= owner < 0 || r.stripe == uint32_t(owner);
      for (uint32_t i = 0; i < r.count; ++i) {
        striped &= lane.ids[r.first + i] % shape.lanes == r.stripe;
        for (uint32_t k = 0; k < i; ++k) {
          distinct &= lane.ids[r.first + i] != lane.ids[r.first + k];
        }
      }
    }
  };
  for (uint32_t j = 0; j < shape.lanes; ++j) check_lane(m.closed[j], int(j));
  check_lane(m.open, -1);
  check_lane(m.trace, -1);
  Check(saw_write && striped, "update ids come from the request's stripe");
  Check(owned, "closed-loop client j writes only stripe j");
  Check(distinct, "update ids are distinct within one batch");
  // The open schedule is in due order at about the requested rate.
  bool ordered = true;
  for (size_t i = 1; i < m.open.requests.size(); ++i) {
    ordered &= m.open.requests[i - 1].due_s <= m.open.requests[i].due_s;
  }
  Check(ordered, "open-loop schedule is in due order");
  const double rate = double(m.open.requests.size()) / shape.open_s;
  Check(std::fabs(rate - shape.open_rate) < 0.1 * shape.open_rate,
        "open-loop schedule runs at the requested rate");
}

void TestZipf() {
  // Zipf(s = 1) over 4 ranks: weights 1, 1/2, 1/3, 1/4 sum to 25/12, so
  // the CDF is exactly 12/25, 18/25, 22/25, 1.
  perfbench::ZipfSampler z(4, 1.0);
  const double want[] = {0.48, 0.72, 0.88, 1.0};
  for (uint32_t k = 0; k < 4; ++k) {
    Check(std::fabs(z.Cdf(k) - want[k]) < 1e-12, "Zipf(4, 1) CDF known answer");
  }
  // Zipf(s = 0.99) over 10 ranks: P(rank 0) = 1 / sum_k k^-0.99.
  long double h = 0;
  for (int k = 1; k <= 10; ++k) h += std::pow(static_cast<long double>(k), -0.99L);
  perfbench::ZipfSampler z10(10, 0.99);
  Check(std::fabs(z10.Cdf(0) - double(1 / h)) < 1e-12, "Zipf(10, 0.99) head mass");
  // Sampled frequencies match the masses.
  perfbench::Rng rng(42);
  std::vector<int> hits(4, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++hits[z.Sample(rng)];
  const double mass[] = {0.48, 0.24, 0.16, 0.12};
  for (int k = 0; k < 4; ++k) {
    Check(std::fabs(double(hits[k]) / draws - mass[k]) < 0.005,
          "Zipf(4, 1) sampled frequency of rank " + std::to_string(k));
  }
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  perfbench::Summary s = perfbench::Summarize(v);
  Check(s.count == 100 && s.p50 == 50 && s.p99 == 99, "p50/p99 of 1..100");
  Check(s.beyond_p99 == 1 && !s.p99_resolved, "1..100: one sample beyond p99, unresolved");

  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  s = perfbench::Summarize(v);
  Check(s.p50 == 500 && s.p99 == 990, "p50/p99 of 1..1000");
  Check(s.beyond_p99 == 10 && s.p99_resolved, "1..1000: ten beyond p99, resolved");

  v.pop_back();  // 2..1000: 999 samples
  s = perfbench::Summarize(v);
  Check(s.beyond_p99 == 9 && !s.p99_resolved, "999 samples: nine beyond p99, unresolved");

  s = perfbench::Summarize(std::vector<double>(500, 3.0));
  Check(s.p99 == 3.0 && s.beyond_p99 == 0 && !s.p99_resolved, "ties: none beyond p99");

  s = perfbench::Summarize({});
  Check(s.count == 0 && s.p50 == 0 && !s.p99_resolved, "empty sample");
}

void TestWindows() {
  // 10 s of samples, 200 per second, all 1.0 except a 1 s burst of 100.0
  // inside the first of 4 windows: the windowed p99 stays 1.0 while the
  // whole-phase p99 is 100.0.
  perfbench::TimedSamples s;
  for (int i = 0; i < 2000; ++i) {
    const double at = i * 0.005;
    s.Add(at, at >= 0.5 && at < 1.5 ? 100.0 : 1.0);
  }
  Check(perfbench::WindowCount(s.size()) == 4, "one window per 500 samples");
  Check(perfbench::WindowedPercentile(s, 10.0, 0.99) == 1.0,
        "a burst in one window does not move the windowed p99");
  Check(perfbench::Summarize(s.value).p99 == 100.0, "the whole-phase p99 sees the burst");
  Check(perfbench::WindowCount(100) == 1 && perfbench::WindowCount(100000) == 16,
        "window count is clamped to 1..16");
  // 1 query every 0.1 s for 4 s is 10 queries/s in every window.
  perfbench::TimedSamples q;
  for (int i = 0; i < 40; ++i) q.Add(i * 0.1 + 0.05, 1.0);
  Check(std::fabs(perfbench::WindowedRate(q, 4.0, 8) - 10.0) < 1e-9,
        "windowed rate of a steady stream");
}

void TestCountingEnv(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(std::filesystem::path(dir).parent_path());
  perfbench::Tracer tracer;
  tracer.set_enabled(true);
  perfbench::CountingEnv env(&tracer);
  Check(env.CreateDir(dir).ok(), "CountingEnv creates a directory");
  const std::string path = dir + "/f";
  {
    auto f = env.NewWritableFile(path);
    Check(f.ok(), "CountingEnv opens a file");
    if (f.ok()) {
      Check((*f)->Append("hello").ok() && (*f)->Append(" world").ok(), "appends");
      Check((*f)->Sync().ok() && (*f)->Close().ok(), "sync and close");
    }
  }
  auto contents = env.ReadFileToString(path);
  Check(contents.ok() && *contents == "hello world", "reads back");
  const perfbench::CountingEnv::Counts c = env.counts();
  Check(c.bytes_appended == 11, "counts appended bytes");
  Check(c.bytes_read == 11, "counts read bytes");
  Check(c.syncs == 1 && env.sync_ms().size() == 1, "counts and times each sync");
  size_t appends = 0, syncs = 0;
  for (const perfbench::Span& s : tracer.spans()) {
    appends += std::string(s.name) == "env.append";
    syncs += std::string(s.name) == "env.sync";
  }
  Check(appends == 2 && syncs == 1, "records env.append and env.sync spans");
  std::filesystem::remove_all(dir);
}

void TestSpans() {
  perfbench::Tracer t;
  t.set_enabled(true);
  t.set_request(5);
  {
    perfbench::ScopedSpan root(&t, "replay");
    perfbench::ScopedSpan child(&t, "request");
    perfbench::ScopedSpan leaf(&t, "env.sync", /*leaf=*/true);
  }
  const std::vector<perfbench::Span> spans = t.spans();
  Check(spans.size() == 3, "three spans recorded");
  if (spans.size() == 3) {
    // Completion order: leaf, child, root.
    Check(spans[0].parent == spans[1].id && spans[1].parent == spans[2].id &&
              spans[2].parent == 0,
          "span parents follow nesting");
    Check(spans[0].request == 5 && spans[2].request == 5, "spans carry the request id");
    Check(spans[2].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[2].end_ns,
          "child lies inside its parent");
  }
  Check(t.parent() == 0, "closing the root restores the parent");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "perfbench-selftest";
  TestStreamDigests();
  TestZipf();
  TestPercentiles();
  TestWindows();
  TestCountingEnv(dir);
  TestSpans();
  std::printf("perfbench_selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
