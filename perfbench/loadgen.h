// Deterministic request streams for the service benchmark.
//
// Everything the benchmark sends is generated up front from the
// --seed argument: the dataset, the query ids, the update ids, and the
// open-loop arrival schedule.  The program under test only ever sees
// the generated requests.  Each stream has a 64-bit digest (FNV-1a over
// its canonical encoding) that the benchmark prints, so two runs can
// show they sent exactly the same requests.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast, and fully specified, so streams do not
/// depend on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() { return double(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n); n >= 1.
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }
  /// Exponential inter-arrival time with the given rate (events/s).
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

 private:
  uint64_t state_;
};

/// Derives an independent sub-seed for stream `tag` of run `seed`.
inline uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  r.Next();
  return r.Next();
}

/// Zipf(s) over ranks [0, n): P(rank k) is proportional to 1/(k+1)^s.
/// Sampling inverts the exact cumulative distribution by binary search.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("ZipfSampler needs n >= 1");
    double sum = 0;
    for (uint32_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(double(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }

  /// P(rank <= k).
  double Cdf(uint32_t k) const { return cdf_[k]; }

  uint32_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    return static_cast<uint32_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A seeded permutation of [0, n) (Fisher-Yates).
inline std::vector<uint32_t> Permutation(uint32_t n, Rng& rng) {
  std::vector<uint32_t> p(n);
  for (uint32_t i = 0; i < n; ++i) p[i] = i;
  for (uint32_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

enum class Kind : uint8_t { kRange = 0, kKnn = 1, kApply = 2 };

/// One request.  Reads name `count` query objects, updates name `count`
/// ids to toggle (remove when live, insert when removed); both live in
/// the owning stream's `ids` pool starting at `first`.  An update's ids
/// all come from stripe `stripe` (see RequestFactory).
struct Request {
  Kind kind = Kind::kRange;
  uint32_t stripe = 0;
  uint32_t first = 0;
  uint32_t count = 0;
  /// Open loop only: when the request is due, in seconds from the start
  /// of the phase.
  double due_s = 0;
};

/// The requests of one client lane, in the order the lane sends them.
struct Lane {
  std::vector<Request> requests;
  std::vector<uint32_t> ids;
};

/// FNV-1a 64 over a stream's canonical encoding.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const Lane& lane) {
    Add(lane.requests.size());
    for (const Request& r : lane.requests) {
      Add(static_cast<uint64_t>(r.kind));
      Add(r.stripe);
      Add(static_cast<uint64_t>(std::llround(r.due_s * 1e9)));
      for (uint32_t i = 0; i < r.count; ++i) Add(lane.ids[r.first + i]);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The shape of a workload's traffic.
struct MixSpec {
  double write_share = 0;    // fraction of requests that are updates
  uint32_t read_batch = 1;   // query objects per read request
  uint32_t ops_per_write = 8;
  bool zipf_reads = false;   // query ids Zipf over a permutation, else uniform
  double zipf_s = 0.99;
};

/// Draws query ids and per-stripe update ids.  Update ids of stripe j
/// are the ids congruent to j modulo the lane count; closed-loop client j
/// writes only stripe j, and open-loop senders serialize updates per
/// stripe, so the liveness of each stripe evolves one update at a time.
class RequestFactory {
 public:
  /// `popularity_seed` fixes which ids are hot (the Zipf permutations);
  /// the request draws themselves come from the Rng passed to Add.
  RequestFactory(const MixSpec& mix, uint32_t n, uint32_t lanes,
                 uint64_t popularity_seed)
      : mix_(mix), n_(n), lanes_(lanes) {
    Rng rng(popularity_seed);
    if (mix_.zipf_reads) {
      read_zipf_ = std::make_unique<ZipfSampler>(n, mix_.zipf_s);
      read_perm_ = Permutation(n, rng);
    }
    if (mix_.write_share > 0) {
      const uint32_t stripe = n / lanes;
      write_zipf_ = std::make_unique<ZipfSampler>(stripe, mix_.zipf_s);
      for (uint32_t j = 0; j < lanes; ++j) {
        stripe_perm_.push_back(Permutation(stripe, rng));
      }
    }
  }

  /// Appends one request to `out`; an update draws from stripe `lane`.
  void Add(uint32_t lane, Rng& rng, double due_s, Lane* out) const {
    Request r;
    r.stripe = lane;
    r.due_s = due_s;
    r.first = static_cast<uint32_t>(out->ids.size());
    if (mix_.write_share > 0 && rng.Uniform() < mix_.write_share) {
      r.kind = Kind::kApply;
      // Distinct ids within one batch: a retried sub-batch can then be
      // attributed op by op (see src/service/retry.h).
      while (r.count < mix_.ops_per_write) {
        const uint32_t rank = write_zipf_->Sample(rng);
        const uint32_t id = stripe_perm_[lane][rank] * lanes_ + lane;
        bool dup = false;
        for (uint32_t i = 0; i < r.count; ++i) {
          dup |= out->ids[r.first + i] == id;
        }
        if (dup) continue;
        out->ids.push_back(id);
        ++r.count;
      }
    } else {
      r.kind = rng.Uniform() < 0.5 ? Kind::kRange : Kind::kKnn;
      r.count = mix_.read_batch;
      for (uint32_t i = 0; i < r.count; ++i) {
        out->ids.push_back(mix_.zipf_reads ? read_perm_[read_zipf_->Sample(rng)]
                                           : rng.Below(n_));
      }
    }
    out->requests.push_back(r);
  }

 private:
  MixSpec mix_;
  uint32_t n_;
  uint32_t lanes_;
  std::unique_ptr<ZipfSampler> read_zipf_;
  std::vector<uint32_t> read_perm_;
  std::unique_ptr<ZipfSampler> write_zipf_;
  std::vector<std::vector<uint32_t>> stripe_perm_;
};

/// Every request a run sends, with the digest of each stream.
struct Streams {
  std::vector<Lane> closed;  // closed loop: one lane per client
  Lane open;                 // open loop: the whole schedule, by due time
  Lane trace;                // the traced replay, sent one at a time
  uint64_t closed_digest = 0;
  uint64_t open_digest = 0;
  uint64_t trace_digest = 0;
};

struct StreamShape {
  uint64_t popularity_seed = 0;  // see RequestFactory
  uint32_t objects = 0;
  uint32_t lanes = 0;
  uint32_t closed_per_lane = 0;
  double open_rate = 0;  // requests/s
  double open_s = 0;     // open-loop phase length
  uint32_t trace_requests = 0;
};

inline Streams MakeStreams(const MixSpec& mix, const StreamShape& shape,
                           uint64_t seed) {
  RequestFactory factory(mix, shape.objects, shape.lanes, shape.popularity_seed);
  Streams s;
  Digest closed, open, trace;
  s.closed.assign(shape.lanes, Lane{});
  for (uint32_t j = 0; j < shape.lanes; ++j) {
    Rng rng(SubSeed(seed, 100 + j));
    for (uint32_t i = 0; i < shape.closed_per_lane; ++i) {
      factory.Add(j, rng, 0, &s.closed[j]);
    }
    closed.Add(s.closed[j]);
  }
  // Open loop: one Poisson process at open_rate; updates rotate over the
  // stripes.
  Rng arrivals(SubSeed(seed, 200));
  Rng rng(SubSeed(seed, 201));
  double t = arrivals.Exponential(shape.open_rate);
  for (uint64_t i = 0; t < shape.open_s; ++i) {
    factory.Add(static_cast<uint32_t>(i % shape.lanes), rng, t, &s.open);
    t += arrivals.Exponential(shape.open_rate);
  }
  open.Add(s.open);
  Rng trng(SubSeed(seed, 300));
  for (uint32_t i = 0; i < shape.trace_requests; ++i) {
    factory.Add(i % shape.lanes, trng, 0, &s.trace);
  }
  trace.Add(s.trace);
  s.closed_digest = closed.value();
  s.open_digest = open.value();
  s.trace_digest = trace.value();
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
