// Host calibration recorded with every run.
//
// A shared host's usable parallelism changes from moment to moment, so
// each run measures it: the single-core spin rate, and the effective
// core count an N-thread spin achieves relative to it.  A run that used
// more threads than the host effectively gave it is flagged invalid.

#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// Spins a xorshift loop for `seconds`; returns iterations per second.
inline double SpinRate(double seconds) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  uint64_t x = 88172645463325252ULL;
  uint64_t iters = 0;
  auto now = t0;
  while (now < until) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iters += 4096;
    now = Clock::now();
  }
  std::atomic_signal_fence(std::memory_order_seq_cst);
  volatile uint64_t sink = x;
  (void)sink;
  return double(iters) / std::chrono::duration<double>(now - t0).count();
}

struct Calibration {
  unsigned nproc = 0;
  double spin_rate_1 = 0;      // iterations/s on one thread
  double effective_cores = 0;  // N-thread spin total / single rate
  unsigned spin_threads = 0;
};

inline Calibration Calibrate(unsigned threads, double seconds = 0.1) {
  Calibration c;
  c.nproc = std::thread::hardware_concurrency();
  c.spin_threads = threads;
  c.spin_rate_1 = SpinRate(seconds);
  std::vector<double> rates(threads);
  // Two rounds; the first wakes idle virtual CPUs, the second is kept.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&rates, t, seconds] { rates[t] = SpinRate(seconds); });
    }
    for (std::thread& t : pool) t.join();
  }
  double total = 0;
  for (double r : rates) total += r;
  c.effective_cores = c.spin_rate_1 > 0 ? total / c.spin_rate_1 : 0;
  return c;
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
