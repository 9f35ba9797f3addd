#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/crc32.h"
#include "obs/span.h"

namespace perfbench {

namespace {

// Zipf(theta) over [0, n): rank 0 is the hottest object.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t draw(approx::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Schedule make_schedule(std::uint64_t seed, std::uint64_t file_bytes,
                       std::uint32_t read_bytes, double theta,
                       std::size_t count) {
  const std::size_t objects =
      static_cast<std::size_t>(file_bytes / read_bytes);
  ZipfSampler zipf(objects, theta);
  // Popularity rank -> object: a seeded permutation, so the hot objects
  // are spread over the file instead of always sitting at its start.
  approx::Rng rng(seed);
  std::vector<std::uint64_t> object_of(objects);
  for (std::size_t o = 0; o < objects; ++o) object_of[o] = o;
  for (std::size_t o = objects; o > 1; --o) {
    std::swap(object_of[o - 1], object_of[rng.below(o)]);
  }
  Schedule s;
  s.reqs.resize(count);
  for (ReadReq& r : s.reqs) {
    r.offset = object_of[zipf.draw(rng)] * read_bytes;
    r.len = read_bytes;
    std::uint8_t key[12];
    std::memcpy(key, &r.offset, 8);
    std::memcpy(key + 8, &r.len, 4);
    s.crc = approx::crc32({key, sizeof key}, s.crc);
  }
  return s;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.max = samples.back();
  auto at = [&](double p, std::size_t& beyond) {
    // Nearest rank: the smallest value with at least p*n samples <= it.
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(s.n)));
    rank = std::clamp<std::size_t>(rank, 1, s.n);
    const double v = samples[rank - 1];
    beyond = static_cast<std::size_t>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(), v));
    return v;
  };
  s.p50 = at(0.50, s.beyond_p50);
  s.p75 = at(0.75, s.beyond_p75);
  s.p90 = at(0.90, s.beyond_p90);
  s.p99 = at(0.99, s.beyond_p99);
  s.p999 = at(0.999, s.beyond_p999);
  return s;
}

namespace {

bool run_op(const ReadOp& op, std::size_t i, const ReadReq& req,
            std::vector<std::uint8_t>& buf) {
  try {
    return op(i, req, buf);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

OpenLoopResult run_open_loop(const std::vector<ReadReq>& reqs, double qps,
                             unsigned workers, const ReadOp& op) {
  const std::size_t n = reqs.size();
  OpenLoopResult r;
  r.latency_us.assign(n, 0);
  r.lag_us.assign(n, 0);
  r.queue_wait_us.assign(n, 0);
  r.service_us.assign(n, 0);
  r.ok.assign(n, 0);
  std::vector<double> dispatched(n, 0);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool done = false;

  const double interval_us = 1e6 / qps;
  const double t0 = approx::obs::now_us() + 1000.0;
  auto intended = [&](std::size_t i) {
    return t0 + static_cast<double>(i) * interval_us;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::vector<std::uint8_t> buf;
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        const double start = approx::obs::now_us();
        r.ok[i] = run_op(op, i, reqs[i], buf) ? 1 : 0;
        const double end = approx::obs::now_us();
        r.queue_wait_us[i] = start - dispatched[i];
        r.service_us[i] = end - start;
        r.latency_us[i] = end - intended(i);
      }
    });
  }

  for (std::size_t i = 0; i < n; ++i) {
    // Sleep to the intended send time; when behind, dispatch at once so
    // the backlog stays in the measured latency.
    const double ahead_us = intended(i) - approx::obs::now_us();
    if (ahead_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(ahead_us)));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      dispatched[i] = approx::obs::now_us();
      r.lag_us[i] = dispatched[i] - intended(i);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (auto& t : pool) t.join();
  return r;
}

ClosedLoopResult run_closed_loop(const std::vector<ReadReq>& reqs,
                                 double seconds, unsigned workers,
                                 const ReadOp& op) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> completed{0}, failed{0};
  const double t0 = approx::obs::now_us();
  const double stop = t0 + seconds * 1e6;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::vector<std::uint8_t> buf;
      while (approx::obs::now_us() < stop) {
        const std::size_t i =
            next.fetch_add(1, std::memory_order_relaxed) % reqs.size();
        if (run_op(op, i, reqs[i], buf)) {
          completed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  ClosedLoopResult r;
  r.completed = completed.load();
  r.failed = failed.load();
  r.seconds = (approx::obs::now_us() - t0) / 1e6;
  return r;
}

unsigned client_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

}  // namespace perfbench
