// Pass-through decorators on the program's two pluggable interfaces.
//
// CountingTransport wraps a net::Transport and CountingIoBackend wraps a
// store::IoBackend.  Both forward every call unchanged and count what
// crosses them: calls, bytes, timeouts, metadata operations.  Counting is
// a few relaxed atomic adds and reads no clock, so untraced runs pay
// almost nothing.  While their TraceSink is on (traced runs only) they
// also time each call, open a "bench.*" span so the call appears in the
// program's Chrome trace, and record an interval tagged with the request's
// trace id: the client side and the server handler take it from the
// frame, the I/O backend from the thread's current trace context, which
// the program's RPC shim and thread pool propagate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.h"
#include "store/io_backend.h"

namespace perfbench {

// One timed net call, handler run, pread or sync of a traced request.
struct Interval {
  std::uint64_t trace_id = 0;
  double start_us = 0;
  double end_us = 0;
};

// Intervals recorded by the decorators of a traced run.  Decorators time
// calls only while the sink is on, so a traced run can also measure an
// untraced baseline.
class TraceSink {
 public:
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void add(const Interval& iv);
  std::vector<Interval> take();

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<Interval> intervals_;
};

// Plain snapshot of the transport counters; subtract two to get a phase.
struct NetStats {
  static constexpr std::size_t kVerbs = 64;  // MsgType values are < 64
  struct Verb {
    std::uint64_t calls = 0, bytes = 0;
    double call_us = 0, handler_us = 0;  // timed while tracing
    std::uint64_t handled = 0;
  };
  std::uint64_t calls = 0;      // client Transport::call invocations
  std::uint64_t handled = 0;    // server handler invocations
  std::uint64_t wire_bytes = 0; // request + response frames, both ways
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;   // any non-ok transport status
  // Timed while tracing: calls, handler runs and their summed durations.
  std::uint64_t timed_calls = 0, timed_handled = 0;
  double call_us = 0, handler_us = 0;
  std::array<Verb, kVerbs> verbs{};

  NetStats operator-(const NetStats& o) const;
};

class CountingTransport final : public approx::net::Transport {
 public:
  CountingTransport(approx::net::Transport& inner, TraceSink* sink)
      : inner_(inner), sink_(sink) {}

  approx::net::NetStatus serve(const approx::net::Endpoint& endpoint,
                               approx::net::RpcHandler handler,
                               approx::net::Endpoint* bound) override;
  void stop(const approx::net::Endpoint& endpoint) override;
  approx::net::NetStatus call(const approx::net::Endpoint& endpoint,
                              const approx::net::Frame& req,
                              approx::net::Frame& resp,
                              std::chrono::microseconds timeout) override;

  NetStats stats() const;

 private:
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> calls{0}, handled{0}, wire_bytes{0},
        timeouts{0}, failures{0}, timed_calls{0}, timed_handled{0};
    std::atomic<double> call_us{0}, handler_us{0};
  };
  struct VerbCounters {
    std::atomic<std::uint64_t> calls{0}, bytes{0}, handled{0};
    std::atomic<double> call_us{0}, handler_us{0};
  };
  VerbCounters& verb(std::uint16_t type);
  bool tracing() const { return sink_ != nullptr && sink_->on(); }

  approx::net::Transport& inner_;
  TraceSink* sink_;
  Counters c_;
  std::array<VerbCounters, NetStats::kVerbs> verbs_;
};

struct IoStats {
  std::uint64_t pread_calls = 0, pread_bytes = 0;
  std::uint64_t pwrite_calls = 0, pwrite_bytes = 0;
  std::uint64_t sync_calls = 0;
  // open, exists, file_size, rename, remove, create_directories, sync_dir
  std::uint64_t meta_calls = 0;
  // Timed while tracing.
  std::uint64_t timed_preads = 0, timed_syncs = 0;
  double pread_us = 0, sync_us = 0;

  IoStats operator-(const IoStats& o) const;
};

class CountingIoBackend final : public approx::store::IoBackend {
 public:
  CountingIoBackend(approx::store::IoBackend& inner, TraceSink* sink)
      : inner_(inner), sink_(sink) {}

  approx::store::IoStatus open(
      const std::filesystem::path& path, OpenMode mode,
      std::unique_ptr<approx::store::IoFile>& out) override;
  approx::store::IoStatus rename(const std::filesystem::path& from,
                                 const std::filesystem::path& to) override;
  approx::store::IoStatus remove(const std::filesystem::path& path) override;
  approx::store::IoStatus create_directories(
      const std::filesystem::path& path) override;
  approx::store::IoStatus sync_dir(const std::filesystem::path& dir) override;
  bool exists(const std::filesystem::path& path) override;
  approx::store::IoStatus file_size(const std::filesystem::path& path,
                                    std::uint64_t& out) override;

  IoStats stats() const;

 private:
  class File;
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> pread_calls{0}, pread_bytes{0},
        pwrite_calls{0}, pwrite_bytes{0}, sync_calls{0}, meta_calls{0},
        timed_preads{0}, timed_syncs{0};
    std::atomic<double> pread_us{0}, sync_us{0};
  };

  bool tracing() const { return sink_ != nullptr && sink_->on(); }

  approx::store::IoBackend& inner_;
  TraceSink* sink_;
  Counters c_;
};

}  // namespace perfbench
