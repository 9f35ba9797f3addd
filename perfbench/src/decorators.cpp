#include "decorators.h"

#include <utility>

#include "common/trace_context.h"
#include "obs/span.h"

namespace perfbench {

namespace net = approx::net;
namespace store = approx::store;
namespace obs = approx::obs;

namespace {

constexpr std::uint64_t kFrameOverhead =
    net::kFrameHeaderBytes + net::kFrameCrcBytes;

void add_double(std::atomic<double>& a, double v) {
  a.fetch_add(v, std::memory_order_relaxed);
}

void bump(std::atomic<std::uint64_t>& a, std::uint64_t v = 1) {
  a.fetch_add(v, std::memory_order_relaxed);
}

obs::Histogram& hist(const char* name) {
  return obs::registry().histogram(std::string("span.") + name + ".us");
}

}  // namespace

void TraceSink::add(const Interval& iv) {
  std::lock_guard<std::mutex> lock(mu_);
  intervals_.push_back(iv);
}

std::vector<Interval> TraceSink::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(intervals_, {});
}

// --- transport ---------------------------------------------------------------

NetStats NetStats::operator-(const NetStats& o) const {
  NetStats d;
  d.calls = calls - o.calls;
  d.handled = handled - o.handled;
  d.wire_bytes = wire_bytes - o.wire_bytes;
  d.timeouts = timeouts - o.timeouts;
  d.failures = failures - o.failures;
  d.timed_calls = timed_calls - o.timed_calls;
  d.timed_handled = timed_handled - o.timed_handled;
  d.call_us = call_us - o.call_us;
  d.handler_us = handler_us - o.handler_us;
  for (std::size_t v = 0; v < kVerbs; ++v) {
    d.verbs[v].calls = verbs[v].calls - o.verbs[v].calls;
    d.verbs[v].bytes = verbs[v].bytes - o.verbs[v].bytes;
    d.verbs[v].handled = verbs[v].handled - o.verbs[v].handled;
    d.verbs[v].call_us = verbs[v].call_us - o.verbs[v].call_us;
    d.verbs[v].handler_us = verbs[v].handler_us - o.verbs[v].handler_us;
  }
  return d;
}

CountingTransport::VerbCounters& CountingTransport::verb(std::uint16_t type) {
  return verbs_[type < NetStats::kVerbs ? type : 0];
}

net::NetStatus CountingTransport::serve(const net::Endpoint& endpoint,
                                        net::RpcHandler handler,
                                        net::Endpoint* bound) {
  auto wrapped = [this, inner = std::move(handler)](const net::Frame& req,
                                                    net::Frame& resp) {
    bump(c_.handled);
    VerbCounters& v = verb(req.type);
    bump(v.handled);
    if (!tracing() || req.trace_id == 0) {
      inner(req, resp);
      return;
    }
    static obs::Histogram& h = hist("bench.net.handler");
    approx::TraceContextScope ctx({req.trace_id, req.parent_id});
    const double t0 = obs::now_us();
    {
      obs::ObsSpan span("bench.net.handler", h);
      inner(req, resp);
    }
    const double t1 = obs::now_us();
    bump(c_.timed_handled);
    add_double(c_.handler_us, t1 - t0);
    add_double(v.handler_us, t1 - t0);
    sink_->add({req.trace_id, t0, t1});
  };
  return inner_.serve(endpoint, std::move(wrapped), bound);
}

void CountingTransport::stop(const net::Endpoint& endpoint) {
  inner_.stop(endpoint);
}

net::NetStatus CountingTransport::call(const net::Endpoint& endpoint,
                                       const net::Frame& req, net::Frame& resp,
                                       std::chrono::microseconds timeout) {
  VerbCounters& v = verb(req.type);
  bump(c_.calls);
  bump(v.calls);
  net::NetStatus st;
  double t0 = 0, t1 = 0;
  if (!tracing() || req.trace_id == 0) {
    st = inner_.call(endpoint, req, resp, timeout);
  } else {
    static obs::Histogram& h = hist("bench.net.call");
    t0 = obs::now_us();
    {
      obs::ObsSpan span("bench.net.call", h);
      st = inner_.call(endpoint, req, resp, timeout);
    }
    t1 = obs::now_us();
    bump(c_.timed_calls);
    add_double(c_.call_us, t1 - t0);
    add_double(v.call_us, t1 - t0);
    sink_->add({req.trace_id, t0, t1});
  }
  std::uint64_t bytes = kFrameOverhead + req.payload.size();
  if (st.ok()) bytes += kFrameOverhead + resp.payload.size();
  bump(c_.wire_bytes, bytes);
  bump(v.bytes, bytes);
  if (!st.ok()) bump(c_.failures);
  if (st.code == net::NetCode::kTimeout) bump(c_.timeouts);
  return st;
}

NetStats CountingTransport::stats() const {
  NetStats s;
  s.calls = c_.calls.load();
  s.handled = c_.handled.load();
  s.wire_bytes = c_.wire_bytes.load();
  s.timeouts = c_.timeouts.load();
  s.failures = c_.failures.load();
  s.timed_calls = c_.timed_calls.load();
  s.timed_handled = c_.timed_handled.load();
  s.call_us = c_.call_us.load();
  s.handler_us = c_.handler_us.load();
  for (std::size_t v = 0; v < NetStats::kVerbs; ++v) {
    s.verbs[v].calls = verbs_[v].calls.load();
    s.verbs[v].bytes = verbs_[v].bytes.load();
    s.verbs[v].handled = verbs_[v].handled.load();
    s.verbs[v].call_us = verbs_[v].call_us.load();
    s.verbs[v].handler_us = verbs_[v].handler_us.load();
  }
  return s;
}

// --- I/O backend -------------------------------------------------------------

IoStats IoStats::operator-(const IoStats& o) const {
  IoStats d;
  d.pread_calls = pread_calls - o.pread_calls;
  d.pread_bytes = pread_bytes - o.pread_bytes;
  d.pwrite_calls = pwrite_calls - o.pwrite_calls;
  d.pwrite_bytes = pwrite_bytes - o.pwrite_bytes;
  d.sync_calls = sync_calls - o.sync_calls;
  d.meta_calls = meta_calls - o.meta_calls;
  d.timed_preads = timed_preads - o.timed_preads;
  d.timed_syncs = timed_syncs - o.timed_syncs;
  d.pread_us = pread_us - o.pread_us;
  d.sync_us = sync_us - o.sync_us;
  return d;
}

class CountingIoBackend::File final : public store::IoFile {
 public:
  File(std::unique_ptr<store::IoFile> inner, CountingIoBackend& owner)
      : inner_(std::move(inner)), owner_(owner), c_(owner.c_) {}

  store::IoStatus pread(std::uint64_t offset,
                        std::span<std::uint8_t> out) override {
    bump(c_.pread_calls);
    bump(c_.pread_bytes, out.size());
    if (!owner_.tracing()) return inner_->pread(offset, out);
    static obs::Histogram& h = hist("bench.io.pread");
    return timed(h, "bench.io.pread", c_.timed_preads,
                 c_.pread_us,
                 [&] { return inner_->pread(offset, out); });
  }

  store::IoStatus pwrite(std::uint64_t offset,
                         std::span<const std::uint8_t> data) override {
    bump(c_.pwrite_calls);
    bump(c_.pwrite_bytes, data.size());
    return inner_->pwrite(offset, data);
  }

  store::IoStatus sync() override {
    bump(c_.sync_calls);
    if (!owner_.tracing()) return inner_->sync();
    static obs::Histogram& h = hist("bench.io.sync");
    return timed(h, "bench.io.sync", c_.timed_syncs,
                 c_.sync_us,
                 [&] { return inner_->sync(); });
  }

 private:
  template <typename Op>
  store::IoStatus timed(obs::Histogram& h, const char* name,
                        std::atomic<std::uint64_t>& calls,
                        std::atomic<double>& total, Op&& op) {
    const std::uint64_t trace = approx::current_trace_context().trace_id;
    const double t0 = obs::now_us();
    store::IoStatus st;
    {
      obs::ObsSpan span(name, h);
      st = op();
    }
    const double t1 = obs::now_us();
    bump(calls);
    add_double(total, t1 - t0);
    if (trace != 0) owner_.sink_->add({trace, t0, t1});
    return st;
  }

  std::unique_ptr<store::IoFile> inner_;
  CountingIoBackend& owner_;
  Counters& c_;
};

store::IoStatus CountingIoBackend::open(const std::filesystem::path& path,
                                        OpenMode mode,
                                        std::unique_ptr<store::IoFile>& out) {
  bump(c_.meta_calls);
  std::unique_ptr<store::IoFile> inner;
  store::IoStatus st = inner_.open(path, mode, inner);
  if (st.ok()) out = std::make_unique<File>(std::move(inner), *this);
  return st;
}

store::IoStatus CountingIoBackend::rename(const std::filesystem::path& from,
                                          const std::filesystem::path& to) {
  bump(c_.meta_calls);
  return inner_.rename(from, to);
}

store::IoStatus CountingIoBackend::remove(const std::filesystem::path& path) {
  bump(c_.meta_calls);
  return inner_.remove(path);
}

store::IoStatus CountingIoBackend::create_directories(
    const std::filesystem::path& path) {
  bump(c_.meta_calls);
  return inner_.create_directories(path);
}

store::IoStatus CountingIoBackend::sync_dir(const std::filesystem::path& dir) {
  bump(c_.meta_calls);
  return inner_.sync_dir(dir);
}

bool CountingIoBackend::exists(const std::filesystem::path& path) {
  bump(c_.meta_calls);
  return inner_.exists(path);
}

store::IoStatus CountingIoBackend::file_size(const std::filesystem::path& path,
                                             std::uint64_t& out) {
  bump(c_.meta_calls);
  return inner_.file_size(path, out);
}

IoStats CountingIoBackend::stats() const {
  IoStats s;
  s.pread_calls = c_.pread_calls.load();
  s.pread_bytes = c_.pread_bytes.load();
  s.pwrite_calls = c_.pwrite_calls.load();
  s.pwrite_bytes = c_.pwrite_bytes.load();
  s.sync_calls = c_.sync_calls.load();
  s.meta_calls = c_.meta_calls.load();
  s.timed_preads = c_.timed_preads.load();
  s.timed_syncs = c_.timed_syncs.load();
  s.pread_us = c_.pread_us.load();
  s.sync_us = c_.sync_us.load();
  return s;
}

}  // namespace perfbench
