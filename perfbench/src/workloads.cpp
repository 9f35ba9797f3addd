// The benchmark's workloads.
//
// Every workload walks one volume through the same life cycle, so every
// workload reports every end-to-end metric:
//
//   set-up (input file, cluster or local store, and for the read
//   workloads the volume build) -> scrub -> [lose one data node's chunk
//   file] -> open-loop Zipf reads -> closed-loop reads -> repair ->
//   scrub -> whole-file get
//
// What differs is where the time goes.  read_tcp serves healthy reads over
// localhost TCP from four in-process daemons, so net, serving and the
// daemons' preads dominate.  read_degraded reads a local VolumeStore with
// one data node's chunk file gone, so every read is rebuilt through
// core/codes/kernels from CRC-checked local preads and the network is
// absent.  ingest_tcp pushes a 128 MiB file through the TCP cluster (put,
// scrub, repair, get twice), so pwrite, fsync, rename, manifest commits,
// encode and repair math dominate; its short read phase runs while the
// chunk file is lost, before repair.
//
// Every output is checked: each read byte for byte against the seeded
// input, scrubs must be clean, repairs fully_recovered, gets identical to
// the input.  The volume geometry is RS(4,1,2,4) Even with 4 KiB elements
// and the hot-tier cache is off, the production default.  Durability is
// the store's own: it fsyncs chunk files, the manifest and directories as
// it always does; the benchmark adds no flush to the store's writes and
// skips none.
#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "decorators.h"
#include "loadgen.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serving/client.h"
#include "serving/coordinator.h"
#include "serving/daemon.h"
#include "store/format.h"
#include "store/scrubber.h"
#include "store/store.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace obs = approx::obs;
namespace store = approx::store;
namespace serving = approx::serving;
namespace net = approx::net;
namespace core = approx::core;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint32_t kReadBytes = 64 * 1024;
constexpr double kZipfTheta = 0.99;
constexpr double kDeadlineUs = 100'000;
constexpr int kDaemons = 4;
constexpr int kSetupReps = 5;
constexpr std::size_t kClosedSchedule = 4096;

const core::ApprParams kParams{approx::codes::Family::RS, 4, 1, 2, 4,
                               core::Structure::Even};

struct Spec {
  const char* name;
  bool tcp;
  std::uint64_t file_bytes;
  double qps;            // open-loop rate
  bool lose_before_reads;
  bool put_in_setup;     // the read workloads build their volume in set-up
  double open_share;     // shares of --seconds for the two read phases
  double closed_share;
  int windows;           // rounds of open- then closed-loop reads
  int cycles;            // put..get cycles (one volume each)
  int reps;              // scrub, repair and get samples per cycle
};

const Spec kSpecs[] = {
    {"read_tcp", true, 32u << 20, 50, false, true, 0.5, 0.2, 5, 1, 5},
    {"read_degraded", false, 32u << 20, 200, true, true, 0.5, 0.2, 5, 1, 5},
    {"ingest_tcp", true, 128u << 20, 50, true, false, 0.2, 0.1, 3, 2, 1},
};

double now_s() { return obs::now_us() / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string numbered(const char* prefix, int n) {
  std::string s = prefix;
  s.append(std::to_string(n));
  return s;
}

store::StoreOptions store_options() {
  store::StoreOptions opts;
  opts.cache_mb = 0;  // explicit: the environment must not turn it on
  return opts;
}

// Set-up writes the input with an fsync: on ext4 an unsynced file would
// otherwise be flushed inside the store's next fsync and charged to
// whichever phase ran it.
void write_synced(const fs::path& path,
                  const std::vector<std::uint8_t>& bytes) {
  store::PosixIoBackend io;
  std::unique_ptr<store::IoFile> f;
  if (!io.open(path, store::IoBackend::OpenMode::kTruncate, f).ok() ||
      !f->pwrite(0, bytes).ok() || !f->sync().ok()) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

bool file_equals(const fs::path& path, const std::vector<std::uint8_t>& want) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> got(want.size() + 1);
  in.read(reinterpret_cast<char*>(got.data()),
          static_cast<std::streamsize>(got.size()));
  return static_cast<std::size_t>(in.gcount()) == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

// The system under test: one volume behind either a local VolumeStore or
// a TCP cluster client.
class Target {
 public:
  virtual ~Target() = default;
  virtual void put(const fs::path& input) = 0;
  virtual bool scrub_clean() = 0;
  virtual void lose_node(int node) = 0;
  virtual store::RepairOutcome repair() = 0;
  virtual bool get(const fs::path& output) = 0;  // decode reported crc_ok
  virtual store::VolumeStore& volume() = 0;
  virtual std::uint64_t chunk_bytes() = 0;  // chunk files on disk
  virtual NetStats net_stats() const { return {}; }
  virtual IoStats io_stats() const = 0;
};

class LocalTarget final : public Target {
 public:
  LocalTarget(fs::path dir, TraceSink* sink)
      : dir_(std::move(dir)), io_(posix_, sink) {}

  void put(const fs::path& input) override {
    vol_.reset();
    fs::remove_all(dir_ / "vol");
    {
      const store::VolumeStore built = store::VolumeStore::encode_file(
          io_, input, dir_ / "vol", kParams, 4096, std::nullopt,
          store_options());
      (void)built;
    }
    vol_.emplace(io_, dir_ / "vol", store_options());
  }
  bool scrub_clean() override {
    return store::ScrubService(*vol_).scrub().clean();
  }
  void lose_node(int node) override { fs::remove(vol_->node_path(node)); }
  store::RepairOutcome repair() override {
    return store::ScrubService(*vol_).repair();
  }
  bool get(const fs::path& output) override {
    return vol_->decode_file(output).crc_ok;
  }
  store::VolumeStore& volume() override { return *vol_; }
  std::uint64_t chunk_bytes() override {
    std::uint64_t sum = 0;
    for (int n = 0; n < vol_->code().total_nodes(); ++n) {
      sum += fs::file_size(vol_->node_path(n));
    }
    return sum;
  }
  IoStats io_stats() const override { return io_.stats(); }

 private:
  fs::path dir_;
  store::PosixIoBackend posix_;
  CountingIoBackend io_;
  std::optional<store::VolumeStore> vol_;
};

// Coordinator plus four storage daemons on real localhost TCP, all in this
// process, and a ServingClient.  The Transport decorator sits under every
// client call and around every server handler; the IoBackend decorator
// sits under all four daemons.
class TcpTarget final : public Target {
 public:
  TcpTarget(fs::path dir, TraceSink* sink)
      : dir_(std::move(dir)), net_(tcp_, sink), node_io_(posix_, sink) {
    coord_ = std::make_unique<serving::Coordinator>(net_, "127.0.0.1:0",
                                                    posix_, dir_ / "meta");
    if (!coord_->start().ok()) throw std::runtime_error("coordinator start");
    for (int n = 0; n < kDaemons; ++n) {
      serving::DaemonOptions o;
      o.name = numbered("n", n);
      o.rack = static_cast<std::uint32_t>(n);
      daemons_.push_back(std::make_unique<serving::StorageDaemon>(
          net_, "127.0.0.1:0", node_io_, daemon_dir(n), std::move(o)));
      if (!daemons_.back()->start().ok() ||
          !daemons_.back()->join(coord_->endpoint()).ok()) {
        throw std::runtime_error("daemon start");
      }
    }
    serving::ClientOptions copts;
    copts.params = kParams;
    copts.store = store_options();
    client_ = std::make_unique<serving::ServingClient>(
        net_, coord_->endpoint(), copts);
  }

  ~TcpTarget() override {
    vol_.reset();
    client_.reset();
    for (auto& d : daemons_) d->stop();
    coord_->stop();
    tcp_.shutdown();
  }

  void put(const fs::path& input) override {
    if (vol_) {
      // Keep disk use flat across cycles: the previous volume is done.
      vol_.reset();
      for (int n = 0; n < kDaemons; ++n) fs::remove_all(daemon_dir(n) / name_);
    }
    name_ = numbered("v", puts_++);
    client_->put(input, name_);
    vol_ = client_->open(name_);
  }
  bool scrub_clean() override { return client_->scrub(name_).clean(); }
  void lose_node(int node) override {
    const std::string file =
        store::node_file_name(vol_->store().version(), node);
    for (int n = 0; n < kDaemons; ++n) {
      fs::remove(daemon_dir(n) / name_ / file);
    }
  }
  store::RepairOutcome repair() override { return client_->repair(name_); }
  bool get(const fs::path& output) override {
    return client_->get(name_, output).crc_ok;
  }
  store::VolumeStore& volume() override { return vol_->store(); }
  std::uint64_t chunk_bytes() override {
    std::uint64_t sum = 0;
    const store::VolumeStore& v = vol_->store();
    for (int node = 0; node < v.code().total_nodes(); ++node) {
      const std::string file = store::node_file_name(v.version(), node);
      for (int n = 0; n < kDaemons; ++n) {
        const fs::path p = daemon_dir(n) / name_ / file;
        if (fs::exists(p)) sum += fs::file_size(p);
      }
    }
    return sum;
  }
  NetStats net_stats() const override { return net_.stats(); }
  IoStats io_stats() const override { return node_io_.stats(); }

 private:
  fs::path daemon_dir(int n) const { return dir_ / numbered("d", n); }

  fs::path dir_;
  net::TcpTransport tcp_;
  CountingTransport net_;
  store::PosixIoBackend posix_;
  CountingIoBackend node_io_;
  std::unique_ptr<serving::Coordinator> coord_;
  std::vector<std::unique_ptr<serving::StorageDaemon>> daemons_;
  std::unique_ptr<serving::ServingClient> client_;
  std::unique_ptr<serving::RemoteVolume> vol_;
  std::string name_;
  int puts_ = 0;
};

std::unique_ptr<Target> make_target(const Spec& spec, const fs::path& dir,
                                    TraceSink* sink) {
  fs::create_directories(dir);
  if (spec.tcp) return std::make_unique<TcpTarget>(dir, sink);
  return std::make_unique<LocalTarget>(dir, sink);
}

// The data node whose chunk file the workloads lose: the first node that
// holds important (I-frame) bytes, fixed so every seed degrades the same
// node.
int lost_data_node() {
  const core::ApproximateCode code(kParams, 4096);
  for (int n = 0; n < code.total_nodes(); ++n) {
    if (code.node_important_range(n).len > 0) return n;
  }
  return 0;
}

// Operation accounting for ok_frac, attempted and failed.
struct Tally {
  std::uint64_t attempted = 0, ok = 0, failed = 0;
  void op(bool correct, bool in_time = true) {
    ++attempted;
    if (!correct) {
      ++failed;
    } else if (in_time) {
      ++ok;
    }
  }
  void ops(std::uint64_t n_ok, std::uint64_t n_failed) {
    attempted += n_ok + n_failed;
    ok += n_ok;
    failed += n_failed;
  }
};

// Snapshot of every counter and span histogram a per-layer metric reads.
struct Probe {
  NetStats net;
  IoStats io;
  std::uint64_t retries = 0, stall_read = 0, stall_write = 0,
                kernel_bytes = 0;
  struct Hist {
    std::uint64_t count = 0;
    double sum = 0;
    double mean() const { return ratio(sum, static_cast<double>(count)); }
  };
  Hist pipe_read, pipe_process, pipe_write, degraded_read;
  Hist codec;  // the core.* spans that never nest in one another

  Probe operator-(const Probe& o) const {
    Probe d;
    d.net = net - o.net;
    d.io = io - o.io;
    d.retries = retries - o.retries;
    d.stall_read = stall_read - o.stall_read;
    d.stall_write = stall_write - o.stall_write;
    d.kernel_bytes = kernel_bytes - o.kernel_bytes;
    auto sub = [](Hist a, Hist b) {
      return Hist{a.count - b.count, a.sum - b.sum};
    };
    d.pipe_read = sub(pipe_read, o.pipe_read);
    d.pipe_process = sub(pipe_process, o.pipe_process);
    d.pipe_write = sub(pipe_write, o.pipe_write);
    d.degraded_read = sub(degraded_read, o.degraded_read);
    d.codec = sub(codec, o.codec);
    return d;
  }
};

Probe::Hist hist(const char* name) {
  const obs::Histogram& h = obs::registry().histogram(name);
  return {h.count(), h.sum()};
}

Probe take_probe(const Target& t) {
  auto& reg = obs::registry();
  Probe p;
  p.net = t.net_stats();
  p.io = t.io_stats();
  p.retries = reg.counter("net.rpc.retries").value();
  p.stall_read = reg.counter("store.pipeline.stall_read").value();
  p.stall_write = reg.counter("store.pipeline.stall_write").value();
  for (const char* b : {"scalar", "ssse3", "avx2", "avx512", "gfni"}) {
    p.kernel_bytes +=
        reg.sharded_counter(std::string("kernels.bytes.") + b).value();
  }
  p.pipe_read = hist("span.store.pipeline.read.us");
  p.pipe_process = hist("span.store.pipeline.process.us");
  p.pipe_write = hist("span.store.pipeline.write.us");
  const Probe::Hist imp = hist("span.core.degraded_read.important.us");
  const Probe::Hist unimp = hist("span.core.degraded_read.unimportant.us");
  p.degraded_read = {imp.count + unimp.count, imp.sum + unimp.sum};
  p.codec = p.degraded_read;
  for (const char* name : {"span.core.encode.us", "span.core.repair.plan.us",
                           "span.core.repair.execute.us",
                           "span.core.scrub.us"}) {
    const Probe::Hist h = hist(name);
    p.codec.count += h.count;
    p.codec.sum += h.sum;
  }
  return p;
}

// Per-layer metrics from one probe delta: `ops` operations that moved
// `user_bytes` bytes the caller asked for.
void report_layers(Report& r, const Probe& d, double ops, double user_bytes) {
  const double calls_timed = static_cast<double>(d.net.timed_calls);
  const double handled_timed = static_cast<double>(d.net.timed_handled);
  const double call_us = ratio(d.net.call_us, calls_timed);
  const double handler_us = ratio(d.net.handler_us, handled_timed);
  r.set("net.calls_per_op", ratio(static_cast<double>(d.net.calls), ops));
  r.set("net.call_us", call_us);
  r.set("net.handler_us", handler_us);
  r.set("net.wire_us", calls_timed > 0 ? call_us - handler_us : 0);
  r.set("net.wire_bytes_per_user_byte",
        ratio(static_cast<double>(d.net.wire_bytes), user_bytes));
  r.set("net.retries_per_op", ratio(static_cast<double>(d.retries), ops));
  r.set("net.timeouts_per_op",
        ratio(static_cast<double>(d.net.timeouts), ops));

  r.set("io.pread_calls_per_op",
        ratio(static_cast<double>(d.io.pread_calls), ops));
  r.set("io.pread_bytes_per_user_byte",
        ratio(static_cast<double>(d.io.pread_bytes), user_bytes));
  r.set("io.pread_us",
        ratio(d.io.pread_us, static_cast<double>(d.io.timed_preads)));
  r.set("io.meta_calls_per_op",
        ratio(static_cast<double>(d.io.meta_calls), ops));
  r.set("io.pwrite_bytes_per_user_byte",
        ratio(static_cast<double>(d.io.pwrite_bytes), user_bytes));
  r.set("io.sync_calls_per_op",
        ratio(static_cast<double>(d.io.sync_calls), ops));
  r.set("io.sync_us",
        ratio(d.io.sync_us, static_cast<double>(d.io.timed_syncs)));

  r.set("store.pipeline.read_us", d.pipe_read.mean());
  r.set("store.pipeline.process_us", d.pipe_process.mean());
  r.set("store.pipeline.write_us", d.pipe_write.mean());
  r.set("store.pipeline.stall_read_per_op",
        ratio(static_cast<double>(d.stall_read), ops));
  r.set("store.pipeline.stall_write_per_op",
        ratio(static_cast<double>(d.stall_write), ops));
  r.set("kernels.bytes_per_op",
        ratio(static_cast<double>(d.kernel_bytes), ops));
  r.set("core.degraded_read_us", d.degraded_read.mean());
}

void print_verbs(const NetStats& d) {
  if (d.calls == 0) return;
  std::printf("  %-16s %8s %12s %12s %12s %14s\n", "rpc verb", "calls",
              "call_us", "handler_us", "wire_us", "wire_bytes");
  for (std::size_t v = 0; v < NetStats::kVerbs; ++v) {
    const NetStats::Verb& s = d.verbs[v];
    if (s.calls == 0 && s.handled == 0) continue;
    const double call = ratio(s.call_us, static_cast<double>(s.calls));
    const double handler =
        ratio(s.handler_us, static_cast<double>(s.handled));
    std::printf("  %-16s %8" PRIu64 " %12.1f %12.1f %12.1f %14" PRIu64 "\n",
                net::msg_type_name(static_cast<net::MsgType>(v)), s.calls,
                call, handler, call - handler, s.bytes);
  }
}

// One traced operation: its trace id and the interval its service took.
struct OpSpan {
  std::uint64_t trace_id = 0;
  double start_us = 0, end_us = 0;
  double latency_us = 0;  // what the user saw (reads: from intended send)
};

// Share of the summed op latency that no measured layer covers.  Loadgen
// lag and queue wait belong to the generator; inside each op's service
// interval the union of its net calls and I/O calls (matched by trace id)
// is attributed, and so is the codec time the program's core.* spans
// recorded over the phase (their histograms, which unlike the span
// buffers never drop).  What is left is store/serving engine self time
// plus anything unmeasured.
double unattributed_frac(const std::vector<OpSpan>& ops,
                         const std::vector<Interval>& intervals,
                         double codec_us) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      by_trace;
  for (const Interval& iv : intervals) {
    by_trace[iv.trace_id].emplace_back(iv.start_us, iv.end_us);
  }
  double uncovered = 0, total = 0;
  for (const OpSpan& op : ops) {
    total += op.latency_us;
    double covered = 0;
    auto it = by_trace.find(op.trace_id);
    if (it != by_trace.end()) {
      std::vector<std::pair<double, double>>& v = it->second;
      std::sort(v.begin(), v.end());
      double cur_s = 0, cur_e = -1;
      for (auto [s, e] : v) {
        s = std::max(s, op.start_us);
        e = std::min(e, op.end_us);
        if (e <= s) continue;
        if (s > cur_e) {
          if (cur_e > cur_s) covered += cur_e - cur_s;
          cur_s = s;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_s) covered += cur_e - cur_s;
    }
    uncovered += std::max(0.0, op.end_us - op.start_us - covered);
  }
  return ratio(std::max(0.0, uncovered - codec_us), total);
}

class Runner {
 public:
  Runner(const Spec& spec, const RunArgs& args)
      : spec_(spec), args_(args), lost_(lost_data_node()) {
    fs::create_directories(args.workdir);
    input_path_ = args.workdir / "input.bin";
    output_path_ = args.workdir / "output.bin";
    input_.resize(spec.file_bytes);
    approx::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
    approx::fill_random(input_.data(), input_.size(), rng);
  }

  RunResult run() {
    std::printf("workload %s  seed %" PRIu64 "  seconds %.0f  trace %d\n",
                spec_.name, args_.seed, args_.seconds, args_.trace ? 1 : 0);
    std::printf(
        "  %s, %.0f MiB file, RS(4,1,2,4) Even, cache off, %u client "
        "threads, lost node %d\n  flush policy: the store's own fsyncs "
        "(chunk files, manifest, directories), unchanged\n",
        spec_.tcp ? "TCP cluster (coordinator + 4 daemons)" : "local store",
        static_cast<double>(spec_.file_bytes) / kMiB, client_threads(),
        lost_);
    if (args_.trace) {
      run_traced();
    } else {
      run_untraced();
    }
    result_.correct = result_.failed == 0;
    return std::move(result_);
  }

 private:
  // --- shared pieces ---------------------------------------------------------

  void setup(int reps) {
    std::vector<double> setup_s;
    for (int r = 0; r < reps; ++r) {
      target_.reset();
      fs::remove_all(args_.workdir / "target");
      const double t0 = now_s();
      write_synced(input_path_, input_);
      target_ = make_target(spec_, args_.workdir / "target",
                            args_.trace ? &sink_ : nullptr);
      if (spec_.put_in_setup) put();
      setup_s.push_back(now_s() - t0);
    }
    result_.report.set("setup_s", median(setup_s));
  }

  void put() {
    const double t0 = now_s();
    bool ok = true;
    try {
      target_->put(input_path_);
    } catch (const std::exception& e) {
      std::printf("  put failed: %s\n", e.what());
      ok = false;
    }
    put_s_.push_back(now_s() - t0);
    tally_.op(ok);
    if (!ok) throw std::runtime_error("put failed");
    stored_ = static_cast<double>(target_->chunk_bytes()) /
              static_cast<double>(spec_.file_bytes);
  }

  void scrub(const char* when) {
    const double t0 = now_s();
    const bool clean = target_->scrub_clean();
    scrub_s_.push_back(now_s() - t0);
    tally_.op(clean);
    if (!clean) std::printf("  CHECK FAILED: scrub %s not clean\n", when);
  }

  void repair() {
    const double t0 = now_s();
    const store::RepairOutcome out = target_->repair();
    repair_s_.push_back(now_s() - t0);
    const bool ok = out.attempted && out.fully_recovered;
    tally_.op(ok);
    if (!ok) std::printf("  CHECK FAILED: repair not fully recovered\n");
  }

  void get() {
    const double t0 = now_s();
    const bool crc_ok = target_->get(output_path_);
    get_s_.push_back(now_s() - t0);
    const bool ok = crc_ok && file_equals(output_path_, input_);
    fs::remove(output_path_);
    tally_.op(ok);
    if (!ok) std::printf("  CHECK FAILED: get differs from the input\n");
  }

  ReadOp read_op(std::vector<OpSpan>* spans) {
    return [this, spans](std::size_t i, const ReadReq& req,
                         std::vector<std::uint8_t>& buf) {
      buf.resize(req.len);
      store::VolumeStore::DecodeOptions o;
      o.allow_degraded = true;
      o.quarantine = false;  // keep the lost node lost for every read
      auto read = [&] {
        target_->volume().read(req.offset, {buf.data(), req.len}, o);
      };
      if (spans == nullptr) {
        read();
      } else {
        static obs::Histogram& h = obs::registry().histogram(
            "span.bench.read.us");
        obs::ObsSpan root("bench.read", h);
        OpSpan& s = (*spans)[i];
        s.trace_id = root.trace_id();
        s.start_us = obs::now_us();
        read();
        s.end_us = obs::now_us();
      }
      const bool ok =
          std::memcmp(buf.data(), input_.data() + req.offset, req.len) == 0;
      if (!ok) wrong_reads_.fetch_add(1, std::memory_order_relaxed);
      return ok;
    };
  }

  Schedule schedule(std::uint64_t salt, std::size_t count) const {
    return make_schedule(args_.seed * 1000003 + salt, spec_.file_bytes,
                         kReadBytes, kZipfTheta, count);
  }

  // Open-loop reads; returns the latency summary and tallies each read.
  Summary open_loop(const Schedule& s, std::vector<OpSpan>* spans,
                    OpenLoopResult* out) {
    OpenLoopResult r =
        run_open_loop(s.reqs, spec_.qps, client_threads(), read_op(spans));
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
      tally_.op(r.ok[i] != 0, r.latency_us[i] <= kDeadlineUs);
      if (spans != nullptr) (*spans)[i].latency_us = r.latency_us[i];
    }
    const Summary sum = summarize(r.latency_us);
    std::printf(
        "  open loop %zu reads @ %.0f qps (schedule crc32 %08x): p50 %.2f ms "
        "(%zu beyond)  p75 %.2f ms (%zu beyond)  p90 %.2f ms (%zu beyond)  "
        "p99 %.2f ms (%zu beyond)  p999 %.2f ms (%zu beyond)  max %.2f ms\n",
        sum.n, spec_.qps, s.crc, sum.p50 / 1e3, sum.beyond_p50, sum.p75 / 1e3,
        sum.beyond_p75, sum.p90 / 1e3, sum.beyond_p90, sum.p99 / 1e3,
        sum.beyond_p99, sum.p999 / 1e3, sum.beyond_p999, sum.max / 1e3);
    const Summary lag = summarize(r.lag_us);
    std::printf("  dispatch lag p50 %.1f us  p99 %.1f us  max %.1f us\n",
                lag.p50, lag.p99, lag.max);
    if (out != nullptr) *out = std::move(r);
    return sum;
  }

  void check_reads() {
    const std::uint64_t wrong = wrong_reads_.exchange(0);
    if (wrong > 0) {
      std::printf("  CHECK FAILED: %" PRIu64 " reads returned wrong bytes\n",
                  wrong);
    }
  }

  // --- untraced run: the end-to-end metrics ---------------------------------

  // The read phases, as spec_.windows rounds of an open-loop window then
  // a closed-loop window, so slow drift of the host hits both alike.  Each
  // figure is the median over the windows: a burst of host noise spoils
  // one window, not the run.  The pooled percentiles are printed too.
  void read_windows() {
    Report& r = result_.report;
    const double seconds = args_.seconds / spec_.windows;
    const std::size_t n = static_cast<std::size_t>(
        std::max(10.0, spec_.qps * seconds * spec_.open_share));
    std::vector<double> latency_us, p50, p75, qps;
    std::uint64_t pread_bytes = 0, requested = 0;
    const NetStats net0 = target_->net_stats();
    obs::Counter& retries = obs::registry().counter("net.rpc.retries");
    const std::uint64_t retries0 = retries.value();
    for (int w = 0; w < spec_.windows; ++w) {
      const Schedule s = schedule(static_cast<std::uint64_t>(w), n);
      const IoStats io0 = target_->io_stats();
      OpenLoopResult res;
      const Summary sum = open_loop(s, nullptr, &res);
      p50.push_back(sum.p50 / 1e3);
      p75.push_back(sum.p75 / 1e3);
      pread_bytes += (target_->io_stats() - io0).pread_bytes;
      requested += static_cast<std::uint64_t>(n) * kReadBytes;
      latency_us.insert(latency_us.end(), res.latency_us.begin(),
                        res.latency_us.end());

      const Schedule cs = schedule(100 + static_cast<std::uint64_t>(w),
                                   kClosedSchedule);
      const ClosedLoopResult cl =
          run_closed_loop(cs.reqs, seconds * spec_.closed_share,
                          client_threads(), read_op(nullptr));
      tally_.ops(cl.completed, cl.failed);
      qps.push_back(static_cast<double>(cl.completed) / cl.seconds);
      std::printf("  closed loop %u clients: %" PRIu64
                  " reads in %.2f s = %.1f reads/s, %" PRIu64 " failed\n",
                  client_threads(), cl.completed, cl.seconds, qps.back(),
                  cl.failed);
    }
    check_reads();
    const NetStats net = target_->net_stats() - net0;
    if (net.calls > 0) {
      std::printf("  transport during reads: %" PRIu64 " calls, %" PRIu64
                  " failed (%" PRIu64 " timeouts), %" PRIu64 " rpc retries\n",
                  net.calls, net.failures, net.timeouts,
                  retries.value() - retries0);
    }
    const Summary all = summarize(latency_us);
    std::printf("  all open-loop reads: %zu, p50 %.2f ms (%zu beyond)  p90 "
                "%.2f ms (%zu beyond)  p99 %.2f ms (%zu beyond)  p999 %.2f ms "
                "(%zu beyond)\n",
                all.n, all.p50 / 1e3, all.beyond_p50, all.p90 / 1e3,
                all.beyond_p90, all.p99 / 1e3, all.beyond_p99,
                all.p999 / 1e3, all.beyond_p999);
    r.set("read_p50_ms", median(p50));
    r.set("read_p75_ms", median(p75));
    r.set("read_capacity_qps", median(qps));
    r.set("read_amp", static_cast<double>(pread_bytes) /
                          static_cast<double>(requested));
  }

  void run_untraced() {
    setup(kSetupReps);
    Report& r = result_.report;
    for (int c = 0; c < spec_.cycles; ++c) {
      if (!spec_.put_in_setup) put();
      // Scrubs are short, so they get twice the samples.
      for (int i = 0; i < 2 * spec_.reps; ++i) scrub("before damage");
      bool lost = false;
      if (spec_.lose_before_reads) {
        target_->lose_node(lost_);
        lost = true;
      }
      if (c == 0) read_windows();
      for (int i = 0; i < spec_.reps; ++i) {
        if (!lost) target_->lose_node(lost_);
        lost = false;
        repair();
      }
      scrub("after repair");
      for (int i = 0; i < spec_.reps; ++i) get();
    }
    const double mib = static_cast<double>(spec_.file_bytes) / kMiB;
    r.set("put_mibps", mib / median(put_s_));
    r.set("scrub_mibps", mib / median(scrub_s_));
    r.set("repair_mibps", mib / median(repair_s_));
    r.set("get_mibps", mib / median(get_s_));
    r.set("stored_bytes_per_user_byte", stored_);
    r.set("ok_frac", ratio(static_cast<double>(tally_.ok),
                           static_cast<double>(tally_.attempted)));
    result_.attempted = tally_.attempted;
    result_.failed = tally_.failed;

    std::printf("  %-28s %14s  %s\n", "end-to-end metric", "value", "unit");
    for (const MetricDef& d : end_to_end_metrics()) {
      std::printf("  %-28s %14.4f  %s\n", d.name, r.get(d.name), d.unit);
    }
  }

  // --- traced run: the per-layer metrics --------------------------------------

  // An untraced and then a traced open-loop read phase of `n` reads each;
  // keeps the traced phase's probe delta and op spans for the per-layer
  // metrics.
  void traced_reads(std::size_t n) {
    Report& r = result_.report;
    // Untraced baseline for trace.overhead_frac, then the same count of
    // traced reads with a fresh schedule.
    const Summary base = open_loop(schedule(0, n), nullptr, nullptr);

    std::vector<OpSpan> spans(n);
    const Schedule s = schedule(2, n);
    const Probe p0 = take_probe(*target_);
    sink_.set_on(true);
    obs::SpanLog::set_enabled(true);
    OpenLoopResult res;
    const Summary traced = open_loop(s, &spans, &res);
    obs::SpanLog::set_enabled(false);
    sink_.set_on(false);
    const Probe d = take_probe(*target_) - p0;
    check_reads();

    r.set("trace.overhead_frac", traced.p50 / base.p50 - 1);
    r.set("loadgen.lag_p99_us", summarize(res.lag_us).p99);
    r.set("loadgen.queue_wait_us", summarize(res.queue_wait_us).mean);
    read_layers_ = d;
    read_spans_ = std::move(spans);
    read_service_us_ = summarize(res.service_us).mean;
    read_ops_ = static_cast<double>(n);
  }

  void run_traced() {
    setup(1);
    Report& r = result_.report;
    // Few enough traced reads that the program's bounded span buffers keep
    // most of them for the Chrome trace.
    const std::size_t n = static_cast<std::size_t>(
        std::max(20.0, spec_.qps * args_.seconds / 15));
    std::vector<OpSpan> phase_spans;
    Probe ingest;
    double get_us = 0;

    if (spec_.put_in_setup) {
      if (spec_.lose_before_reads) target_->lose_node(lost_);
      traced_reads(n);
    } else {
      // One traced cycle, one root span per phase, then the degraded
      // reads (which give the loadgen and overhead figures).
      auto phase = [&](const char* name, auto&& body) {
        static obs::Histogram& h =
            obs::registry().histogram("span.bench.phase.us");
        OpSpan s;
        {
          obs::ObsSpan root(name, h);
          s.trace_id = root.trace_id();
          s.start_us = obs::now_us();
          body();
          s.end_us = obs::now_us();
        }
        s.latency_us = s.end_us - s.start_us;
        phase_spans.push_back(s);
        return s.latency_us;
      };
      const Probe p0 = take_probe(*target_);
      sink_.set_on(true);
      obs::SpanLog::set_enabled(true);
      phase("bench.put", [&] { put(); });
      phase("bench.scrub", [&] { scrub("before damage"); });
      target_->lose_node(lost_);
      phase("bench.repair", [&] { repair(); });
      phase("bench.scrub", [&] { scrub("after repair"); });
      get_us = phase("bench.get", [&] { get(); });
      obs::SpanLog::set_enabled(false);
      sink_.set_on(false);
      ingest = take_probe(*target_) - p0;
      target_->lose_node(lost_);
      traced_reads(n);
    }

    const std::vector<Interval> intervals = sink_.take();
    if (spec_.put_in_setup) {
      report_layers(r, read_layers_, read_ops_, read_ops_ * kReadBytes);
      r.set("store.read_service_us", read_service_us_);
      r.set("layers.unattributed_frac",
            unattributed_frac(read_spans_, intervals, read_layers_.codec.sum));
      print_verbs(read_layers_.net);
    } else {
      const double mib = static_cast<double>(spec_.file_bytes) / kMiB;
      report_layers(r, ingest, mib, static_cast<double>(spec_.file_bytes));
      r.set("store.read_service_us", get_us / mib);
      r.set("layers.unattributed_frac",
            unattributed_frac(phase_spans, intervals, ingest.codec.sum));
      print_verbs(ingest.net);
    }

    const bool codec_ok = measure_codec_layers(r, 0.25, lost_);
    tally_.op(codec_ok);
    if (!codec_ok) std::printf("  CHECK FAILED: direct codec calls\n");
    if (!read_spans_.empty()) {
      // The store CRC-checks every block it preads and has no span of its
      // own; this estimate shows how much of the remainder CRC may be.
      double latency = 0;
      for (const OpSpan& op : read_spans_) latency += op.latency_us;
      latency /= static_cast<double>(read_spans_.size());
      const double crc_us = r.get("io.pread_bytes_per_user_byte") *
                            kReadBytes / (r.get("crc32.mibps") * kMiB) * 1e6;
      std::printf("  mean traced read latency %.1f us; CRC over its preads at "
                  "crc32.mibps would take ~%.1f us (%.1f%%)\n",
                  latency, crc_us, 100 * crc_us / latency);
    }

    if (!args_.trace_out.empty()) {
      std::ofstream out(args_.trace_out, std::ios::trunc);
      out << obs::SpanLog::to_chrome_json();
      std::printf("  chrome trace: %s (%zu events, %" PRIu64 " dropped)\n",
                  args_.trace_out.string().c_str(),
                  obs::SpanLog::snapshot().size(), obs::SpanLog::dropped());
    }
    result_.attempted = tally_.attempted;
    result_.failed = tally_.failed;

    std::printf("  %-36s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const MetricDef& d : per_layer_metrics()) {
      std::printf("  %-36s %14.4f  %s\n", d.name, r.get(d.name), d.unit);
    }
  }

  const Spec& spec_;
  const RunArgs& args_;
  const int lost_;
  fs::path input_path_, output_path_;
  std::vector<std::uint8_t> input_;
  TraceSink sink_;
  std::unique_ptr<Target> target_;
  Tally tally_;
  std::atomic<std::uint64_t> wrong_reads_{0};
  std::vector<double> put_s_, scrub_s_, repair_s_, get_s_;
  double stored_ = 0;
  Probe read_layers_;
  std::vector<OpSpan> read_spans_;
  double read_service_us_ = 0, read_ops_ = 0;
  RunResult result_;
};

}  // namespace

RunResult run_workload(const RunArgs& args) {
  for (const Spec& spec : kSpecs) {
    if (args.workload == spec.name) return Runner(spec, args).run();
  }
  throw std::invalid_argument("unknown workload: " + args.workload);
}

}  // namespace perfbench
