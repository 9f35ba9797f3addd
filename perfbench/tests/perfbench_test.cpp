// Unit tests of the benchmark's own parts: the pass-through decorators,
// the seeded schedule, the percentile summary and the metric names.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "decorators.h"
#include "loadgen.h"
#include "metrics.h"
#include "net/loopback.h"
#include "net/rpc.h"

namespace fs = std::filesystem;
namespace net = approx::net;
namespace store = approx::store;
using namespace perfbench;

namespace {

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("perfbench_test_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return v;
}

}  // namespace

TEST(CountingIoBackend, PassesBytesAndStatusThrough) {
  TempDir dir;
  store::PosixIoBackend posix;
  for (TraceSink* sink : {static_cast<TraceSink*>(nullptr), new TraceSink}) {
    std::unique_ptr<TraceSink> owned(sink);
    if (sink != nullptr) sink->set_on(true);
    CountingIoBackend io(posix, sink);
    const fs::path f = dir.path() / "f.bin";
    const std::vector<std::uint8_t> data = pattern(10000, 3);

    std::unique_ptr<store::IoFile> w;
    ASSERT_TRUE(io.open(f, store::IoBackend::OpenMode::kTruncate, w).ok());
    ASSERT_TRUE(w->pwrite(0, data).ok());
    ASSERT_TRUE(w->sync().ok());
    w.reset();

    std::unique_ptr<store::IoFile> r;
    ASSERT_TRUE(io.open(f, store::IoBackend::OpenMode::kRead, r).ok());
    std::vector<std::uint8_t> got(4000);
    ASSERT_TRUE(r->pread(5000, got).ok());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 5000));
    // Past EOF: the inner backend's kShortRead comes back unchanged.
    std::vector<std::uint8_t> tail(2000);
    EXPECT_EQ(r->pread(9000, tail).code, store::IoCode::kShortRead);

    std::uint64_t size = 0;
    ASSERT_TRUE(io.file_size(f, size).ok());
    EXPECT_EQ(size, data.size());
    EXPECT_TRUE(io.exists(f));
    std::unique_ptr<store::IoFile> missing;
    EXPECT_EQ(io.open(dir.path() / "nope", store::IoBackend::OpenMode::kRead,
                      missing)
                  .code,
              store::IoCode::kNotFound);
    ASSERT_TRUE(io.remove(f).ok());

    const IoStats s = io.stats();
    EXPECT_EQ(s.pread_calls, 2u);
    EXPECT_EQ(s.pread_bytes, 6000u);
    EXPECT_EQ(s.pwrite_bytes, data.size());
    EXPECT_EQ(s.sync_calls, 1u);
    EXPECT_EQ(s.meta_calls, 6u);  // 3 opens, file_size, exists, remove
    EXPECT_EQ(s.timed_preads, sink != nullptr ? 2u : 0u);
  }
}

TEST(CountingIoBackend, PassesInjectedFaultsThrough) {
  TempDir dir;
  store::PosixIoBackend posix;
  store::FaultInjectingBackend faulty(posix);
  CountingIoBackend io(faulty, nullptr);
  const fs::path f = dir.path() / "g.bin";
  std::unique_ptr<store::IoFile> w;
  ASSERT_TRUE(io.open(f, store::IoBackend::OpenMode::kTruncate, w).ok());
  ASSERT_TRUE(w->pwrite(0, pattern(100, 1)).ok());
  faulty.inject({store::FaultInjectingBackend::Op::kRead, "g.bin",
                 store::IoCode::kIoError, 1, 0});
  std::vector<std::uint8_t> buf(10);
  EXPECT_EQ(w->pread(0, buf).code, store::IoCode::kIoError);
  EXPECT_TRUE(w->pread(0, buf).ok());
  faulty.inject({store::FaultInjectingBackend::Op::kRename, "g.bin",
                 store::IoCode::kNoSpace, 1, 0});
  EXPECT_EQ(io.rename(f, dir.path() / "h.bin").code, store::IoCode::kNoSpace);
}

TEST(CountingTransport, PassesFramesAndStatusThrough) {
  net::LoopbackTransport loop;
  for (bool traced : {false, true}) {
    TraceSink sink;
    sink.set_on(traced);
    CountingTransport t(loop, &sink);
    const net::Endpoint ep = traced ? "srv_traced" : "srv";
    ASSERT_TRUE(t.serve(ep,
                        [](const net::Frame& req, net::Frame& resp) {
                          resp.status = 7;
                          resp.payload.assign(req.payload.rbegin(),
                                              req.payload.rend());
                        },
                        nullptr)
                    .ok());
    net::Frame req;
    req.type = static_cast<std::uint16_t>(net::MsgType::kFileRead);
    req.request_id = 42;
    req.trace_id = traced ? 9 : 0;
    req.payload = pattern(300, 5);
    net::Frame via, direct;
    ASSERT_TRUE(t.call(ep, req, via, std::chrono::seconds(1)).ok());
    ASSERT_TRUE(loop.call(ep, req, direct, std::chrono::seconds(1)).ok());
    EXPECT_EQ(via.status, 7u);
    EXPECT_EQ(via.status, direct.status);
    EXPECT_EQ(via.payload, direct.payload);
    EXPECT_EQ(via.request_id, direct.request_id);

    net::Frame none;
    EXPECT_EQ(t.call("nowhere", req, none, std::chrono::seconds(1)).code,
              loop.call("nowhere", req, none, std::chrono::seconds(1)).code);

    const NetStats s = t.stats();
    EXPECT_EQ(s.calls, 2u);
    EXPECT_EQ(s.handled, 2u);  // the direct call also reached the wrapper
    EXPECT_EQ(s.failures, 1u);
    EXPECT_EQ(s.timed_calls, traced ? 2u : 0u);
    EXPECT_EQ(sink.take().size(), traced ? 4u : 0u);  // 2 calls, 2 handlers
    t.stop(ep);
  }
}

TEST(Schedule, SameSeedReplaysDifferentSeedDiffers) {
  const Schedule a = make_schedule(11, 32u << 20, 65536, 0.99, 500);
  const Schedule b = make_schedule(11, 32u << 20, 65536, 0.99, 500);
  const Schedule c = make_schedule(12, 32u << 20, 65536, 0.99, 500);
  EXPECT_EQ(a.crc, b.crc);
  EXPECT_NE(a.crc, c.crc);
  ASSERT_EQ(a.reqs.size(), 500u);
  for (std::size_t i = 0; i < a.reqs.size(); ++i) {
    EXPECT_EQ(a.reqs[i].offset, b.reqs[i].offset);
    EXPECT_EQ(a.reqs[i].offset % 65536, 0u);
    EXPECT_LE(a.reqs[i].offset + a.reqs[i].len, 32u << 20);
  }
}

TEST(Summary, PercentilesCarryTheirSampleCounts) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.beyond_p50, 500u);
  EXPECT_EQ(s.p75, 750);
  EXPECT_EQ(s.beyond_p75, 250u);
  EXPECT_EQ(s.p90, 900);
  EXPECT_EQ(s.beyond_p90, 100u);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.beyond_p99, 10u);
  EXPECT_EQ(s.p999, 999);
  EXPECT_EQ(s.beyond_p999, 1u);
  EXPECT_EQ(s.max, 1000);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);

  // Ties: nothing lies strictly beyond a constant sample.
  const Summary t = summarize(std::vector<double>(50, 3.0));
  EXPECT_EQ(t.p99, 3.0);
  EXPECT_EQ(t.beyond_p99, 0u);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(Names, AreValidAndMatchBenchmarkJson) {
  std::set<std::string> code_names;
  for (const std::string& w : workload_names()) {
    EXPECT_TRUE(valid_name(w)) << w;
    code_names.insert(w);
  }
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_name(d.name)) << d.name;
      EXPECT_TRUE(std::regex_match(d.name, std::regex("[A-Za-z0-9_.-]+")));
      code_names.insert(d.name);
    }
  }
  EXPECT_FALSE(valid_name("bad name"));
  EXPECT_FALSE(valid_name(".hidden"));

  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << "cannot open " << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::set<std::string> json_names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    json_names.insert((*it)[1]);
  }
  EXPECT_EQ(json_names, code_names);
}
