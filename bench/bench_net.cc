// E22 (supersedes E18): TCP transport — RPC latency, queue-op
// throughput, and loop-syscall cost over a real socket, comparing
// three client models against the same server (DESIGN.md §13):
//
//   serialized      one channel per clerk thread, one call in flight
//                   per connection (a depth-1 channel, the shape of
//                   the PR 3 protocol) — the "before" baseline;
//   shared_channel  every clerk thread issues synchronous calls on ONE
//                   multiplexed channel (demuxed by correlation id);
//   pipelined       K asynchronous call chains in flight per channel ×
//                   M channels (including a 1×32 deep pipeline), the
//                   wire kept full instead of idling a round trip per
//                   op.
//
// An rrqd-equivalent service (TcpServer + QueueServiceDispatcher over
// a volatile repository) runs in-process and is reached over loopback
// TCP, so the numbers isolate the transport: framing, CRC, syscalls,
// scheduling — no fsync in the loop. Latency is measured as round
// trips on one channel (p50/p99/p99.9); throughput as Enqueue+Dequeue
// pairs, each clerk on a private queue (the paper's client model).
// Every throughput point also reports the combined client+server
// loop-syscall deltas (IoLoopStats) per pair.
//
// Each throughput point takes the best of three trials to damp loopback
// scheduler noise (one trial under --smoke).
//
// Emits BENCH_net.json (full runs only; --smoke skips the write).
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "comm/network.h"
#include "comm/queue_service.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/queue_repository.h"

namespace {

using namespace rrq;  // NOLINT
using bench::Fmt;

// Scaled down by --smoke (CI just proves the harness runs end to end).
int latency_rounds = 2000;
int pairs_per_clerk = 2000;
int trials = 3;

struct LatencyStats {
  double mean_micros = 0;
  double p50_micros = 0;
  double p99_micros = 0;
  double p999_micros = 0;
};

LatencyStats Percentiles(std::vector<uint64_t> samples) {
  LatencyStats stats;
  if (samples.empty()) return stats;
  double sum = 0;
  for (uint64_t s : samples) sum += static_cast<double>(s);
  stats.mean_micros = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  stats.p50_micros = static_cast<double>(samples[samples.size() / 2]);
  stats.p99_micros = static_cast<double>(samples[samples.size() * 99 / 100]);
  stats.p999_micros =
      static_cast<double>(samples[samples.size() * 999 / 1000]);
  return stats;
}

// Adapts any QueueApi into the Depth-shaped probe MeasureLatency
// expects: one Read of a missing element is a pure RPC round trip
// (one request frame, one status-only reply, no queue mutation), and
// it exists on both the simulated and the TCP transport.
template <typename Api>
struct ReadProbe {
  Api* inner;
  Result<size_t> Depth(const std::string& queue) {
    auto r = inner->Read(queue, 1);
    if (r.ok() || r.status().IsNotFound()) return size_t{0};
    return r.status();
  }
};

// One Depth() round trip per sample through `api`.
template <typename Api>
LatencyStats MeasureLatency(Api* api, const std::string& queue) {
  std::vector<uint64_t> samples;
  samples.reserve(static_cast<size_t>(latency_rounds));
  for (int i = 0; i < latency_rounds; ++i) {
    bench::Stopwatch watch;
    auto depth = api->Depth(queue);
    if (!depth.ok()) {
      fprintf(stderr, "depth: %s\n", depth.status().ToString().c_str());
      std::exit(1);
    }
    samples.push_back(watch.ElapsedMicros());
  }
  return Percentiles(std::move(samples));
}

void Die(const char* what, const Status& status) {
  fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

// One throughput point: ops/s plus the combined client+server
// loop-syscall deltas for the measured run (per-pair figures are
// derived at report time).
struct Tput {
  double ops_per_sec = 0;
  uint64_t pairs = 0;
  uint64_t waits = 0;        // blocking event waits, both sides
  uint64_t io_syscalls = 0;  // IoLoopStats::io_syscalls(), both sides
};

// Synchronous Enqueue+Dequeue pairs from `threads` clerks. With
// `shared_channel` every clerk calls through one multiplexed channel;
// otherwise each clerk owns a channel with one call in flight (the
// serialized PR 3 model).
Tput MeasureSyncThroughput(net::TcpServer* server, int threads,
                           bool shared_channel) {
  net::TcpChannelOptions options;
  options.port = server->port();
  std::unique_ptr<net::TcpChannel> shared;
  std::unique_ptr<net::ChannelQueueApi> shared_api;
  if (shared_channel) {
    shared = std::make_unique<net::TcpChannel>(options);
    shared_api = std::make_unique<net::ChannelQueueApi>(shared.get());
  }
  const net::IoLoopStats server_before = server->io_stats();
  std::atomic<uint64_t> client_waits{0};
  std::atomic<uint64_t> client_syscalls{0};
  std::vector<std::thread> workers;
  bench::Stopwatch watch;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, options, &shared_api, &client_waits,
                          &client_syscalls]() {
      std::unique_ptr<net::TcpChannel> own;
      std::unique_ptr<net::ChannelQueueApi> own_api;
      net::ChannelQueueApi* api = shared_api.get();
      if (api == nullptr) {
        own = std::make_unique<net::TcpChannel>(options);
        own_api = std::make_unique<net::ChannelQueueApi>(own.get());
        api = own_api.get();
      }
      const std::string queue = "bench.t" + std::to_string(t);
      const std::string clerk = "clerk-" + std::to_string(t);
      auto reg = api->Register(queue, clerk, /*stable=*/true);
      if (!reg.ok()) Die("register", reg.status());
      for (int i = 0; i < pairs_per_clerk; ++i) {
        auto eid = api->Enqueue(queue, "payload-0123456789", 0, clerk,
                                "tag" + std::to_string(i), /*one_way=*/false);
        if (!eid.ok()) Die("enqueue", eid.status());
        // Timeout 0: the element is already committed, and a nonzero
        // wait would route every dequeue to the server's elastic
        // blocking threads (a thread spawn per op) — this measures the
        // transport, not long-poll parking.
        auto element = api->Dequeue(queue, clerk, "tag" + std::to_string(i),
                                    /*timeout_micros=*/0);
        if (!element.ok()) Die("dequeue", element.status());
      }
      if (own) {
        const net::IoLoopStats s = own->io_stats();
        client_waits.fetch_add(s.waits);
        client_syscalls.fetch_add(s.io_syscalls());
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = watch.ElapsedSeconds();

  Tput out;
  out.pairs = static_cast<uint64_t>(pairs_per_clerk) * threads;
  out.ops_per_sec = 2.0 * static_cast<double>(out.pairs) / elapsed;
  const net::IoLoopStats server_after = server->io_stats();
  out.waits = server_after.waits - server_before.waits +
              client_waits.load();
  out.io_syscalls = server_after.io_syscalls() - server_before.io_syscalls() +
                    client_syscalls.load();
  if (shared) {
    const net::IoLoopStats s = shared->io_stats();
    out.waits += s.waits;
    out.io_syscalls += s.io_syscalls();
  }
  return out;
}

// One asynchronous Enqueue→Dequeue call chain. Each completion starts
// the next call from the channel's demux thread, so the chain keeps
// exactly one op in flight without a dedicated client thread; K chains
// on a channel keep K ops in flight on one socket.
struct Chain {
  net::ChannelQueueApi* api = nullptr;
  std::string queue;
  std::string clerk;
  int remaining = 0;
  std::atomic<int>* outstanding = nullptr;
  std::mutex* mu = nullptr;
  std::condition_variable* cv = nullptr;
  std::atomic<bool>* failed = nullptr;

  void Finish() {
    if (outstanding->fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(*mu);
      cv->notify_all();
    }
  }

  void StartPair() {
    api->EnqueueAsync(
        queue, "payload-0123456789", 0, clerk, "tag" + std::to_string(remaining),
        /*one_way=*/false, [this](Result<queue::ElementId> eid) {
          if (!eid.ok()) {
            failed->store(true);
            Finish();
            return;
          }
          // Timeout 0 for the same reason as the sync path: the
          // enqueue's reply already confirmed the commit.
          api->DequeueAsync(queue, clerk, "tag" + std::to_string(remaining),
                            /*timeout_micros=*/0,
                            [this](Result<queue::Element> element) {
                              if (!element.ok()) failed->store(true);
                              if (element.ok() && --remaining > 0) {
                                StartPair();
                              } else {
                                Finish();
                              }
                            });
        });
  }
};

// K in-flight chains per channel × M channels. Chain setup (queue
// creation, registration) happens before the clock starts.
Tput MeasurePipelinedThroughput(net::TcpServer* server, int channels,
                                int inflight_per_channel) {
  net::TcpChannelOptions options;
  options.port = server->port();
  std::vector<std::unique_ptr<net::TcpChannel>> chans;
  std::vector<std::unique_ptr<net::ChannelQueueApi>> apis;
  for (int m = 0; m < channels; ++m) {
    chans.push_back(std::make_unique<net::TcpChannel>(options));
    apis.push_back(std::make_unique<net::ChannelQueueApi>(chans.back().get()));
  }

  const int total = channels * inflight_per_channel;
  std::atomic<int> outstanding{total};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> failed{false};
  std::vector<std::unique_ptr<Chain>> chains;
  for (int m = 0; m < channels; ++m) {
    for (int k = 0; k < inflight_per_channel; ++k) {
      auto chain = std::make_unique<Chain>();
      chain->api = apis[static_cast<size_t>(m)].get();
      chain->queue =
          "bench.p" + std::to_string(m) + "." + std::to_string(k);
      chain->clerk = "pipeclerk-" + chain->queue;
      chain->remaining = pairs_per_clerk;
      chain->outstanding = &outstanding;
      chain->mu = &mu;
      chain->cv = &cv;
      chain->failed = &failed;
      auto created = chain->api->CreateQueue(chain->queue);
      if (!created.ok() && !created.IsAlreadyExists()) {
        Die("create queue", created);
      }
      auto reg = chain->api->Register(chain->queue, chain->clerk,
                                      /*stable=*/true);
      if (!reg.ok()) Die("register", reg.status());
      chains.push_back(std::move(chain));
    }
  }

  const net::IoLoopStats server_before = server->io_stats();
  std::vector<net::IoLoopStats> chan_before;
  for (auto& c : chans) chan_before.push_back(c->io_stats());

  bench::Stopwatch watch;
  for (auto& chain : chains) chain->StartPair();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding.load() == 0; });
  }
  const double elapsed = watch.ElapsedSeconds();
  if (failed.load()) {
    fprintf(stderr, "pipelined chain failed\n");
    std::exit(1);
  }

  Tput out;
  out.pairs = static_cast<uint64_t>(pairs_per_clerk) * total;
  out.ops_per_sec = 2.0 * static_cast<double>(out.pairs) / elapsed;
  const net::IoLoopStats server_after = server->io_stats();
  out.waits = server_after.waits - server_before.waits;
  out.io_syscalls = server_after.io_syscalls() - server_before.io_syscalls();
  for (size_t i = 0; i < chans.size(); ++i) {
    const net::IoLoopStats s = chans[i]->io_stats();
    out.waits += s.waits - chan_before[i].waits;
    out.io_syscalls += s.io_syscalls() - chan_before[i].io_syscalls();
  }
  return out;
}

template <typename Fn>
Tput BestOf(Fn measure) {
  Tput best;
  for (int i = 0; i < trials; ++i) {
    Tput t = measure();
    if (t.ops_per_sec > best.ops_per_sec) best = t;
  }
  return best;
}

double PerPair(uint64_t count, uint64_t pairs) {
  return pairs == 0 ? 0.0 : static_cast<double>(count) /
                                static_cast<double>(pairs);
}

struct PipelinePoint {
  int channels;
  int inflight;
};

struct Results {
  LatencyStats depth_latency;
  LatencyStats read_latency;
  std::vector<std::pair<int, Tput>> serialized;       // threads -> point
  std::vector<std::pair<int, Tput>> shared;           // threads -> point
  std::vector<std::pair<PipelinePoint, Tput>> pipelined;
};

Results RunTcp() {
  Results results;
  queue::QueueRepository repo("qm", {});
  if (!repo.Open().ok()) Die("repo open", Status::Internal("open failed"));
  for (int t = 0; t < 8; ++t) {
    Status created = repo.CreateQueue("bench.t" + std::to_string(t));
    if (!created.ok()) Die("create queue", created);
  }
  Status probe_created = repo.CreateQueue("probe");
  if (!probe_created.ok()) Die("create probe queue", probe_created);

  net::QueueServiceDispatcher dispatcher(&repo);
  net::TcpServerOptions server_options;
  server_options.workers = 2;
  net::TcpServer server(server_options,
                        [&dispatcher](const Slice& request,
                                      std::string* reply) {
                          return dispatcher.Handle(request, reply);
                        });
  server.set_blocking_hint(net::QueueRequestMayBlock);
  Status started = server.Start();
  if (!started.ok()) Die("server start", started);

  // ---- Latency ----
  net::TcpChannelOptions channel_options;
  channel_options.port = server.port();
  {
    net::TcpChannel channel(channel_options);
    net::ChannelQueueApi tcp_api(&channel);
    results.depth_latency = MeasureLatency(&tcp_api, "probe");
    ReadProbe<net::ChannelQueueApi> tcp_probe{&tcp_api};
    results.read_latency = MeasureLatency(&tcp_probe, "probe");
  }

  // ---- Throughput ----
  for (int threads : {1, 2, 4, 8}) {
    results.serialized.emplace_back(threads, BestOf([&] {
      return MeasureSyncThroughput(&server, threads, false);
    }));
  }
  for (int threads : {1, 2, 4, 8}) {
    results.shared.emplace_back(threads, BestOf([&] {
      return MeasureSyncThroughput(&server, threads, true);
    }));
  }
  for (const auto& point : std::vector<PipelinePoint>{
           {1, 1}, {1, 2}, {1, 4}, {1, 8}, {1, 32}, {2, 4}, {2, 8}, {4, 8}}) {
    results.pipelined.emplace_back(point, BestOf([&] {
      return MeasurePipelinedThroughput(&server, point.channels,
                                        point.inflight);
    }));
  }

  server.Stop();
  return results;
}

std::string KernelRelease() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return u.release;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    latency_rounds = 200;
    pairs_per_clerk = 100;
    trials = 1;
  }

  printf("E22: TCP transport latency, throughput, and loop syscalls\n"
         "(volatile repository, loopback TCP, kernel %s)%s\n\n",
         KernelRelease().c_str(), smoke ? " [smoke]" : "");

  const Results r = RunTcp();

  // Baseline: the same dispatcher shape behind the simulated Network.
  LatencyStats sim_read_latency;
  {
    queue::QueueRepository repo("qm", {});
    if (!repo.Open().ok()) return 1;
    Status created = repo.CreateQueue("probe");
    if (!created.ok()) return 1;
    comm::Network network(17);
    comm::QueueService sim_service(&network, "qm", &repo);
    comm::RemoteQueueApi sim_api(&network, "clerk-0", "qm");
    ReadProbe<comm::RemoteQueueApi> sim_probe{&sim_api};
    sim_read_latency = MeasureLatency(&sim_probe, "probe");
  }

  // ---- Report ----
  bench::Table latency_table({"probe", "transport", "mean us", "p50 us",
                              "p99 us", "p99.9 us"});
  auto add_latency = [&latency_table](const char* probe, const char* transport,
                                      const LatencyStats& s) {
    latency_table.AddRow({probe, transport, Fmt(s.mean_micros),
                          Fmt(s.p50_micros), Fmt(s.p99_micros),
                          Fmt(s.p999_micros)});
  };
  add_latency("Depth", "tcp", r.depth_latency);
  add_latency("Read", "tcp", r.read_latency);
  add_latency("Read", "sim", sim_read_latency);
  latency_table.Print();
  printf("\n");

  bench::Table tput_table({"mode", "channels", "in flight", "ops/s",
                           "waits/pair", "iosys/pair"});
  auto add_tput = [&tput_table](const char* mode, int channels, int inflight,
                                const Tput& t) {
    tput_table.AddRow({mode, std::to_string(channels),
                       std::to_string(inflight), Fmt(t.ops_per_sec, 0),
                       Fmt(PerPair(t.waits, t.pairs), 2),
                       Fmt(PerPair(t.io_syscalls, t.pairs), 2)});
  };
  for (const auto& [threads, t] : r.serialized) {
    add_tput("serialized", threads, threads, t);
  }
  for (const auto& [threads, t] : r.shared) {
    add_tput("shared channel", 1, threads, t);
  }
  for (const auto& [point, t] : r.pipelined) {
    add_tput("pipelined", point.channels, point.channels * point.inflight, t);
  }
  tput_table.Print();

  if (!smoke) {
    auto latency_json = [](const LatencyStats& s) {
      return "{\"mean_us\": " + Fmt(s.mean_micros) +
             ", \"p50_us\": " + Fmt(s.p50_micros) +
             ", \"p99_us\": " + Fmt(s.p99_micros) +
             ", \"p999_us\": " + Fmt(s.p999_micros) + "}";
    };
    auto tput_json = [](const Tput& t) {
      return std::string("\"ops_per_sec\": ") + Fmt(t.ops_per_sec, 0) +
             ", \"waits_per_pair\": " + Fmt(PerPair(t.waits, t.pairs), 3) +
             ", \"io_syscalls_per_pair\": " +
             Fmt(PerPair(t.io_syscalls, t.pairs), 3);
    };

    std::string json = "{\n  \"experiment\": \"net\",\n";
    json += "  \"kernel\": \"" + KernelRelease() + "\",\n";
    json += "  \"sim_read_latency\": " + latency_json(sim_read_latency) +
            ",\n";
    json += "  \"tcp_depth_latency\": " + latency_json(r.depth_latency) +
            ",\n";
    json += "  \"tcp_read_latency\": " + latency_json(r.read_latency) + ",\n";
    json += "  \"serialized\": [\n";
    for (size_t i = 0; i < r.serialized.size(); ++i) {
      const auto& [threads, t] = r.serialized[i];
      json += "    {\"threads\": " + std::to_string(threads) + ", " +
              tput_json(t) + "}" +
              (i + 1 < r.serialized.size() ? ",\n" : "\n");
    }
    json += "  ],\n  \"shared_channel\": [\n";
    for (size_t i = 0; i < r.shared.size(); ++i) {
      const auto& [threads, t] = r.shared[i];
      json += "    {\"threads\": " + std::to_string(threads) + ", " +
              tput_json(t) + "}" + (i + 1 < r.shared.size() ? ",\n" : "\n");
    }
    json += "  ],\n  \"pipelined\": [\n";
    for (size_t i = 0; i < r.pipelined.size(); ++i) {
      const auto& [point, t] = r.pipelined[i];
      json += "    {\"channels\": " + std::to_string(point.channels) +
              ", \"inflight_per_channel\": " +
              std::to_string(point.inflight) + ", \"total_inflight\": " +
              std::to_string(point.channels * point.inflight) + ", " +
              tput_json(t) + "}" +
              (i + 1 < r.pipelined.size() ? ",\n" : "\n");
    }
    json += "  ]\n}\n";
    bench::WriteBenchJson("net", json);
  }
  return 0;
}
