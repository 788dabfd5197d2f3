// E20: shared-channel clerk pool — K clerks' Transceive pairs over ONE
// pipelined socket, against the same in-process rrqd-equivalent
// service as E18. Four client models, worst to best:
//
//   serialized       one channel per clerk thread, sync Transceive, one
//                    call in flight per socket (the PR 3 shape rebuilt
//                    from clerks) — "before";
//   pool_sync        K clerk threads, sync Transceive, ONE shared
//                    channel (ClerkPool, demux by correlation id);
//   pool_pipelined   K closed-loop TransceiveAsync chains on the pool,
//                    each clerk's next pair launched from the demux
//                    callback — no client threads, the wire kept full;
//   pool_overlapped  as pipelined, but each clerk's reply dequeue is
//                    corked into the same send as its enqueue (window
//                    2): one round trip per pair instead of two. The
//                    dequeue then long-polls server-side, which routes
//                    it to the server's elastic blocking threads — on
//                    loopback that thread churn can cost more than the
//                    saved round trip, so this point is informative,
//                    not always the winner.
//
// Every clerk is in self-loop mode (its request queue IS its reply
// queue), so a Transceive is a self-contained enqueue→dequeue pair and
// the numbers isolate pool + wire cost, like E18's pairs. A raw
// ChannelQueueApi chain run (E18's "pipelined 1x8") is re-measured in
// the same process for an apples-to-apples overhead comparison: the
// pool adds the full clerk protocol (rid tags, reply-tag encoding,
// session state) on top of the raw queue ops.
//
// Best of three trials per point (one under --smoke).
// Emits BENCH_clerk_pool.json (full runs only).
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "client/clerk_pool.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/queue_repository.h"

namespace {

using namespace rrq;  // NOLINT
using bench::Fmt;

// Scaled down by --smoke (CI just proves the harness runs end to end).
int pairs_per_clerk = 2000;
int trials = 3;

// Historical baseline: E18's serialized wire-v1 throughput @ 8
// threads as of the PR 3 tree (BENCH_net.json history). The pool @ 8
// was accepted for sustaining at least 2x it.
constexpr double kPr3SerializedAt8 = 64474.0;

void Die(const char* what, const Status& status) {
  fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

client::ClerkPoolOptions PoolOptions(uint16_t port, int clerks,
                                     const std::string& prefix,
                                     uint64_t receive_timeout_micros) {
  client::ClerkPoolOptions options;
  options.channel.port = port;
  options.clerks = clerks;
  options.client_prefix = prefix;
  options.self_loop = true;
  // Timeout 0 keeps loopback dequeues off the server's elastic
  // blocking threads (see E18); overlapped mode must long-poll.
  options.receive_timeout_micros = receive_timeout_micros;
  return options;
}

// K clerk threads, each with its OWN channel and one sync Transceive
// (Send RPC + Receive RPC) in flight — the PR 3 model.
double MeasureSerializedClerks(uint16_t port, int clerks) {
  std::vector<std::thread> workers;
  bench::Stopwatch watch;
  for (int t = 0; t < clerks; ++t) {
    workers.emplace_back([port, t]() {
      net::TcpChannelOptions options;
      options.port = port;
      net::TcpChannel channel(options);
      net::ChannelQueueApi api(&channel);
      const std::string queue = "pool.serial." + std::to_string(t);
      auto created = api.CreateQueue(queue);
      if (!created.ok() && !created.IsAlreadyExists()) {
        Die("create queue", created);
      }
      client::ClerkOptions clerk_options;
      clerk_options.client_id = "serialclerk-" + std::to_string(t);
      clerk_options.request_queue = queue;
      clerk_options.reply_queue = queue;
      clerk_options.api = &api;
      clerk_options.receive_timeout_micros = 0;
      client::Clerk clerk(clerk_options);
      if (auto cr = clerk.Connect(); !cr.ok()) Die("connect", cr.status());
      for (int i = 0; i < pairs_per_clerk; ++i) {
        const std::string rid =
            clerk_options.client_id + "#" + std::to_string(i + 1);
        auto reply = clerk.Transceive("payload-0123456789", rid, Slice());
        if (!reply.ok()) Die("transceive", reply.status());
      }
      if (Status s = clerk.Disconnect(); !s.ok()) Die("disconnect", s);
    });
  }
  for (auto& w : workers) w.join();
  return 2.0 * pairs_per_clerk * clerks / watch.ElapsedSeconds();
}

// K clerk threads, sync Transceive, one shared multiplexed channel.
double MeasurePoolSync(uint16_t port, int clerks) {
  client::ClerkPool pool(PoolOptions(port, clerks, "psync", 0));
  if (Status s = pool.Start(); !s.ok()) Die("pool start", s);
  std::vector<std::thread> workers;
  bench::Stopwatch watch;
  for (int t = 0; t < clerks; ++t) {
    workers.emplace_back([&pool, t]() {
      client::Clerk* clerk = pool.clerk(static_cast<size_t>(t));
      for (int i = 0; i < pairs_per_clerk; ++i) {
        const std::string rid = pool.client_id(static_cast<size_t>(t)) + "#" +
                                std::to_string(i + 1);
        auto reply = clerk->Transceive("payload-0123456789", rid, Slice());
        if (!reply.ok()) Die("transceive", reply.status());
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = watch.ElapsedSeconds();
  if (Status s = pool.Stop(); !s.ok()) Die("pool stop", s);
  return 2.0 * pairs_per_clerk * clerks / elapsed;
}

// K closed-loop TransceiveAsync chains on one pool: every clerk keeps
// a pair in flight, completions launch the next pair from the demux
// thread. With `overlap` each pair's dequeue is corked into the same
// send as its enqueue.
double MeasurePoolPipelined(uint16_t port, int clerks, bool overlap) {
  client::ClerkPool pool(PoolOptions(port, clerks,
                                     overlap ? "pover" : "ppipe",
                                     overlap ? 2'000'000 : 0));
  if (Status s = pool.Start(); !s.ok()) Die("pool start", s);

  std::mutex mu;
  std::condition_variable cv;
  int outstanding = clerks;
  std::atomic<bool> failed{false};

  struct Chain {
    client::ClerkPool* pool;
    size_t slot;
    int remaining;
    bool overlap;
    std::mutex* mu;
    std::condition_variable* cv;
    int* outstanding;
    std::atomic<bool>* failed;

    void Launch() {
      const std::string rid = pool->client_id(slot) + "#" +
                              std::to_string(remaining);
      pool->TransceiveAsync(
          slot, "payload-0123456789", rid, Slice(), overlap,
          [this](Result<std::string> reply) {
            if (!reply.ok()) {
              failed->store(true);
            } else if (--remaining > 0) {
              Launch();
              return;
            }
            std::lock_guard<std::mutex> lock(*mu);
            if (--*outstanding == 0) cv->notify_one();
          });
    }
  };

  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(static_cast<size_t>(clerks));
  for (int t = 0; t < clerks; ++t) {
    auto chain = std::make_unique<Chain>();
    chain->pool = &pool;
    chain->slot = static_cast<size_t>(t);
    chain->remaining = pairs_per_clerk;
    chain->overlap = overlap;
    chain->mu = &mu;
    chain->cv = &cv;
    chain->outstanding = &outstanding;
    chain->failed = &failed;
    chains.push_back(std::move(chain));
  }

  bench::Stopwatch watch;
  for (auto& chain : chains) chain->Launch();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  const double elapsed = watch.ElapsedSeconds();
  if (failed.load()) {
    fprintf(stderr, "pool chain failed\n");
    std::exit(1);
  }
  if (Status s = pool.Stop(); !s.ok()) Die("pool stop", s);
  return 2.0 * pairs_per_clerk * clerks / elapsed;
}

// E18's raw pipelined chains (no clerk protocol), re-measured in this
// process so the pool-overhead ratio compares like with like.
double MeasureRawPipelined(uint16_t port, int inflight) {
  net::TcpChannelOptions options;
  options.port = port;
  net::TcpChannel channel(options);
  net::ChannelQueueApi api(&channel);

  std::atomic<int> outstanding{inflight};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> failed{false};

  struct Chain {
    net::ChannelQueueApi* api;
    std::string queue;
    std::string clerk;
    int remaining;
    std::atomic<int>* outstanding;
    std::mutex* mu;
    std::condition_variable* cv;
    std::atomic<bool>* failed;

    void Finish() {
      if (outstanding->fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(*mu);
        cv->notify_all();
      }
    }

    void StartPair() {
      api->EnqueueAsync(
          queue, "payload-0123456789", 0, clerk,
          "tag" + std::to_string(remaining), /*one_way=*/false,
          [this](Result<queue::ElementId> eid) {
            if (!eid.ok()) {
              failed->store(true);
              Finish();
              return;
            }
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

  std::vector<std::unique_ptr<Chain>> chains;
  for (int k = 0; k < inflight; ++k) {
    auto chain = std::make_unique<Chain>();
    chain->api = &api;
    chain->queue = "pool.raw." + std::to_string(k);
    chain->clerk = "rawclerk-" + std::to_string(k);
    chain->remaining = pairs_per_clerk;
    chain->outstanding = &outstanding;
    chain->mu = &mu;
    chain->cv = &cv;
    chain->failed = &failed;
    auto created = api.CreateQueue(chain->queue);
    if (!created.ok() && !created.IsAlreadyExists()) Die("create", created);
    auto reg = api.Register(chain->queue, chain->clerk, /*stable=*/true);
    if (!reg.ok()) Die("register", reg.status());
    chains.push_back(std::move(chain));
  }

  bench::Stopwatch watch;
  for (auto& chain : chains) chain->StartPair();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding.load() == 0; });
  }
  const double elapsed = watch.ElapsedSeconds();
  if (failed.load()) {
    fprintf(stderr, "raw chain failed\n");
    std::exit(1);
  }
  return 2.0 * pairs_per_clerk * inflight / elapsed;
}

template <typename Fn>
double BestOf(Fn measure) {
  double best = 0;
  for (int i = 0; i < trials; ++i) best = std::max(best, measure());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    pairs_per_clerk = 100;
    trials = 1;
  }

  printf("E20: shared-channel clerk pool — K clerks' transceive pairs on\n"
         "one pipelined socket vs one socket each%s\n\n",
         smoke ? " [smoke]" : "");

  queue::QueueRepository repo("qm", {});
  if (!repo.Open().ok()) return 1;

  net::QueueServiceDispatcher dispatcher(&repo);
  net::TcpServerOptions server_options;
  server_options.workers = 2;
  net::TcpServer server(server_options,
                        [&dispatcher](const Slice& request,
                                      std::string* reply) {
                          return dispatcher.Handle(request, reply);
                        });
  server.set_blocking_hint(net::QueueRequestMayBlock);
  if (!server.Start().ok()) return 1;
  const uint16_t port = server.port();

  bench::Table table({"mode", "clerks", "sockets", "ops/s", "vs pr3 v1@8"});
  auto vs_baseline = [](double ops) {
    return Fmt(ops / kPr3SerializedAt8, 2) + "x";
  };

  std::string serialized_json, sync_json, pipelined_json, overlapped_json;
  auto add_point = [](std::string* json, int clerks, double ops) {
    if (!json->empty()) *json += ",\n";
    *json += "    {\"clerks\": " + std::to_string(clerks) +
             ", \"ops_per_sec\": " + Fmt(ops, 0) + "}";
  };

  for (int clerks : {1, 4, 8}) {
    const double ops = BestOf([&] {
      return MeasureSerializedClerks(port, clerks);
    });
    table.AddRow({"serialized", std::to_string(clerks),
                  std::to_string(clerks), Fmt(ops, 0), vs_baseline(ops)});
    add_point(&serialized_json, clerks, ops);
  }

  for (int clerks : {1, 4, 8}) {
    const double ops = BestOf([&] { return MeasurePoolSync(port, clerks); });
    table.AddRow({"pool_sync", std::to_string(clerks), "1", Fmt(ops, 0),
                  vs_baseline(ops)});
    add_point(&sync_json, clerks, ops);
  }

  double pool_pipelined_at_8 = 0;
  for (int clerks : {1, 4, 8, 16}) {
    const double ops = BestOf([&] {
      return MeasurePoolPipelined(port, clerks, /*overlap=*/false);
    });
    if (clerks == 8) pool_pipelined_at_8 = ops;
    table.AddRow({"pool_pipelined", std::to_string(clerks), "1", Fmt(ops, 0),
                  vs_baseline(ops)});
    add_point(&pipelined_json, clerks, ops);
  }

  double pool_overlapped_at_8 = 0;
  for (int clerks : {4, 8}) {
    const double ops = BestOf([&] {
      return MeasurePoolPipelined(port, clerks, /*overlap=*/true);
    });
    if (clerks == 8) pool_overlapped_at_8 = ops;
    table.AddRow({"pool_overlapped", std::to_string(clerks), "1", Fmt(ops, 0),
                  vs_baseline(ops)});
    add_point(&overlapped_json, clerks, ops);
  }

  const double raw_at_8 =
      BestOf([&] { return MeasureRawPipelined(port, 8); });
  table.AddRow({"raw_pipelined (E18)", "8", "1", Fmt(raw_at_8, 0),
                vs_baseline(raw_at_8)});

  table.Print();
  printf("\npool_pipelined @ 8 vs PR 3 serialized @ 8 (%.0f): %.2fx\n",
         kPr3SerializedAt8, pool_pipelined_at_8 / kPr3SerializedAt8);
  printf("pool_pipelined @ 8 vs raw pipelined 1x8 (same run): %.2f%%\n",
         100.0 * pool_pipelined_at_8 / raw_at_8);

  if (!smoke) {
    std::string json =
        "{\n  \"experiment\": \"clerk_pool\",\n"
        "  \"pr3_serialized_8_baseline\": " + Fmt(kPr3SerializedAt8, 0) +
        ",\n  \"serialized\": [\n" + serialized_json + "\n  ],\n" +
        "  \"pool_sync\": [\n" + sync_json + "\n  ],\n" +
        "  \"pool_pipelined\": [\n" + pipelined_json + "\n  ],\n" +
        "  \"pool_overlapped\": [\n" + overlapped_json + "\n  ],\n" +
        "  \"raw_pipelined_1x8_ops_per_sec\": " + Fmt(raw_at_8, 0) +
        ",\n  \"pool_pipelined_8_ops_per_sec\": " +
        Fmt(pool_pipelined_at_8, 0) +
        ",\n  \"pool_overlapped_8_ops_per_sec\": " +
        Fmt(pool_overlapped_at_8, 0) +
        ",\n  \"pool_pipelined_8_vs_pr3_serialized_8\": " +
        Fmt(pool_pipelined_at_8 / kPr3SerializedAt8, 2) +
        ",\n  \"pool_pipelined_8_vs_raw_pipelined_1x8\": " +
        Fmt(pool_pipelined_at_8 / raw_at_8, 3) + "\n}\n";
    bench::WriteBenchJson("clerk_pool", json);
  }
  server.Stop();
  return 0;
}
