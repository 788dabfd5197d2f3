// Quickstart: the smallest complete use of the library.
//
// Builds a durable RequestSystem (queue manager + transaction manager
// on an in-memory environment), starts one server, and runs a few
// requests through a ReliableClient — then crashes the back end and
// shows that everything picks up where it left off.
//
//   ./quickstart
#include <cstdio>

#include "core/request_system.h"

using rrq::Result;
using rrq::Status;

int main() {
  // 1. Assemble the system of Fig 4: request queue, reply queues,
  //    recoverable queue manager, transaction manager.
  rrq::core::RequestSystem system;
  Status s = system.Open();
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 2. A server: {dequeue request; execute; enqueue reply} — one
  //    transaction per request (Fig 5).
  auto server = system.MakeServer(
      [](rrq::txn::Transaction*, const rrq::queue::RequestEnvelope& request)
          -> Result<std::string> {
        return "HELLO, " + request.body + "!";
      });
  if (!server->Start().ok()) return 1;

  // 3. A client. Its replies are delivered at least once; the lambda
  //    is the "reply processor".
  auto client = system.MakeClient(
      "quickstart-client",
      [](const rrq::queue::ReplyEnvelope& reply, bool maybe_duplicate) {
        printf("  reply%s: %s\n", maybe_duplicate ? " (redelivered)" : "",
               reply.body.c_str());
        return Status::OK();
      });
  if (!client.ok()) {
    fprintf(stderr, "client failed: %s\n", client.status().ToString().c_str());
    return 1;
  }

  printf("Submitting three requests...\n");
  for (const char* name : {"ALICE", "BOB", "CAROL"}) {
    auto reply = (*client)->Execute(name);
    if (!reply.ok()) {
      fprintf(stderr, "execute failed: %s\n",
              reply.status().ToString().c_str());
      return 1;
    }
  }

  // 4. Crash the whole back end — queue manager, transaction manager —
  //    losing everything that was not synced to the (simulated) disk.
  printf("Crashing and recovering the back end...\n");
  server->Stop();
  server.reset();
  s = system.CrashAndRecover();
  if (!s.ok()) {
    fprintf(stderr, "recovery failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 5. Same client object keeps working against the recovered node.
  server = system.MakeServer(
      [](rrq::txn::Transaction*, const rrq::queue::RequestEnvelope& request)
          -> Result<std::string> {
        return "WELCOME BACK, " + request.body + "!";
      });
  if (!server->Start().ok()) return 1;
  auto reply = (*client)->Execute("DAVE");
  if (!reply.ok()) {
    fprintf(stderr, "post-recovery execute failed: %s\n",
            reply.status().ToString().c_str());
    return 1;
  }
  server->Stop();
  printf("Done. %llu requests completed, %llu redeliveries.\n",
         static_cast<unsigned long long>((*client)->completed()),
         static_cast<unsigned long long>((*client)->redeliveries()));
  return 0;
}
