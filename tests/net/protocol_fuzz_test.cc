// Robustness of the byte-protocol trust boundary: truncated,
// bit-flipped, and random-garbage request buffers must come back as
// clean errors (Corruption / InvalidArgument) or decode by luck into a
// harmless op — never crash, hang, or out-of-bounds read. Every fuzz
// input runs against a fresh volatile repository with no queues, so
// even a buffer that parses as a Dequeue returns NotFound immediately
// instead of blocking on a wait timeout decoded from garbage.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "queue/queue_repository.h"
#include "util/coding.h"
#include "util/random.h"

namespace rrq::net {
namespace {

// Dispatches one buffer against a one-shot volatile repository.
Status FuzzOne(const std::string& buffer) {
  queue::QueueRepository repo("fuzz", {});
  Status open = repo.Open();
  EXPECT_TRUE(open.ok()) << open.ToString();
  QueueServiceDispatcher dispatcher(&repo);
  std::string reply;
  return dispatcher.Handle(buffer, &reply);
}

bool IsAcceptableFuzzOutcome(const Status& s) {
  // OK means the buffer happened to parse as a well-formed request (the
  // app-level status rides inside the reply). Anything else must be a
  // clean decode rejection.
  return s.ok() || s.IsCorruption() || s.IsInvalidArgument();
}

// One well-formed request per op, the corpus truncation/flips start from.
std::vector<std::string> ValidRequests() {
  std::vector<std::string> corpus;
  {
    std::string r;
    r.push_back(1);  // Register
    util::PutLengthPrefixed(&r, "q");
    util::PutLengthPrefixed(&r, "clerk-1");
    r.push_back(1);
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(2);  // Deregister
    util::PutLengthPrefixed(&r, "q");
    util::PutLengthPrefixed(&r, "clerk-1");
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(3);  // Enqueue
    util::PutLengthPrefixed(&r, "q");
    util::PutLengthPrefixed(&r, "request body");
    util::PutVarint32(&r, 7);
    util::PutLengthPrefixed(&r, "clerk-1");
    util::PutLengthPrefixed(&r, "tag-1");
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(4);  // Dequeue (timeout 0: never waits even if q exists)
    util::PutLengthPrefixed(&r, "q");
    util::PutLengthPrefixed(&r, "clerk-1");
    util::PutLengthPrefixed(&r, "tag-2");
    util::PutFixed64(&r, 0);
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(5);  // Read
    util::PutLengthPrefixed(&r, "q");
    util::PutFixed64(&r, 42);
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(6);  // Kill
    util::PutLengthPrefixed(&r, "q");
    util::PutFixed64(&r, 42);
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(7);  // CreateQueue
    util::PutLengthPrefixed(&r, "q");
    EncodeQueueOptions({}, &r);
    corpus.push_back(r);
  }
  {
    std::string r;
    r.push_back(8);  // Depth
    util::PutLengthPrefixed(&r, "q");
    corpus.push_back(r);
  }
  return corpus;
}

TEST(ProtocolFuzzTest, ValidCorpusDispatches) {
  for (const std::string& request : ValidRequests()) {
    Status s = FuzzOne(request);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(ProtocolFuzzTest, EveryProperPrefixIsRejected) {
  for (const std::string& request : ValidRequests()) {
    for (size_t len = 0; len < request.size(); ++len) {
      Status s = FuzzOne(request.substr(0, len));
      EXPECT_TRUE(s.IsCorruption() || s.IsInvalidArgument())
          << "prefix of length " << len << " of op "
          << static_cast<int>(request[0]) << ": " << s.ToString();
    }
  }
}

TEST(ProtocolFuzzTest, SingleBitFlipsNeverCrash) {
  for (const std::string& request : ValidRequests()) {
    for (size_t byte = 0; byte < request.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = request;
        mutated[byte] ^= static_cast<char>(1u << bit);
        Status s = FuzzOne(mutated);
        EXPECT_TRUE(IsAcceptableFuzzOutcome(s))
            << "op " << static_cast<int>(request[0]) << " byte " << byte
            << " bit " << bit << ": " << s.ToString();
      }
    }
  }
}

TEST(ProtocolFuzzTest, RandomGarbageAlwaysTerminatesCleanly) {
  util::Rng rng(0xfeed);
  std::set<StatusCode> seen;
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    const size_t len = rng.Uniform(48);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    Status s = FuzzOne(garbage);
    ASSERT_TRUE(IsAcceptableFuzzOutcome(s))
        << "round " << round << ": " << s.ToString();
    seen.insert(s.code());
  }
  // The generator must actually exercise the rejection paths.
  EXPECT_TRUE(seen.count(StatusCode::kInvalidArgument) > 0 ||
              seen.count(StatusCode::kCorruption) > 0);
}

TEST(ProtocolFuzzTest, FrameReaderSurvivesRandomChunkedGarbage) {
  util::Rng rng(0xcafe);
  for (int round = 0; round < 200; ++round) {
    FrameReader reader;
    bool poisoned = false;
    for (int chunk = 0; chunk < 8; ++chunk) {
      std::string bytes;
      const size_t len = 1 + rng.Uniform(32);
      for (size_t i = 0; i < len; ++i) {
        bytes.push_back(static_cast<char>(rng.Uniform(256)));
      }
      reader.Feed(bytes);
      std::string payload;
      Status s = reader.Next(&payload);
      ASSERT_TRUE(s.ok() || s.IsNotFound() || s.IsCorruption())
          << s.ToString();
      if (s.IsCorruption()) poisoned = true;
      if (poisoned) {
        // Once poisoned, always poisoned.
        EXPECT_TRUE(reader.Next(&payload).IsCorruption());
      }
    }
  }
}

TEST(ProtocolFuzzTest, TruncatedRepliesAreRejectedByTheClientCodec) {
  // Client-side decoders face the same trust boundary: a reply cut
  // short mid-field must error, not read past the end.
  queue::Element element;
  element.eid = 9;
  element.contents = "hello";
  std::string encoded;
  EncodeElement(element, &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    Slice input(encoded.data(), len);
    queue::Element decoded;
    EXPECT_FALSE(DecodeElement(&input, &decoded).ok()) << "len " << len;
  }

  std::string options_encoded;
  EncodeQueueOptions({}, &options_encoded);
  for (size_t len = 0; len < options_encoded.size(); ++len) {
    Slice input(options_encoded.data(), len);
    queue::QueueOptions decoded;
    EXPECT_FALSE(DecodeQueueOptions(&input, &decoded).ok()) << "len " << len;
  }
}

// ---- Correlation-id fuzzing ------------------------------------------
//
// Both peers of the multiplexed protocol face a trust boundary at the
// correlation id: a corrupt, duplicate, or unknown id must never
// crash, hang, or cross-wire replies. Framing violations poison the
// one connection (and only it); an unknown-but-well-formed id is
// discarded per the demux rules.

int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendRaw(int fd, const std::string& bytes) {
  return send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

// Reads one frame off `fd`, feeding `reader` as needed. Returns false
// on EOF, socket error, or stream corruption.
bool ReadOneFrame(int fd, FrameReader* reader, std::string* frame) {
  while (true) {
    Status s = reader->Next(frame);
    if (s.ok()) return true;
    if (!s.IsNotFound()) return false;
    char buf[4096];
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    reader->Feed(Slice(buf, static_cast<size_t>(n)));
  }
}

// True when the peer closed the connection (recv returns 0 or reset).
bool WaitForClose(int fd) {
  char buf[256];
  for (int i = 0; i < 200; ++i) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET || errno == EPIPE;
  }
  return false;
}

std::string MakeCallFrame(uint64_t corr_id, const std::string& body) {
  std::string payload(1, static_cast<char>(kMsgCall));
  util::PutVarint64(&payload, corr_id);
  payload += body;
  std::string wire;
  AppendFrame(&wire, payload);
  return wire;
}

std::string MakeReplyFrame(uint64_t corr_id, const Status& s,
                           const std::string& body) {
  std::string payload(1, static_cast<char>(kMsgReply));
  util::PutVarint64(&payload, corr_id);
  EncodeStatus(s, &payload);
  payload += body;
  std::string wire;
  AppendFrame(&wire, payload);
  return wire;
}

TcpChannelOptions FuzzChannelTo(uint16_t port) {
  TcpChannelOptions options;
  options.port = port;
  options.max_connect_attempts = 5;
  options.backoff_initial_micros = 1'000;
  options.call_timeout_micros = 2'000'000;
  return options;
}

TEST(ProtocolFuzzTransportTest, ServerDropsCorruptAndUnknownCorrelationFrames) {
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  // A kMsgCall frame whose correlation varint never terminates.
  {
    const int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    std::string payload(1, static_cast<char>(kMsgCall));
    payload.append(10, static_cast<char>(0x80));
    std::string wire;
    AppendFrame(&wire, payload);
    ASSERT_TRUE(SendRaw(fd, wire));
    EXPECT_TRUE(WaitForClose(fd));
    close(fd);
  }
  // An unknown frame kind.
  {
    const int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    std::string payload(1, static_cast<char>(9));
    payload += "mystery";
    std::string wire;
    AppendFrame(&wire, payload);
    ASSERT_TRUE(SendRaw(fd, wire));
    EXPECT_TRUE(WaitForClose(fd));
    close(fd);
  }
  EXPECT_GE(server.protocol_errors(), 2u);

  // None of it hurt well-behaved clients.
  TcpChannelOptions options;
  options.port = server.port();
  TcpChannel channel(options);
  std::string reply;
  ASSERT_TRUE(channel.Call("fine", &reply).ok());
  EXPECT_EQ(reply, "fine");
}

TEST(ProtocolFuzzTransportTest, ServerClosesOnRetiredKinds) {
  // Kinds 1 (the id-less serialized call) and 3 (a version hello) are
  // retired: whether first on the connection or after a served call,
  // each closes the connection as a protocol error and never reaches
  // the handler.
  std::atomic<int> handled{0};
  TcpServer server(TcpServerOptions{}, [&handled](const Slice& request,
                                            std::string* reply) {
    handled.fetch_add(1);
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  std::string hello_body;
  util::PutVarint32(&hello_body, 2);
  const std::vector<std::pair<unsigned char, std::string>> retired = {
      {1, "legacy call"}, {3, hello_body}};
  int served_calls = 0;
  uint64_t errors = 0;
  for (const auto& [kind, body] : retired) {
    for (bool after_call : {false, true}) {
      SCOPED_TRACE("kind " + std::to_string(kind) +
                   (after_call ? " after a call" : " as first frame"));
      const int fd = ConnectTo(server.port());
      ASSERT_GE(fd, 0);
      if (after_call) {
        ASSERT_TRUE(SendRaw(fd, MakeCallFrame(1, "ok")));
        FrameReader reader;
        std::string frame;
        ASSERT_TRUE(ReadOneFrame(fd, &reader, &frame));
        ASSERT_EQ(static_cast<unsigned char>(frame[0]), kMsgReply);
        ++served_calls;
      }
      std::string payload(1, static_cast<char>(kind));
      payload += body;
      std::string wire;
      AppendFrame(&wire, payload);
      ASSERT_TRUE(SendRaw(fd, wire));
      EXPECT_TRUE(WaitForClose(fd));
      close(fd);
      EXPECT_EQ(server.protocol_errors(), ++errors);
      EXPECT_EQ(handled.load(), served_calls);
    }
  }
}

TEST(ProtocolFuzzTransportTest, ServerAnswersDuplicateCorrelationIdsIndependently) {
  // The server does not police id uniqueness — ids are client
  // bookkeeping. Two calls with the same id get two replies carrying
  // that id, and the connection stays healthy.
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign("r:" + request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  FrameReader reader;
  std::string frame;
  ASSERT_TRUE(SendRaw(fd, MakeCallFrame(7, "a")));
  ASSERT_TRUE(SendRaw(fd, MakeCallFrame(7, "b")));
  std::set<std::string> bodies;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ReadOneFrame(fd, &reader, &frame));
    Slice input(frame);
    ASSERT_FALSE(input.empty());
    ASSERT_EQ(static_cast<unsigned char>(input[0]), kMsgReply);
    input.remove_prefix(1);
    uint64_t id = 0;
    ASSERT_TRUE(util::GetVarint64(&input, &id).ok());
    EXPECT_EQ(id, 7u);
    ASSERT_TRUE(DecodeStatus(&input).ok());
    bodies.insert(input.ToString());
  }
  EXPECT_EQ(bodies, (std::set<std::string>{"r:a", "r:b"}));
  close(fd);
}

// A scripted peer for client-side reply fuzzing: answers each call
// with whatever raw bytes the script produces for that call's
// correlation id.
class ScriptedServer {
 public:
  using Script = std::function<std::string(uint64_t corr_id)>;

  explicit ScriptedServer(Script script) : script_(std::move(script)) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    listen(listen_fd_, 8);
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Run(); });
  }

  ~ScriptedServer() {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
    thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  void Run() {
    while (true) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      Serve(fd);
      close(fd);
    }
  }

  void Serve(int fd) {
    FrameReader reader;
    std::string frame;
    while (ReadOneFrame(fd, &reader, &frame)) {
      if (frame.empty()) return;
      if (static_cast<unsigned char>(frame[0]) != kMsgCall) return;
      Slice input(frame);
      input.remove_prefix(1);
      uint64_t id = 0;
      if (!util::GetVarint64(&input, &id).ok()) return;
      const std::string out = script_(id);
      if (!out.empty() && !SendRaw(fd, out)) return;
    }
  }

  Script script_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ProtocolFuzzTransportTest, ClientDiscardsUnknownCorrelationIdReplies) {
  ScriptedServer server([](uint64_t id) {
    // A ghost reply for an id that was never issued, then the real one.
    return MakeReplyFrame(id + 1'000'000, Status::OK(), "ghost") +
           MakeReplyFrame(id, Status::OK(), "real");
  });

  TcpChannel channel(FuzzChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());
  EXPECT_EQ(reply, "real");
  EXPECT_EQ(channel.late_replies(), 1u);
  EXPECT_EQ(channel.connects(), 1u);
}

TEST(ProtocolFuzzTransportTest, ClientIgnoresDuplicateReplies) {
  ScriptedServer server([](uint64_t id) {
    return MakeReplyFrame(id, Status::OK(), "first") +
           MakeReplyFrame(id, Status::OK(), "dup");
  });

  TcpChannel channel(FuzzChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());
  EXPECT_EQ(reply, "first");
  // The duplicate lands as an unknown id (the call is already gone)
  // and is dropped without poisoning the connection.
  for (int i = 0; i < 200 && channel.late_replies() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(channel.late_replies(), 1u);
  ASSERT_TRUE(channel.Call("y", &reply).ok());
  EXPECT_EQ(reply, "first");
  EXPECT_EQ(channel.connects(), 1u);
}

TEST(ProtocolFuzzTransportTest, ClientPoisonsConnectionOnCorruptCorrelationVarint) {
  ScriptedServer server([](uint64_t /*id*/) {
    std::string payload(1, static_cast<char>(kMsgReply));
    payload.append(10, static_cast<char>(0x80));  // Varint never ends.
    std::string wire;
    AppendFrame(&wire, payload);
    return wire;
  });

  TcpChannel channel(FuzzChannelTo(server.port()));
  std::string reply;
  Status s = channel.Call("x", &reply);
  EXPECT_FALSE(s.ok());
  // The channel recovers by reconnecting — and fails the same way
  // again, proving the failure is per-connection, not a wedged state.
  s = channel.Call("y", &reply);
  EXPECT_FALSE(s.ok());
  EXPECT_GE(channel.connects(), 2u);
}

TEST(ProtocolFuzzTransportTest, ClientPoisonsConnectionOnWrongReplyKind) {
  ScriptedServer server([](uint64_t id) {
    // A call frame where a reply should be: framing violation.
    return MakeCallFrame(id, "confused peer");
  });

  TcpChannel channel(FuzzChannelTo(server.port()));
  std::string reply;
  Status s = channel.Call("x", &reply);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace rrq::net
