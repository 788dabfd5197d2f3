#ifndef RRQ_QUEUE_QUEUE_API_H_
#define RRQ_QUEUE_QUEUE_API_H_

#include <functional>
#include <string>

#include "queue/element.h"
#include "queue/queue_repository.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace rrq::queue {

/// The non-transactional slice of the queue-manager interface that a
/// *client* (clerk) uses — every operation auto-commits at the
/// repository (§2: the client accesses queues outside of a
/// transaction). Implemented locally (LocalQueueApi) and over the
/// simulated network (comm::RemoteQueueApi), so the same clerk code
/// runs against a co-located or a remote queue manager.
class QueueApi {
 public:
  virtual ~QueueApi() = default;

  virtual Result<RegistrationInfo> Register(const std::string& queue,
                                            const std::string& registrant,
                                            bool stable) = 0;
  virtual Status Deregister(const std::string& queue,
                            const std::string& registrant) = 0;

  /// When `one_way` is true the enqueue is fire-and-forget (§5): no
  /// acknowledgement is awaited, the returned eid is kInvalidElementId,
  /// and a lost message surfaces later as a Receive timeout.
  virtual Result<ElementId> Enqueue(const std::string& queue,
                                    const Slice& contents, uint32_t priority,
                                    const std::string& registrant,
                                    const Slice& tag, bool one_way) = 0;

  virtual Result<Element> Dequeue(const std::string& queue,
                                  const std::string& registrant,
                                  const Slice& tag,
                                  uint64_t timeout_micros) = 0;

  virtual Result<Element> Read(const std::string& queue, ElementId eid) = 0;

  virtual Result<bool> KillElement(const std::string& queue,
                                   ElementId eid) = 0;

  // ---- Pipelined variants -------------------------------------------
  // Default implementations degrade to the synchronous op and invoke
  // `done` inline, so every api is pipelinable in interface; transports
  // with a multiplexed wire (net::ChannelQueueApi over a TcpChannel)
  // override them with true in-flight concurrency. Callbacks may run on
  // an internal transport thread and must not block.

  virtual void EnqueueAsync(const std::string& queue, const Slice& contents,
                            uint32_t priority, const std::string& registrant,
                            const Slice& tag, bool one_way,
                            std::function<void(Result<ElementId>)> done) {
    done(Enqueue(queue, contents, priority, registrant, tag, one_way));
  }

  virtual void DequeueAsync(const std::string& queue,
                            const std::string& registrant, const Slice& tag,
                            uint64_t timeout_micros,
                            std::function<void(Result<Element>)> done) {
    done(Dequeue(queue, registrant, tag, timeout_micros));
  }
};

/// QueueApi over a co-located repository.
class LocalQueueApi final : public QueueApi {
 public:
  /// Does not take ownership; `repo` must outlive this.
  explicit LocalQueueApi(QueueRepository* repo) : repo_(repo) {}

  Result<RegistrationInfo> Register(const std::string& queue,
                                    const std::string& registrant,
                                    bool stable) override {
    return repo_->Register(queue, registrant, stable);
  }
  Status Deregister(const std::string& queue,
                    const std::string& registrant) override {
    return repo_->Deregister(queue, registrant);
  }
  Result<ElementId> Enqueue(const std::string& queue, const Slice& contents,
                            uint32_t priority, const std::string& registrant,
                            const Slice& tag, bool /*one_way*/) override {
    return repo_->Enqueue(nullptr, queue, contents, priority, registrant, tag);
  }
  Result<Element> Dequeue(const std::string& queue,
                          const std::string& registrant, const Slice& tag,
                          uint64_t timeout_micros) override {
    return repo_->Dequeue(nullptr, queue, registrant, tag, timeout_micros);
  }
  Result<Element> Read(const std::string& queue, ElementId eid) override {
    return repo_->Read(queue, eid);
  }
  Result<bool> KillElement(const std::string& queue, ElementId eid) override {
    return repo_->KillElement(nullptr, queue, eid);
  }

 private:
  QueueRepository* repo_;
};

}  // namespace rrq::queue

#endif  // RRQ_QUEUE_QUEUE_API_H_
