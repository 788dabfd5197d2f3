#ifndef RRQ_NET_IO_BACKEND_H_
#define RRQ_NET_IO_BACKEND_H_

// Names the transport's one event loop (DESIGN.md §13) for perfbench's
// facts line, the only reader of these names. The transport never
// branches on them; a perfbench-only change deletes this header.

#include <string>

namespace rrq::net {

enum class IoBackendKind { kAuto };

inline IoBackendKind ResolveIoBackend(IoBackendKind kind, std::string* note) {
  if (note != nullptr) note->clear();
  return kind;
}

inline const char* IoBackendName(IoBackendKind) { return "epoll"; }

}  // namespace rrq::net

#endif  // RRQ_NET_IO_BACKEND_H_
