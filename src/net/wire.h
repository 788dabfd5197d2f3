#ifndef RRQ_NET_WIRE_H_
#define RRQ_NET_WIRE_H_

namespace rrq::net {

// RPC conventions on top of the frame layer ([fixed32 length][fixed32
// masked CRC][payload]). There is one payload layout and no version
// negotiation: many calls share a connection, replies arrive in any
// order and are matched to their calls by correlation id.
//
//   request  [kMsgCall  ][varint id][body] -> one reply, eventually
//   reply    [kMsgReply ][varint id][EncodeStatus][reply bytes]
//   one-way  [kMsgOneWay][body]            -> no reply
//
// Kinds 1 (the id-less serialized call) and 3 (a version hello) are
// retired: a server closes any connection that sends them, like any
// other unknown kind. Their values stay reserved so an old peer fails
// loudly instead of being misread.

constexpr unsigned char kMsgOneWay = 2;
constexpr unsigned char kMsgCall = 4;   // carries a correlation id
constexpr unsigned char kMsgReply = 5;  // echoes the call's correlation id

}  // namespace rrq::net

#endif  // RRQ_NET_WIRE_H_
