// Synthetic packet representation used by the traffic generator and the
// measurement pipeline. Packets are full 64-byte frames (the paper's traffic
// size) so NFs pay realistic parse costs.
#ifndef ENETSTL_PKTGEN_PACKET_H_
#define ENETSTL_PKTGEN_PACKET_H_

#include <vector>

#include "ebpf/program.h"
#include "ebpf/types.h"

namespace pktgen {

using ebpf::FiveTuple;
using ebpf::u16;
using ebpf::u32;
using ebpf::u64;
using ebpf::u8;

struct Packet {
  alignas(8) u8 frame[ebpf::kFrameSize];

  static Packet FromTuple(const FiveTuple& tuple) {
    Packet p;
    ebpf::BuildFrame(tuple, p.frame);
    return p;
  }

  // Embeds an opaque 32-bit payload word right after the L4 ports (used by
  // workloads that carry an operation code or a value in the packet).
  void SetPayloadWord(u32 index, u32 value) {
    std::memcpy(frame + ebpf::kL4HeaderOffset + 8 + index * 4, &value, 4);
  }

  u32 PayloadWord(u32 index) const {
    u32 v;
    std::memcpy(&v, frame + ebpf::kL4HeaderOffset + 8 + index * 4, 4);
    return v;
  }
};

using Trace = std::vector<Packet>;

// The XDP view of a packet: a writable window over its whole frame, as the
// NIC hands it to the hook. Every pipeline, engine and steering path builds
// its contexts here.
inline ebpf::XdpContext XdpContextOf(Packet& packet, u64 rx_timestamp_ns = 0) {
  ebpf::XdpContext ctx;
  ctx.data = packet.frame;
  ctx.data_end = packet.frame + ebpf::kFrameSize;
  ctx.rx_timestamp_ns = rx_timestamp_ns;
  return ctx;
}

}  // namespace pktgen

#endif  // ENETSTL_PKTGEN_PACKET_H_
