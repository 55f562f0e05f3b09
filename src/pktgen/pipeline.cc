#include "pktgen/pipeline.h"

#include <algorithm>
#include <chrono>

#include "ebpf/helper.h"
#include "obs/percentile.h"

namespace pktgen {

namespace {

using Clock = std::chrono::steady_clock;

inline u32 ClampBurstSize(u32 burst_size) {
  return std::clamp(burst_size, u32{1}, kMaxBurstSize);
}

}  // namespace

ThroughputStats Pipeline::MeasureThroughput(PacketHandler handler,
                                            const Trace& trace) const {
  ThroughputStats stats;
  if (trace.empty()) {
    return stats;
  }
  ebpf::SetCurrentCpu(options_.cpu);
  // The trace is mutated in place (contexts expose writable frames, as XDP
  // does); copy so repeated measurements start from identical frames.
  Trace working = trace;
  const std::size_t n = working.size();

  std::size_t cursor = 0;
  for (u64 i = 0; i < options_.warmup_packets; ++i) {
    ebpf::XdpContext ctx = XdpContextOf(working[cursor]);
    (void)handler(ctx);
    cursor = cursor + 1 < n ? cursor + 1 : 0;
  }

  const auto start = Clock::now();
  for (u64 i = 0; i < options_.measure_packets; ++i) {
    ebpf::XdpContext ctx = XdpContextOf(working[cursor]);
    stats.AccumulateVerdict(handler(ctx));
    cursor = cursor + 1 < n ? cursor + 1 : 0;
  }
  const auto end = Clock::now();

  stats.packets = options_.measure_packets;
  stats.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  if (stats.seconds > 0.0) {
    stats.pps = static_cast<double>(stats.packets) / stats.seconds;
    stats.ns_per_packet = stats.seconds * 1e9 / static_cast<double>(stats.packets);
  }
  return stats;
}

ThroughputStats Pipeline::MeasureThroughputBurst(PacketBurstHandler handler,
                                                 const Trace& trace) const {
  ThroughputStats stats;
  if (trace.empty()) {
    return stats;
  }
  ebpf::SetCurrentCpu(options_.cpu);
  Trace working = trace;
  const std::size_t n = working.size();
  const u32 burst = ClampBurstSize(options_.burst_size);

  ebpf::XdpContext ctxs[kMaxBurstSize];
  ebpf::XdpAction verdicts[kMaxBurstSize];
  std::size_t cursor = 0;
  auto fill_burst = [&](u32 count) {
    for (u32 i = 0; i < count; ++i) {
      ctxs[i] = XdpContextOf(working[cursor]);
      cursor = cursor + 1 < n ? cursor + 1 : 0;
    }
  };

  for (u64 done = 0; done < options_.warmup_packets;) {
    const u32 count = static_cast<u32>(
        std::min<u64>(burst, options_.warmup_packets - done));
    fill_burst(count);
    handler(ctxs, count, verdicts);
    done += count;
  }

  const auto start = Clock::now();
  for (u64 done = 0; done < options_.measure_packets;) {
    const u32 count = static_cast<u32>(
        std::min<u64>(burst, options_.measure_packets - done));
    fill_burst(count);
    handler(ctxs, count, verdicts);
    for (u32 i = 0; i < count; ++i) {
      stats.AccumulateVerdict(verdicts[i]);
    }
    done += count;
  }
  const auto end = Clock::now();

  stats.packets = options_.measure_packets;
  stats.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  if (stats.seconds > 0.0) {
    stats.pps = static_cast<double>(stats.packets) / stats.seconds;
    stats.ns_per_packet = stats.seconds * 1e9 / static_cast<double>(stats.packets);
  }
  return stats;
}

LatencyStats Pipeline::MeasureLatency(PacketHandler handler,
                                      const Trace& trace, u64 packets) const {
  LatencyStats stats;
  if (trace.empty() || packets == 0) {
    return stats;
  }
  ebpf::SetCurrentCpu(options_.cpu);
  Trace working = trace;
  const std::size_t n = working.size();

  std::vector<double> samples;
  samples.reserve(packets);
  std::size_t cursor = 0;
  double total = 0.0;
  for (u64 i = 0; i < packets; ++i) {
    const auto t0 = Clock::now();
    ebpf::XdpContext ctx = XdpContextOf(
        working[cursor],
        static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             t0.time_since_epoch())
                             .count()));
    (void)handler(ctx);
    const auto t1 = Clock::now();
    const double ns =
        std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(
            t1 - t0)
            .count();
    samples.push_back(ns);
    total += ns;
    cursor = cursor + 1 < n ? cursor + 1 : 0;
  }

  std::sort(samples.begin(), samples.end());
  auto percentile = [&](double p) {
    return obs::SortedQuantile(samples.data(), samples.size(), p);
  };
  stats.packets = packets;
  stats.p50_ns = percentile(0.50);
  stats.p90_ns = percentile(0.90);
  stats.p99_ns = percentile(0.99);
  stats.mean_ns = total / static_cast<double>(packets);
  stats.max_ns = samples.back();
  return stats;
}

void ReplayOnce(PacketHandler handler, const Trace& trace) {
  Trace working = trace;
  for (Packet& packet : working) {
    ebpf::XdpContext ctx = XdpContextOf(packet);
    (void)handler(ctx);
  }
}

}  // namespace pktgen
