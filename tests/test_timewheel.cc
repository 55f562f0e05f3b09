// Tests for the two-level timing wheel: due-time ordering, level-2 cascade
// correctness, horizon limits, capacity behaviour, and exact cross-variant
// equivalence (the wheel logic is deterministic and identical; only the
// storage substrate differs).
#include "nf/timewheel.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ebpf/helper.h"
#include "pktgen/flowgen.h"

namespace nf {
namespace {

enum class Kind { kEbpf, kKernel, kEnetstl };

std::unique_ptr<TimeWheelBase> Make(Kind kind, const TimeWheelConfig& config) {
  switch (kind) {
    case Kind::kEbpf:
      return std::make_unique<TimeWheelEbpf>(config);
    case Kind::kKernel:
      return std::make_unique<TimeWheelKernel>(config);
    case Kind::kEnetstl:
      return std::make_unique<TimeWheelEnetstl>(config);
  }
  return nullptr;
}

class TimeWheelAllVariants : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override { ebpf::SetCurrentCpu(0); }
};

TEST_P(TimeWheelAllVariants, EnqueueDequeueSingleElement) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  auto tw = Make(GetParam(), config);
  TwElem e;
  e.expires = 300;  // lands in slot 2 (256..384)
  e.flow = 42;
  ASSERT_TRUE(tw->Enqueue(e));
  EXPECT_EQ(tw->size(), 1u);
  TwElem out[8];
  EXPECT_EQ(tw->AdvanceOneSlot(out, 8), 0u);  // slot 1: nothing
  const u32 n = tw->AdvanceOneSlot(out, 8);   // slot 2: our element
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0].flow, 42u);
  EXPECT_EQ(tw->size(), 0u);
}

TEST_P(TimeWheelAllVariants, ElementsInSameSlotPopTogether) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  auto tw = Make(GetParam(), config);
  for (u32 i = 0; i < 5; ++i) {
    TwElem e;
    e.expires = 130;  // slot 1
    e.flow = i;
    ASSERT_TRUE(tw->Enqueue(e));
  }
  TwElem out[8];
  const u32 n = tw->AdvanceOneSlot(out, 8);
  ASSERT_EQ(n, 5u);
  for (u32 i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].flow, i);  // FIFO within a slot
  }
}

TEST_P(TimeWheelAllVariants, PastExpiresGoToNextSlot) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  auto tw = Make(GetParam(), config);
  // Advance the clock a bit first.
  TwElem out[4];
  tw->AdvanceOneSlot(out, 4);
  tw->AdvanceOneSlot(out, 4);  // clk = 256
  TwElem e;
  e.expires = 50;  // already past
  e.flow = 7;
  ASSERT_TRUE(tw->Enqueue(e));
  // Must be delivered at the next slot advance, not lost.
  const u32 n = tw->AdvanceOneSlot(out, 4);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0].flow, 7u);
}

TEST_P(TimeWheelAllVariants, BeyondHorizonRejected) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  auto tw = Make(GetParam(), config);
  TwElem e;
  e.expires = tw->horizon_ns() + 1000;
  EXPECT_FALSE(tw->Enqueue(e));
  EXPECT_EQ(tw->size(), 0u);
}

TEST_P(TimeWheelAllVariants, CascadeDeliversLevel2Elements) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  auto tw = Make(GetParam(), config);
  // Element far enough to live in level 2 (delta >= kTvrSize slots).
  TwElem e;
  e.expires = static_cast<u64>(kTvrSize + 10) * 128;
  e.flow = 99;
  ASSERT_TRUE(tw->Enqueue(e));
  // Advance until it must appear.
  TwElem out[8];
  u32 delivered = 0;
  u64 delivered_at_slot = 0;
  for (u32 slot = 1; slot <= kTvrSize + 16; ++slot) {
    const u32 n = tw->AdvanceOneSlot(out, 8);
    if (n > 0) {
      delivered += n;
      delivered_at_slot = slot;
      EXPECT_EQ(out[0].flow, 99u);
    }
  }
  EXPECT_EQ(delivered, 1u);
  // Due at slot (kTvrSize + 10): the clock reaches its expiry then.
  EXPECT_EQ(delivered_at_slot, kTvrSize + 10u);
}

TEST_P(TimeWheelAllVariants, DeliveryTimeNeverBeforeExpiry) {
  TimeWheelConfig config;
  config.granularity_ns = 64;
  auto tw = Make(GetParam(), config);
  pktgen::Rng rng(99);
  std::vector<u64> expiries;
  for (int i = 0; i < 200; ++i) {
    TwElem e;
    e.expires = 64 + rng.NextBounded(tw->horizon_ns() - 128);
    e.flow = static_cast<u32>(i);
    if (tw->Enqueue(e)) {
      expiries.push_back(e.expires);
    }
  }
  TwElem out[64];
  u32 delivered = 0;
  for (u32 slot = 0; slot < kTvrSize * (kTvnSize + 1); ++slot) {
    const u32 n = tw->AdvanceOneSlot(out, 64);
    for (u32 i = 0; i < n; ++i) {
      // Element must not be delivered before its expiry slot has passed:
      // clock_ns is the upper edge of the current slot.
      EXPECT_LE(out[i].expires, tw->clock_ns() + config.granularity_ns);
      ++delivered;
    }
    if (delivered == expiries.size()) {
      break;
    }
  }
  EXPECT_EQ(delivered, expiries.size());
  EXPECT_EQ(tw->size(), 0u);
}

TEST_P(TimeWheelAllVariants, CapacityExhaustionFailsEnqueue) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  config.capacity = 8;
  auto tw = Make(GetParam(), config);
  TwElem e;
  e.expires = 512;
  u32 accepted = 0;
  for (u32 i = 0; i < 16; ++i) {
    if (tw->Enqueue(e)) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 8u);
  TwElem out[16];
  u32 drained = 0;
  for (int slot = 0; slot < 8; ++slot) {
    drained += tw->AdvanceOneSlot(out, 16);
  }
  EXPECT_EQ(drained, 8u);
  // Capacity is recycled.
  e.expires = tw->clock_ns() + 300;
  EXPECT_TRUE(tw->Enqueue(e));
}

INSTANTIATE_TEST_SUITE_P(Variants, TimeWheelAllVariants,
                         ::testing::Values(Kind::kEbpf, Kind::kKernel,
                                           Kind::kEnetstl),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kEbpf:
                               return "eBPF";
                             case Kind::kKernel:
                               return "Kernel";
                             default:
                               return "eNetSTL";
                           }
                         });

// The wheel logic is identical across variants: a shared random workload
// must produce the exact same delivery sequence.
TEST(TimeWheelEquivalence, AllVariantsDeliverIdenticalSequences) {
  TimeWheelConfig config;
  config.granularity_ns = 128;
  TimeWheelEbpf a(config);
  TimeWheelKernel b(config);
  TimeWheelEnetstl c(config);
  ebpf::SetCurrentCpu(0);
  pktgen::Rng rng(31415);
  for (int step = 0; step < 5000; ++step) {
    if (rng.NextBounded(2) == 0) {
      TwElem e;
      e.expires = a.clock_ns() + 128 + rng.NextBounded(a.horizon_ns() - 256);
      e.flow = static_cast<u32>(step);
      const bool ra = a.Enqueue(e);
      const bool rb = b.Enqueue(e);
      const bool rc = c.Enqueue(e);
      ASSERT_EQ(ra, rb);
      ASSERT_EQ(ra, rc);
    } else {
      TwElem oa[32], ob[32], oc[32];
      const u32 na = a.AdvanceOneSlot(oa, 32);
      const u32 nb = b.AdvanceOneSlot(ob, 32);
      const u32 nc = c.AdvanceOneSlot(oc, 32);
      ASSERT_EQ(na, nb);
      ASSERT_EQ(na, nc);
      for (u32 i = 0; i < na; ++i) {
        ASSERT_EQ(oa[i].flow, ob[i].flow);
        ASSERT_EQ(oa[i].flow, oc[i].flow);
        ASSERT_EQ(oa[i].expires, ob[i].expires);
        ASSERT_EQ(oa[i].expires, oc[i].expires);
      }
    }
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
  }
}

TEST(TimeWheelPacketPath, QueueingTraceRuns) {
  TimeWheelConfig config;
  TimeWheelEnetstl tw(config);
  const auto flows = pktgen::MakeFlowPopulation(16, 7);
  const auto trace =
      pktgen::MakeQueueingTrace(flows, 2000, kTvrSize * kTvnSize / 2, 8);
  pktgen::ReplayOnce(tw.Handler(), trace);
  // The wheel processed enqueues and dequeues without stalling; size is
  // bounded by the number of enqueues.
  EXPECT_LE(tw.size(), 1000u);
}

}  // namespace
}  // namespace nf
