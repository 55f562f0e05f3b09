#include "nf/timewheel.h"

#include "nf/nf_registry.h"

namespace nf {

namespace {

constexpr u32 kLvl1Mask = kTvrSize - 1;
constexpr u32 kLvl2Mask = kTvnSize - 1;
constexpr u32 kTotalBuckets = kTvrSize + kTvnSize;

// Bucket index for an expiry given the current clock; kTotalBuckets when the
// expiry lies beyond the wheel's horizon. The clock always sits on a slot
// boundary (it only advances by whole slots). `min_delta` is the earliest
// slot (relative to clk/g) an element may park in. External enqueues use 1:
// AdvanceOneSlot drains slot clk/g after advancing, so slot clk/g has
// already been drained and a due-now element parked there would strand for
// a full revolution. Cascade uses 0: it runs inside AdvanceOneSlot *before*
// the current slot drains, so an element due exactly at the epoch boundary
// (expiry a multiple of kTvrSize slots out) re-parks in the current slot
// and delivers this very advance instead of one slot late.
inline u32 BucketFor(u64 expires, u64 clk, u32 shift, u64 min_delta = 1) {
  const u64 cur_slot = clk >> shift;
  u64 exp_slot = expires >> shift;
  if (exp_slot < cur_slot + min_delta) {
    exp_slot = cur_slot + min_delta;  // already due
  }
  const u64 delta = exp_slot - cur_slot;
  if (delta < kTvrSize) {
    return static_cast<u32>(exp_slot) & kLvl1Mask;
  }
  if (delta < static_cast<u64>(kTvrSize) * (kTvnSize - 1)) {
    return kTvrSize +
           (static_cast<u32>(exp_slot / kTvrSize) & kLvl2Mask);
  }
  return kTotalBuckets;
}

}  // namespace

ebpf::XdpAction TimeWheelBase::Process(ebpf::XdpContext& ctx) {
  ebpf::FiveTuple tuple;
  if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
    return ebpf::XdpAction::kAborted;
  }
  u32 op = 0;
  u32 offset = 0;
  std::memcpy(&op, ctx.data + ebpf::kL4HeaderOffset + 8, 4);
  std::memcpy(&offset, ctx.data + ebpf::kL4HeaderOffset + 12, 4);
  if (op == 1) {
    const u64 max_slots = static_cast<u64>(kTvrSize) * (kTvnSize - 1);
    TwElem elem;
    elem.expires = clock_ns_ + (1 + offset % (max_slots - 1)) *
                                   config_.granularity_ns;
    elem.flow = tuple.src_ip;
    Enqueue(elem);
    return ebpf::XdpAction::kDrop;
  }
  TwElem out[64];
  (void)AdvanceOneSlot(out, 64);
  return ebpf::XdpAction::kDrop;
}

// ---------------------------------------------------------------------------
// TimeWheelEbpf: one map element + one lock per bucket, BPF linked lists.
// ---------------------------------------------------------------------------

TimeWheelEbpf::TimeWheelEbpf(const TimeWheelConfig& config)
    : TimeWheelBase(config),
      bucket_map_(kTotalBuckets),
      locks_(kTotalBuckets),
      pool_(config.capacity) {}

bool TimeWheelEbpf::PushBucket(u32 index, const TwElem& elem) {
  // Extra helper call per operation: fetch the bucket's list from its map
  // element, then the lock-coupled push.
  ebpf::BpfList<TwElem>* list = bucket_map_.LookupElem(index);
  if (list == nullptr) {
    return false;
  }
  return list->PushBack(pool_, locks_[index], elem);
}

bool TimeWheelEbpf::Enqueue(const TwElem& elem) {
  const u32 bucket = BucketFor(elem.expires, clock_ns_, shift_);
  if (bucket >= kTotalBuckets) {
    return false;
  }
  if (!PushBucket(bucket, elem)) {
    return false;
  }
  ++size_;
  return true;
}

void TimeWheelEbpf::Cascade() {
  const u32 idx2 =
      kTvrSize + (static_cast<u32>(clock_ns_ >> (shift_ + 8)) & kLvl2Mask);
  ebpf::BpfList<TwElem>* list = bucket_map_.LookupElem(idx2);
  if (list == nullptr) {
    return;
  }
  TwElem elem;
  while (list->PopFront(pool_, locks_[idx2], &elem)) {
    const u32 bucket =
        BucketFor(elem.expires, clock_ns_, shift_, /*min_delta=*/0);
    if (bucket < kTotalBuckets) {
      PushBucket(bucket, elem);
    } else {
      --size_;  // beyond horizon after cascade: dropped
    }
  }
}

u32 TimeWheelEbpf::AdvanceOneSlot(TwElem* out, u32 max) {
  clock_ns_ += config_.granularity_ns;
  const u32 cur = static_cast<u32>(clock_ns_ >> shift_) & kLvl1Mask;
  if (cur == 0) {
    Cascade();
  }
  ebpf::BpfList<TwElem>* list = bucket_map_.LookupElem(cur);
  if (list == nullptr) {
    return 0;
  }
  u32 n = 0;
  while (n < max && list->PopFront(pool_, locks_[cur], &out[n])) {
    --size_;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// TimeWheelKernel: native intrusive bucket queues.
// ---------------------------------------------------------------------------

TimeWheelKernel::TimeWheelKernel(const TimeWheelConfig& config)
    : TimeWheelBase(config),
      head_(kTotalBuckets, kNil),
      tail_(kTotalBuckets, kNil),
      elems_(config.capacity),
      next_(config.capacity),
      pending_((kTotalBuckets + 63) / 64, 0) {
  for (u32 i = 0; i < config.capacity; ++i) {
    next_[i] = (i + 1 < config.capacity) ? i + 1 : kNil;
  }
  free_head_ = config.capacity > 0 ? 0 : kNil;
}

bool TimeWheelKernel::PushBucket(u32 index, const TwElem& elem) {
  const u32 node = free_head_;
  if (node == kNil) {
    return false;
  }
  free_head_ = next_[node];
  elems_[node] = elem;
  next_[node] = kNil;
  if (tail_[index] != kNil) {
    next_[tail_[index]] = node;
  } else {
    head_[index] = node;
    pending_[index >> 6] |= 1ull << (index & 63);
  }
  tail_[index] = node;
  return true;
}

bool TimeWheelKernel::Enqueue(const TwElem& elem) {
  const u32 bucket = BucketFor(elem.expires, clock_ns_, shift_);
  if (bucket >= kTotalBuckets) {
    return false;
  }
  if (!PushBucket(bucket, elem)) {
    return false;
  }
  ++size_;
  return true;
}

void TimeWheelKernel::Cascade() {
  const u32 idx2 =
      kTvrSize + (static_cast<u32>(clock_ns_ >> (shift_ + 8)) & kLvl2Mask);
  u32 node = head_[idx2];
  head_[idx2] = kNil;
  tail_[idx2] = kNil;
  pending_[idx2 >> 6] &= ~(1ull << (idx2 & 63));
  while (node != kNil) {
    const u32 nxt = next_[node];
    const TwElem elem = elems_[node];
    next_[node] = free_head_;
    free_head_ = node;
    const u32 bucket =
        BucketFor(elem.expires, clock_ns_, shift_, /*min_delta=*/0);
    if (bucket < kTotalBuckets) {
      PushBucket(bucket, elem);
    } else {
      --size_;
    }
    node = nxt;
  }
}

u32 TimeWheelKernel::AdvanceOneSlot(TwElem* out, u32 max) {
  clock_ns_ += config_.granularity_ns;
  const u32 cur = static_cast<u32>(clock_ns_ >> shift_) & kLvl1Mask;
  if (cur == 0) {
    Cascade();
  }
  u32 n = 0;
  while (n < max && head_[cur] != kNil) {
    const u32 node = head_[cur];
    out[n++] = elems_[node];
    head_[cur] = next_[node];
    if (head_[cur] == kNil) {
      tail_[cur] = kNil;
      pending_[cur >> 6] &= ~(1ull << (cur & 63));
    }
    next_[node] = free_head_;
    free_head_ = node;
    --size_;
  }
  return n;
}

// ---------------------------------------------------------------------------
// TimeWheelEnetstl: list-buckets kfuncs.
// ---------------------------------------------------------------------------

TimeWheelEnetstl::TimeWheelEnetstl(const TimeWheelConfig& config)
    : TimeWheelBase(config),
      buckets_(kTotalBuckets, config.capacity, sizeof(TwElem)) {}

bool TimeWheelEnetstl::PushBucket(u32 index, const TwElem& elem) {
  return buckets_.InsertTail(index, &elem, sizeof(elem)) == ebpf::kOk;
}

bool TimeWheelEnetstl::Enqueue(const TwElem& elem) {
  const u32 bucket = BucketFor(elem.expires, clock_ns_, shift_);
  if (bucket >= kTotalBuckets) {
    return false;
  }
  if (!PushBucket(bucket, elem)) {
    return false;
  }
  ++size_;
  return true;
}

void TimeWheelEnetstl::Cascade() {
  const u32 idx2 =
      kTvrSize + (static_cast<u32>(clock_ns_ >> (shift_ + 8)) & kLvl2Mask);
  // Chunked drain: one PopFrontBatch boundary per 64 elements instead of one
  // per element. Safe because no cascaded element can remap to idx2 itself:
  // landing back on the level-2 bucket of the current clock would need
  // delta >= kTvrSize * kTvnSize slots, but level-2 placement requires
  // delta < kTvrSize * (kTvnSize - 1) — so re-pushes never feed the bucket
  // being drained, and the chunked pop order equals the scalar pop order.
  TwElem chunk[64];
  while (true) {
    const s32 got = buckets_.PopFrontBatch(idx2, chunk, 64, sizeof(TwElem));
    if (got <= 0) {
      break;
    }
    for (s32 i = 0; i < got; ++i) {
      const u32 bucket =
          BucketFor(chunk[i].expires, clock_ns_, shift_, /*min_delta=*/0);
      if (bucket < kTotalBuckets) {
        PushBucket(bucket, chunk[i]);
      } else {
        --size_;
      }
    }
    if (static_cast<u32>(got) < 64) {
      break;
    }
  }
}

u32 TimeWheelEnetstl::AdvanceOneSlot(TwElem* out, u32 max) {
  clock_ns_ += config_.granularity_ns;
  const u32 cur = static_cast<u32>(clock_ns_ >> shift_) & kLvl1Mask;
  if (cur == 0) {
    Cascade();
  }
  // One batched pop replaces max scalar PopFront boundaries; the kfunc
  // prefetches each successor's payload while copying the current one out.
  const s32 got = buckets_.PopFrontBatch(cur, out, max, sizeof(TwElem));
  if (got <= 0) {
    return 0;
  }
  size_ -= static_cast<u32>(got);
  return static_cast<u32>(got);
}

namespace builtin {

void RegisterTimeWheel(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "timewheel";
  entry.category = "queuing";
  entry.variants = {Variant::kEbpf, Variant::kKernel, Variant::kEnetstl};
  entry.caps.chainable = false;  // op-word driven payloads
  entry.factory = [](Variant v) -> std::unique_ptr<NetworkFunction> {
    TimeWheelConfig config;
    config.granularity_ns = 1024;
    config.capacity = 65536;
    switch (v) {
      case Variant::kEbpf:
        return std::make_unique<TimeWheelEbpf>(config);
      case Variant::kKernel:
        return std::make_unique<TimeWheelKernel>(config);
      case Variant::kEnetstl:
        return std::make_unique<TimeWheelEnetstl>(config);
    }
    return nullptr;
  };
  entry.prime = [](const std::vector<NetworkFunction*>&, const BenchEnv& env) {
    return pktgen::MakeQueueingTrace(env.flows, 16384,
                                     kTvrSize * (kTvnSize - 1) / 2, 77);
  };
  registry.Register(std::move(entry));
}

}  // namespace builtin

}  // namespace nf
