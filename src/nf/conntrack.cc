#include "nf/conntrack.h"

#include <cstddef>
#include <cstring>

#include "core/fault_injector.h"
#include "core/hash.h"
#include "core/hash_inl.h"
#include "nf/nf_registry.h"

namespace nf {

namespace {

u32 NextPow2(u32 v) {
  u32 p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// Arena geometry for the flow shape: one 128-byte slot per flow, slabs sized
// to hold exactly kSlotsPerSlab slots so capacity tracks max_flows at slab
// granularity. max_slabs is additionally clamped so every handle fits in 31
// bits — bit 31 of an index reference is the direction tag, and an untagged
// sentinel must never collide with a tagged handle.
enetstl::SlabArena::Options ArenaOptionsFor(const FlowTableConfig& config) {
  enetstl::SlabArena::Options options;
  const u32 slot_size = 128;
  static_assert(sizeof(FlowEntry) <= 128);
  static_assert(offsetof(FlowEntry, state) < 64);
  options.max_slot_bytes = slot_size;
  options.target_slab_bytes = enetstl::SlabArena::kSlotsPerSlab * slot_size;
  const u32 per_slab = enetstl::SlabArena::kSlotsPerSlab;
  u32 slabs = (config.max_flows + per_slab - 1) / per_slab;
  const u32 tag_safe_cap = (1u << 23) - 2;
  if (slabs > tag_safe_cap) {
    slabs = tag_safe_cap;
  }
  if (slabs == 0) {
    slabs = 1;
  }
  options.max_slabs = slabs;
  return options;
}

constexpr u64 kFlowShapeKey = 0xc0117ac4u;  // arbitrary stable shape identity

}  // namespace

u64 CtTimeoutFor(const FlowTableConfig& config, FlowState state) {
  switch (state) {
    case FlowState::kNew:
      return config.new_timeout_ns;
    case FlowState::kEstablished:
      return config.established_timeout_ns;
    case FlowState::kFinWait:
      return config.fin_timeout_ns;
    case FlowState::kUdpIdle:
      return config.udp_timeout_ns;
  }
  return config.udp_timeout_ns;
}

// ---------------------------------------------------------------------------
// FlowTable: arena-backed paired flow table (eNetSTL engine).
// ---------------------------------------------------------------------------

FlowTable::FlowTable(const FlowTableConfig& config)
    : config_(config), arena_(ArenaOptionsFor(config)) {
  const u32 bucket_count = NextPow2(config_.max_flows < 32 ? 64
                                                           : config_.max_flows * 2);
  bucket_mask_ = bucket_count - 1;
  buckets_.assign(bucket_count, kNullRef);
  for (u32 c = 0; c < kFlowClasses; ++c) {
    timeout_ns_[c] = CtTimeoutFor(config_, static_cast<FlowState>(c));
    lru_head_[c] = kNullRef;
    lru_tail_[c] = kNullRef;
  }
  if (config_.wheel_granularity_ns == 0) {
    config_.wheel_granularity_ns = 1;
  }
}

ebpf::FiveTuple FlowTable::ReverseTuple(const ebpf::FiveTuple& t) {
  ebpf::FiveTuple r;
  r.src_ip = t.dst_ip;
  r.dst_ip = t.src_ip;
  r.src_port = t.dst_port;
  r.dst_port = t.src_port;
  r.protocol = t.protocol;
  return r;
}

u32 FlowTable::BucketOf(const ebpf::FiveTuple& key) const {
  return enetstl::HwHashCrc(&key, sizeof(key), config_.seed) & bucket_mask_;
}

FlowEntry* FlowTable::FindRaw(const ebpf::FiveTuple& key, u8* dir,
                              u32* handle) const {
  u32 ref = buckets_[BucketOf(key)];
  while (ref != kNullRef) {
    const u8 d = static_cast<u8>(ref >> 31);
    const u32 h = ref & kHandleMask;
    auto* e = static_cast<FlowEntry*>(arena_.Deref(h));
    if (e->key[d] == key) {
      *dir = d;
      *handle = h;
      return e;
    }
    ref = e->next[d];
  }
  return nullptr;
}

FlowEntry* FlowTable::Find(const ebpf::FiveTuple& key, u64 now_ns, u8* dir,
                           u32* handle) {
  FlowEntry* e = FindRaw(key, dir, handle);
  if (e == nullptr) {
    return nullptr;
  }
  if (e->expires_ns <= now_ns) {
    ++stats_.expired_lazy;
    Release(e, *handle);
    return nullptr;
  }
  return e;
}

const FlowEntry* FlowTable::FindConst(const ebpf::FiveTuple& key, u64 now_ns,
                                      u8* dir) const {
  u32 handle;
  const FlowEntry* e = FindRaw(key, dir, &handle);
  if (e == nullptr || e->expires_ns <= now_ns) {
    return nullptr;
  }
  return e;
}

void FlowTable::FindBatch(const ebpf::FiveTuple* keys, u32 n, u64 now_ns,
                          Lookup* out) {
  // Stage 1: one kfunc call hashes every key and prefetches its index bucket.
  u32 hashes[kMaxNfBurst];
  enetstl::HashPrefetchBatch(keys, sizeof(ebpf::FiveTuple),
                             sizeof(ebpf::FiveTuple), n, config_.seed,
                             buckets_.data(), sizeof(u32), bucket_mask_,
                             hashes);
  // Stage 2: read the bucket heads (now cached) and prefetch the first chain
  // entry of every key before any chain walk touches one.
  u32 refs[kMaxNfBurst];
  for (u32 i = 0; i < n; ++i) {
    refs[i] = buckets_[hashes[i] & bucket_mask_];
    if (refs[i] != kNullRef) {
      enetstl::internal::PrefetchRead(arena_.Deref(refs[i] & kHandleMask));
    }
  }
  // Stage 3: confirm. Pure — due entries are reported (kExpired), never
  // collected; the caller routes those through Find for the lazy free.
  for (u32 i = 0; i < n; ++i) {
    Lookup& lk = out[i];
    lk = Lookup{};
    u32 ref = refs[i];
    while (ref != kNullRef) {
      const u8 d = static_cast<u8>(ref >> 31);
      const u32 h = ref & kHandleMask;
      auto* e = static_cast<FlowEntry*>(arena_.Deref(h));
      if (e->key[d] == keys[i]) {
        lk.dir = d;
        lk.handle = h;
        lk.entry = e;
        lk.kind = e->expires_ns > now_ns ? Lookup::kHit : Lookup::kExpired;
        break;
      }
      ref = e->next[d];
    }
  }
}

void FlowTable::LinkIndex(u32 handle, FlowEntry* entry, u8 dir) {
  const u32 b = BucketOf(entry->key[dir]);
  entry->next[dir] = buckets_[b];
  buckets_[b] = (static_cast<u32>(dir) << 31) | handle;
}

void FlowTable::UnlinkIndex(u32 handle, FlowEntry* entry, u8 dir) {
  const u32 tagged = (static_cast<u32>(dir) << 31) | handle;
  const u32 b = BucketOf(entry->key[dir]);
  u32* link = &buckets_[b];
  while (*link != kNullRef) {
    if (*link == tagged) {
      *link = entry->next[dir];
      return;
    }
    auto* e = static_cast<FlowEntry*>(arena_.Deref(*link & kHandleMask));
    link = &e->next[*link >> 31];
  }
}

// The class index is passed in (not re-read from the entry): every Deref is
// an out-of-line call, after which the entry would have to be reloaded.
void FlowTable::LruPushFront(u32 handle, FlowEntry* entry, u32 cls) {
  const u32 head = lru_head_[cls];
  entry->lru_prev = kNullRef;
  entry->lru_next = head;
  if (head != kNullRef) {
    static_cast<FlowEntry*>(arena_.Deref(head))->lru_prev = handle;
  } else {
    lru_tail_[cls] = handle;
  }
  lru_head_[cls] = handle;
}

void FlowTable::LruUnlink(FlowEntry* entry, u32 cls) {
  const u32 p = entry->lru_prev;
  const u32 n = entry->lru_next;
  if (p != kNullRef) {
    static_cast<FlowEntry*>(arena_.Deref(p))->lru_next = n;
  } else {
    lru_head_[cls] = n;
  }
  if (n != kNullRef) {
    static_cast<FlowEntry*>(arena_.Deref(n))->lru_prev = p;
  } else {
    lru_tail_[cls] = p;
  }
}

FlowEntry* FlowTable::Insert(const ebpf::FiveTuple& fwd,
                             const ebpf::FiveTuple& rev, u32 value,
                             FlowState state, u64 now_ns, u32 nat_ip,
                             u16 nat_port, u32* handle) {
  enetstl::SlabArena::Allocation a;
  if (!enetstl::FaultInjector::Global().ShouldFail("conntrack.insert")) {
    a = arena_.Allocate(kFlowShapeKey, sizeof(FlowEntry));
  }
  if (a.ptr == nullptr) {
    // -ENOSPC degradation: reclaim one flow and retry — the BPF LRU-map
    // eviction semantics, but pair-consistent (both directions of the victim
    // leave together).
    if (!Reclaim(now_ns)) {
      ++stats_.insert_failures;
      return nullptr;
    }
    a = arena_.Allocate(kFlowShapeKey, sizeof(FlowEntry));
    if (a.ptr == nullptr) {
      ++stats_.insert_failures;
      return nullptr;
    }
  }
  auto* e = static_cast<FlowEntry*>(a.ptr);
  // Full init before any index store: the slot's first 4 bytes held freelist
  // state and arena slots are never zeroed.
  e->key[0] = fwd;
  e->key[1] = rev;
  e->next[0] = kNullRef;
  e->next[1] = kNullRef;
  e->expires_ns = now_ns + timeout_ns_[static_cast<u32>(state)];
  e->value = value;
  e->nat_ip = nat_ip;
  e->nat_port = nat_port;
  e->state = state;
  e->flags = 0;
  // Paired commit: both direction heads are written only now, after the
  // entry is complete — no observer can see one tuple without the other.
  LinkIndex(a.handle, e, 0);
  LinkIndex(a.handle, e, 1);
  LruPushFront(a.handle, e, static_cast<u32>(state));
  if (leak_ != nullptr) {
    leak_->OnAcquire(e, "conntrack.flow");
  }
  ++stats_.inserts;
  ++mutation_epoch_;
  *handle = a.handle;
  return e;
}

void FlowTable::Release(FlowEntry* entry, u32 handle) {
  UnlinkIndex(handle, entry, 0);
  UnlinkIndex(handle, entry, 1);
  LruUnlink(entry, static_cast<u32>(entry->state));
  if (leak_ != nullptr) {
    leak_->OnRelease(entry, "conntrack.flow");
  }
  arena_.Free(handle);
  ++mutation_epoch_;
}

bool FlowTable::Erase(const ebpf::FiveTuple& key) {
  u8 dir;
  u32 handle;
  FlowEntry* e = FindRaw(key, &dir, &handle);
  if (e == nullptr) {
    return false;
  }
  Release(e, handle);
  return true;
}

void FlowTable::EraseEntry(FlowEntry* entry, u32 handle) {
  Release(entry, handle);
}

bool FlowTable::Reclaim(u64 now_ns) {
  // Each class tail is its class's earliest expiry: if any flow is due, some
  // tail is. Due tails go first, so a table that the sweep keeps clean and a
  // lazy-only twin of it evict the same live flows.
  FlowEntry* victim = nullptr;
  u32 victim_handle = kNullRef;
  bool victim_due = false;
  for (u32 c = 0; c < kFlowClasses; ++c) {
    const u32 h = lru_tail_[c];
    if (h == kNullRef) {
      continue;
    }
    auto* e = static_cast<FlowEntry*>(arena_.Deref(h));
    const bool due = e->expires_ns <= now_ns;
    if (victim == nullptr || due > victim_due ||
        (due == victim_due && TouchedBefore(*e, *victim))) {
      victim = e;
      victim_handle = h;
      victim_due = due;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  ++(victim_due ? stats_.timeout_evictions : stats_.lru_evictions);
  Release(victim, victim_handle);
  return true;
}

void FlowTable::Refresh(FlowEntry* entry, u32 handle, u64 now_ns) {
  const u32 cls = static_cast<u32>(entry->state);
  entry->expires_ns = now_ns + timeout_ns_[cls];
  if (lru_head_[cls] != handle) {
    LruUnlink(entry, cls);
    LruPushFront(handle, entry, cls);
  }
}

void FlowTable::SetState(FlowEntry* entry, u32 handle, FlowState state,
                         u64 now_ns) {
  LruUnlink(entry, static_cast<u32>(entry->state));
  entry->state = state;
  const u32 cls = static_cast<u32>(state);
  entry->expires_ns = now_ns + timeout_ns_[cls];
  LruPushFront(handle, entry, cls);
}

u32 FlowTable::Advance(u64 until_ns) {
  const u64 step = config_.wheel_granularity_ns;
  if (until_ns - until_ns % step > clock_ns_) {
    clock_ns_ = until_ns - until_ns % step;
  }
  u32 evicted = 0;
  for (u32 c = 0; c < kFlowClasses; ++c) {
    while (lru_tail_[c] != kNullRef) {
      const u32 h = lru_tail_[c];
      auto* e = static_cast<FlowEntry*>(arena_.Deref(h));
      if (e->expires_ns > clock_ns_) {
        break;  // the class's earliest expiry is live: so is the rest
      }
      Release(e, h);
      ++evicted;
    }
  }
  stats_.timeout_evictions += evicted;
  return evicted;
}

void FlowTable::Clear() {
  // Frees the slot being visited — the one mutation ForEachLive's copied
  // occupancy words make safe.
  arena_.ForEachLiveHandle([this](u32 handle, void* slot) {
    Release(static_cast<FlowEntry*>(slot), handle);
  });
}

// ---------------------------------------------------------------------------
// LruFlowTable: BPF-LRU-map engine (the eBPF model).
// ---------------------------------------------------------------------------

LruFlowTable::LruFlowTable(const FlowTableConfig& config)
    : config_(config), map_(config.max_flows * 2) {}

CtFlowValue* LruFlowTable::Find(const ebpf::FiveTuple& key, u64 now_ns) {
  CtFlowValue* v = map_.LookupElem(key);
  if (v == nullptr) {
    return nullptr;
  }
  if (v->expires_ns <= now_ns) {
    const ebpf::FiveTuple peer = v->peer;
    map_.DeleteElem(key);
    map_.DeleteElem(peer);  // may already be orphaned — best effort
    ++expired_lazy_;
    return nullptr;
  }
  return v;
}

CtFlowValue* LruFlowTable::Insert(const ebpf::FiveTuple& fwd,
                                  const ebpf::FiveTuple& rev, u32 value,
                                  FlowState state, u64 now_ns, u32 nat_ip,
                                  u16 nat_port) {
  CtFlowValue v;
  v.peer = rev;
  v.expires_ns = now_ns + CtTimeoutFor(config_, state);
  v.value = value;
  v.nat_ip = nat_ip;
  v.nat_port = nat_port;
  v.state = static_cast<u8>(state);
  v.dir = 0;
  if (map_.UpdateElem(fwd, v) != ebpf::kOk) {
    return nullptr;
  }
  CtFlowValue r = v;
  r.peer = fwd;
  r.dir = 1;
  // Second helper call; if the map evicts the forward entry to make room the
  // pair is born split — the modeled LRU-map inconsistency.
  map_.UpdateElem(rev, r);
  return map_.LookupElem(fwd);
}

bool LruFlowTable::Erase(const ebpf::FiveTuple& key) {
  CtFlowValue* v = map_.LookupElem(key);
  if (v == nullptr) {
    return false;
  }
  const ebpf::FiveTuple peer = v->peer;
  map_.DeleteElem(key);
  map_.DeleteElem(peer);
  return true;
}

void LruFlowTable::Refresh(CtFlowValue* v, u64 now_ns) {
  v->expires_ns = now_ns + CtTimeoutFor(config_, static_cast<FlowState>(v->state));
  // Keeping the pair's expiry in sync costs an extra map lookup per packet —
  // the helper tax the arena engine's single paired entry avoids.
  CtFlowValue* p = map_.LookupElem(v->peer);
  if (p != nullptr) {
    p->expires_ns = v->expires_ns;
  }
}

void LruFlowTable::SetState(CtFlowValue* v, FlowState state, u64 now_ns) {
  v->state = static_cast<u8>(state);
  CtFlowValue* p = map_.LookupElem(v->peer);
  if (p != nullptr) {
    p->state = v->state;
  }
  Refresh(v, now_ns);
}

// ---------------------------------------------------------------------------
// Conntrack NF: shared state machine + NAT helpers.
// ---------------------------------------------------------------------------

u8 ConntrackBase::TcpFlagsOf(const ebpf::XdpContext& ctx) {
  const u8* p = ctx.data + ebpf::kL4HeaderOffset + 13;
  return p < ctx.data_end ? *p : 0;
}

bool ConntrackBase::NextFlowState(FlowState cur, u8 dir, u8 proto,
                                  u8 tcp_flags, FlowState* next) {
  if (proto != kProtoTcp) {
    *next = cur;
    return false;
  }
  if (tcp_flags & kTcpRst) {
    return true;  // immediate teardown
  }
  if (tcp_flags & kTcpFin) {
    *next = FlowState::kFinWait;
    return false;
  }
  if (cur == FlowState::kNew && dir == 1) {
    *next = FlowState::kEstablished;  // reply direction seen
    return false;
  }
  *next = cur;
  return false;
}

FlowState ConntrackBase::InitialFlowState(u8 proto, u8 tcp_flags) {
  if (proto != kProtoTcp) {
    return FlowState::kUdpIdle;
  }
  return (tcp_flags & kTcpFin) ? FlowState::kFinWait : FlowState::kNew;
}

ConntrackBase::NatBinding ConntrackBase::NextNatBinding() {
  const u64 k = nat_next_++;
  NatBinding b;
  b.port = static_cast<u16>(config_.nat_port_base +
                            static_cast<u32>(k % config_.nat_port_span));
  b.ip = config_.nat_ip_base +
         static_cast<u32>((k / config_.nat_port_span) % config_.nat_pool_size);
  return b;
}

ebpf::FiveTuple ConntrackBase::NatReverseTuple(const ebpf::FiveTuple& fwd,
                                               const NatBinding& b) {
  // Netfilter's reply-tuple rule: the reverse key is the POST-translation
  // reply 5-tuple, so reply packets (addressed to the NAT binding) hit the
  // pair entry directly.
  ebpf::FiveTuple r;
  r.src_ip = fwd.dst_ip;
  r.dst_ip = b.ip;
  r.src_port = fwd.dst_port;
  r.dst_port = b.port;
  r.protocol = fwd.protocol;
  return r;
}

void ConntrackBase::RewriteForward(ebpf::XdpContext& ctx, u32 nat_ip,
                                   u16 nat_port) {
  // SNAT: source ip/port become the binding.
  if (ctx.data + ebpf::kL4HeaderOffset + 4 > ctx.data_end) {
    return;
  }
  std::memcpy(ctx.data + ebpf::kIpHeaderOffset + 12, &nat_ip, 4);
  std::memcpy(ctx.data + ebpf::kL4HeaderOffset, &nat_port, 2);
}

void ConntrackBase::RewriteReverse(ebpf::XdpContext& ctx, u32 orig_src_ip,
                                   u16 orig_src_port) {
  // Reply direction: destination rewritten back to the original initiator.
  if (ctx.data + ebpf::kL4HeaderOffset + 4 > ctx.data_end) {
    return;
  }
  std::memcpy(ctx.data + ebpf::kIpHeaderOffset + 16, &orig_src_ip, 4);
  std::memcpy(ctx.data + ebpf::kL4HeaderOffset + 2, &orig_src_port, 2);
}

// State-transfer blob: {u32 count; u64 nat_next} then `count` records of
// {FiveTuple fwd; u32 value; u32 nat_ip; u16 nat_port; u8 state; u8 pad;
// u64 remaining_ns}, oldest-first — replaying the records through Insert
// reproduces both the decisions and the LRU eviction order.
namespace {

constexpr std::size_t kExportHeaderBytes = 4 + 8;
constexpr std::size_t kExportRecordBytes = 16 + 4 + 4 + 2 + 1 + 1 + 8;

template <typename T>
void AppendRaw(std::vector<u8>& out, const T& v) {
  const auto* p = reinterpret_cast<const u8*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
bool ReadRaw(const u8*& p, const u8* end, T* v) {
  if (p + sizeof(T) > end) {
    return false;
  }
  std::memcpy(v, p, sizeof(T));
  p += sizeof(T);
  return true;
}

}  // namespace

void ConntrackBase::AppendExportHeader(std::vector<u8>& out) const {
  AppendRaw(out, static_cast<u32>(0));  // count, patched after the walk
  AppendRaw(out, nat_next_);
}

void ConntrackBase::AppendExportRecord(std::vector<u8>& out,
                                       const ebpf::FiveTuple& fwd, u32 value,
                                       u32 nat_ip, u16 nat_port, u8 state,
                                       u64 remaining_ns) const {
  AppendRaw(out, fwd);
  AppendRaw(out, value);
  AppendRaw(out, nat_ip);
  AppendRaw(out, nat_port);
  AppendRaw(out, state);
  AppendRaw(out, static_cast<u8>(0));
  AppendRaw(out, remaining_ns);
}

void ConntrackBase::PatchExportCount(std::vector<u8>& out, std::size_t count_at,
                                     u32 count) {
  std::memcpy(out.data() + count_at, &count, 4);
}

// ---------------------------------------------------------------------------
// ConntrackEbpf: scalar helpers against the LRU-map engine.
// ---------------------------------------------------------------------------

ConntrackEbpf::ConntrackEbpf(const ConntrackConfig& config)
    : ConntrackBase(config), table_(config.table) {}

ebpf::XdpAction ConntrackEbpf::Process(ebpf::XdpContext& ctx) {
  ebpf::FiveTuple key;
  if (!ebpf::ParseFiveTuple(ctx, &key)) {
    return ebpf::XdpAction::kAborted;
  }
  const u8 proto = key.protocol;
  const u8 flags = TcpFlagsOf(ctx);
  if (config_.mode == CtMode::kFilter) {
    return table_.Find(key, now_ns_) != nullptr ? ebpf::XdpAction::kPass
                                                : ebpf::XdpAction::kDrop;
  }
  CtFlowValue* v = table_.Find(key, now_ns_);
  if (v != nullptr) {
    ++hits_;
    FlowState next;
    if (NextFlowState(static_cast<FlowState>(v->state), v->dir, proto, flags,
                      &next)) {
      table_.Erase(key);
      ++torn_down_;
      return ebpf::XdpAction::kPass;
    }
    if (next != static_cast<FlowState>(v->state)) {
      table_.SetState(v, next, now_ns_);
    } else {
      table_.Refresh(v, now_ns_);
    }
    if (config_.mode == CtMode::kNat) {
      if (v->dir == 0) {
        RewriteForward(ctx, v->nat_ip, v->nat_port);
      } else {
        RewriteReverse(ctx, v->peer.src_ip, v->peer.src_port);
      }
    }
    return ebpf::XdpAction::kPass;
  }
  ++misses_;
  if (proto == kProtoTcp && (flags & kTcpRst)) {
    return ebpf::XdpAction::kPass;  // stray RST: never creates state
  }
  const FlowState st = InitialFlowState(proto, flags);
  NatBinding nb;
  ebpf::FiveTuple rev;
  if (config_.mode == CtMode::kNat) {
    nb = NextNatBinding();
    rev = NatReverseTuple(key, nb);
  } else {
    rev = FlowTable::ReverseTuple(key);
  }
  if (table_.Insert(key, rev, 0, st, now_ns_, nb.ip, nb.port) == nullptr) {
    ++dropped_;
    return ebpf::XdpAction::kDrop;
  }
  ++created_;
  if (config_.mode == CtMode::kNat) {
    RewriteForward(ctx, nb.ip, nb.port);
  }
  return ebpf::XdpAction::kPass;
}

bool ConntrackEbpf::ExportState(std::vector<u8>& out) const {
  const std::size_t count_at = out.size();
  AppendExportHeader(out);
  u32 count = 0;
  table_.ForEachForwardOldestFirst(
      [&](const ebpf::FiveTuple& key, const CtFlowValue& v) {
        if (v.expires_ns <= now_ns_) {
          return;  // dead entry awaiting lazy collection
        }
        AppendExportRecord(out, key, v.value, v.nat_ip, v.nat_port, v.state,
                           v.expires_ns - now_ns_);
        ++count;
      });
  PatchExportCount(out, count_at, count);
  return true;
}

bool ConntrackEbpf::ImportState(const u8* data, std::size_t len) {
  const u8* p = data;
  const u8* end = data + len;
  u32 count;
  u64 nat_next;
  if (!ReadRaw(p, end, &count) || !ReadRaw(p, end, &nat_next)) {
    return false;
  }
  if (static_cast<std::size_t>(end - p) < count * kExportRecordBytes) {
    return false;
  }
  nat_next_ = nat_next;
  for (u32 i = 0; i < count; ++i) {
    ebpf::FiveTuple fwd{};
    u32 value = 0;
    u32 nat_ip = 0;
    u16 nat_port = 0;
    u8 state = 0;
    u8 pad = 0;
    u64 remaining = 0;
    ReadRaw(p, end, &fwd);
    ReadRaw(p, end, &value);
    ReadRaw(p, end, &nat_ip);
    ReadRaw(p, end, &nat_port);
    ReadRaw(p, end, &state);
    ReadRaw(p, end, &pad);
    ReadRaw(p, end, &remaining);
    const ebpf::FiveTuple rev =
        nat_port != 0 ? NatReverseTuple(fwd, NatBinding{nat_ip, nat_port})
                      : FlowTable::ReverseTuple(fwd);
    CtFlowValue* v = table_.Insert(fwd, rev, value,
                                   static_cast<FlowState>(state), now_ns_,
                                   nat_ip, nat_port);
    if (v != nullptr) {
      v->expires_ns = now_ns_ + remaining;
      CtFlowValue* peer = table_.Find(rev, now_ns_);
      if (peer != nullptr) {
        peer->expires_ns = v->expires_ns;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// ConntrackEnetstl: batched paired lookups against the arena engine.
// ---------------------------------------------------------------------------

ConntrackEnetstl::ConntrackEnetstl(const ConntrackConfig& config)
    : ConntrackBase(config), table_(config.table) {}

u32 ConntrackEnetstl::AdvanceTo(u64 now_ns) {
  now_ns_ = now_ns;
  return table_.Advance(now_ns);
}

ebpf::XdpAction ConntrackEnetstl::HandleLookup(ebpf::XdpContext& ctx,
                                               const ebpf::FiveTuple& key,
                                               u8 proto, u8 tcp_flags,
                                               FlowEntry* entry, u8 dir,
                                               u32 handle) {
  if (entry != nullptr) {
    ++hits_;
    FlowState next;
    if (NextFlowState(entry->state, dir, proto, tcp_flags, &next)) {
      table_.EraseEntry(entry, handle);
      ++torn_down_;
      return ebpf::XdpAction::kPass;
    }
    if (next != entry->state) {
      table_.SetState(entry, handle, next, now_ns_);
    } else {
      table_.Refresh(entry, handle, now_ns_);
    }
    if (config_.mode == CtMode::kNat) {
      if (dir == 0) {
        RewriteForward(ctx, entry->nat_ip, entry->nat_port);
      } else {
        RewriteReverse(ctx, entry->key[0].src_ip, entry->key[0].src_port);
      }
    }
    return ebpf::XdpAction::kPass;
  }
  ++misses_;
  if (proto == kProtoTcp && (tcp_flags & kTcpRst)) {
    return ebpf::XdpAction::kPass;
  }
  const FlowState st = InitialFlowState(proto, tcp_flags);
  NatBinding nb;
  ebpf::FiveTuple rev;
  if (config_.mode == CtMode::kNat) {
    nb = NextNatBinding();
    rev = NatReverseTuple(key, nb);
  } else {
    rev = FlowTable::ReverseTuple(key);
  }
  u32 new_handle;
  if (table_.Insert(key, rev, 0, st, now_ns_, nb.ip, nb.port, &new_handle) ==
      nullptr) {
    ++dropped_;
    return ebpf::XdpAction::kDrop;
  }
  ++created_;
  if (config_.mode == CtMode::kNat) {
    RewriteForward(ctx, nb.ip, nb.port);
  }
  return ebpf::XdpAction::kPass;
}

ebpf::XdpAction ConntrackEnetstl::Process(ebpf::XdpContext& ctx) {
  ebpf::FiveTuple key;
  if (!ebpf::ParseFiveTuple(ctx, &key)) {
    return ebpf::XdpAction::kAborted;
  }
  if (config_.mode == CtMode::kFilter) {
    // Pure membership — exactly the decision LowerToKeyOp's batched op
    // reproduces, so the fused chain path stays bit-identical.
    u8 dir;
    return table_.FindConst(key, now_ns_, &dir) != nullptr
               ? ebpf::XdpAction::kPass
               : ebpf::XdpAction::kDrop;
  }
  u8 dir = 0;
  u32 handle = 0;
  FlowEntry* e = table_.Find(key, now_ns_, &dir, &handle);
  return HandleLookup(ctx, key, key.protocol, TcpFlagsOf(ctx), e, dir, handle);
}

void ConntrackEnetstl::ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                                    ebpf::XdpAction* verdicts) {
  ForEachNfChunk(count, [&](u32 start, u32 chunk) {
    ebpf::FiveTuple keys[kMaxNfBurst];
    bool parsed[kMaxNfBurst];
    FlowTable::Lookup looks[kMaxNfBurst];
    for (u32 i = 0; i < chunk; ++i) {
      parsed[i] = ebpf::ParseFiveTuple(ctxs[start + i], &keys[i]);
      if (!parsed[i]) {
        keys[i] = ebpf::FiveTuple{};  // probed anyway; FindBatch is pure
      }
    }
    table_.FindBatch(keys, chunk, now_ns_, looks);
    if (config_.mode == CtMode::kFilter) {
      for (u32 i = 0; i < chunk; ++i) {
        verdicts[start + i] = !parsed[i] ? ebpf::XdpAction::kAborted
                              : looks[i].kind == FlowTable::Lookup::kHit
                                  ? ebpf::XdpAction::kPass
                                  : ebpf::XdpAction::kDrop;
      }
      return;
    }
    // Consume the batch. Cached results stay valid only while no packet has
    // structurally mutated the table (insert / teardown / lazy free); after
    // that — and for expired hits, which the scalar path lazily frees — the
    // packet re-probes through Find, keeping verdicts AND rewrites
    // bit-identical to scalar Process.
    const u64 epoch = table_.mutation_epoch();
    for (u32 i = 0; i < chunk; ++i) {
      if (!parsed[i]) {
        verdicts[start + i] = ebpf::XdpAction::kAborted;
        continue;
      }
      FlowEntry* e = nullptr;
      u8 dir = 0;
      u32 handle = FlowTable::kNullRef;
      const bool fresh = table_.mutation_epoch() == epoch;
      if (fresh && looks[i].kind == FlowTable::Lookup::kHit) {
        e = looks[i].entry;
        dir = looks[i].dir;
        handle = looks[i].handle;
      } else if (!fresh || looks[i].kind == FlowTable::Lookup::kExpired) {
        e = table_.Find(keys[i], now_ns_, &dir, &handle);
      }
      verdicts[start + i] =
          HandleLookup(ctxs[start + i], keys[i], keys[i].protocol,
                       TcpFlagsOf(ctxs[start + i]), e, dir, handle);
    }
  });
}

std::optional<FusedKeyOp> ConntrackEnetstl::LowerToKeyOp() {
  if (config_.mode != CtMode::kFilter) {
    // Track/NAT mutate state and rewrite headers — not a membership stage.
    return std::nullopt;
  }
  FusedKeyOp op;
  op.contains = [this](const ebpf::FiveTuple* keys, u32 n, bool* out) {
    FlowTable::Lookup looks[kMaxNfBurst];
    table_.FindBatch(keys, n, now_ns_, looks);
    for (u32 i = 0; i < n; ++i) {
      out[i] = looks[i].kind == FlowTable::Lookup::kHit;
    }
  };
  return op;
}

bool ConntrackEnetstl::ExportState(std::vector<u8>& out) const {
  const std::size_t count_at = out.size();
  AppendExportHeader(out);
  u32 count = 0;
  table_.ForEachLruOldestFirst([&](const FlowEntry& e) {
    if (e.expires_ns <= now_ns_) {
      return;
    }
    AppendExportRecord(out, e.key[0], e.value, e.nat_ip, e.nat_port,
                       static_cast<u8>(e.state), e.expires_ns - now_ns_);
    ++count;
  });
  PatchExportCount(out, count_at, count);
  return true;
}

bool ConntrackEnetstl::ImportState(const u8* data, std::size_t len) {
  const u8* p = data;
  const u8* end = data + len;
  u32 count;
  u64 nat_next;
  if (!ReadRaw(p, end, &count) || !ReadRaw(p, end, &nat_next)) {
    return false;
  }
  if (static_cast<std::size_t>(end - p) < count * kExportRecordBytes) {
    return false;
  }
  nat_next_ = nat_next;
  for (u32 i = 0; i < count; ++i) {
    ebpf::FiveTuple fwd{};
    u32 value = 0;
    u32 nat_ip = 0;
    u16 nat_port = 0;
    u8 state = 0;
    u8 pad = 0;
    u64 remaining = 0;
    ReadRaw(p, end, &fwd);
    ReadRaw(p, end, &value);
    ReadRaw(p, end, &nat_ip);
    ReadRaw(p, end, &nat_port);
    ReadRaw(p, end, &state);
    ReadRaw(p, end, &pad);
    ReadRaw(p, end, &remaining);
    const ebpf::FiveTuple rev =
        nat_port != 0 ? NatReverseTuple(fwd, NatBinding{nat_ip, nat_port})
                      : FlowTable::ReverseTuple(fwd);
    u32 handle = 0;
    FlowEntry* e = table_.Insert(fwd, rev, value,
                                 static_cast<FlowState>(state), now_ns_,
                                 nat_ip, nat_port, &handle);
    if (e != nullptr) {
      // Restore the exact remaining lifetime. Records arrive oldest touch
      // first, so each class list stays sorted by expiry.
      e->expires_ns = now_ns_ + remaining;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Registry entries.
// ---------------------------------------------------------------------------

namespace builtin {

namespace {

std::unique_ptr<NetworkFunction> MakeConntrack(Variant v, CtMode mode) {
  ConntrackConfig config;
  config.mode = mode;
  config.table.max_flows = 65536;
  switch (v) {
    case Variant::kEbpf:
      return std::make_unique<ConntrackEbpf>(config);
    case Variant::kEnetstl:
      return std::make_unique<ConntrackEnetstl>(config);
    case Variant::kKernel:
      break;  // two-engine family: LRU-map model vs arena engine
  }
  return nullptr;
}

}  // namespace

void RegisterConntrack(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "conntrack";
  entry.category = "stateful";
  entry.variants = {Variant::kEbpf, Variant::kEnetstl};
  entry.caps.batched = true;
  // No prime recipe: conntrack sits outside the figure-4/5 roster (the
  // roster derives from prime presence); bench_conntrack drives it directly.
  entry.factory = [](Variant v) { return MakeConntrack(v, CtMode::kTrack); };
  registry.Register(std::move(entry));
}

void RegisterNat(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "nat";
  entry.category = "stateful";
  entry.variants = {Variant::kEbpf, Variant::kEnetstl};
  entry.caps.batched = true;
  entry.factory = [](Variant v) { return MakeConntrack(v, CtMode::kNat); };
  registry.Register(std::move(entry));
}

}  // namespace builtin

}  // namespace nf
