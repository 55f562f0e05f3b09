// Stateful connection tracking + NAT — the first-class NF family behind the
// production-LB story (ROADMAP item 1; the paper's Katran integration case).
//
// Two table engines implement one flow-table concept:
//
//  * FlowTable     — the eNetSTL engine: one arena slot per flow
//                    (core/arena SlabArena, 32-bit handles stored
//                    intrusively), indexed under BOTH the forward and the
//                    reverse 5-tuple through per-direction tagged chain links
//                    (the nf_conntrack tuplehash idiom: bit 31 of a chain
//                    reference selects which of the entry's two tuples the
//                    link belongs to). Paired commit: both index heads are
//                    written only after the entry is fully initialized, so a
//                    flow is observable under both tuples or neither.
//                    Aging keeps one intrusive LRU list per timeout class
//                    (NEW, ESTABLISHED, FIN_WAIT, UDP idle). Within a class
//                    a flow expires at its last touch plus the class
//                    timeout, so a list that moves a flow to the front on
//                    every touch is sorted by expiry: the sweep pops due
//                    tails and stops at the first live one, with no
//                    per-flow timer. Lookup expires lazily too, and arena
//                    exhaustion (-ENOSPC) reclaims a due class tail before
//                    it evicts the least-recently-touched live flow (the
//                    BPF LRU-map degradation, but pair-consistent), so
//                    verdicts never depend on sweep cadence.
//
//  * LruFlowTable  — the eBPF-model engine: both directions live as separate
//                    entries of one BPF LRU hash map, every refresh pays a
//                    second helper call to keep the pair's expiry in sync,
//                    and map eviction can strand one direction of a pair (an
//                    "orphan" — exactly the inconsistency the arena engine
//                    removes by construction).
//
// The Conntrack NF wraps either engine behind three modes:
//   kTrack  — create-on-miss flow tracker (TCP-ish state machine: NEW ->
//             ESTABLISHED on reply, FIN -> short timeout, RST -> immediate
//             teardown; UDP idle class), passes everything it can parse.
//   kFilter — established-only membership filter: pure lookup, no mutation;
//             the one mode that lowers to a FusedKeyOp (batched
//             LookupPairBatch with cross-packet prefetch) for chain fusion.
//   kNat    — kTrack plus SNAT header rewrite: the reverse tuple is the
//             POST-translation reply tuple (netfilter's reply-tuple rule),
//             so replies match the pair entry and are rewritten back.
#ifndef ENETSTL_NF_CONNTRACK_H_
#define ENETSTL_NF_CONNTRACK_H_

#include <memory>
#include <vector>

#include "core/arena.h"
#include "ebpf/maps.h"
#include "ebpf/verifier.h"
#include "nf/nf_interface.h"

namespace nf {

enum class FlowState : u8 {
  kNew = 0,          // first packet seen, no reply yet (TCP)
  kEstablished = 1,  // reply direction seen (TCP)
  kFinWait = 2,      // FIN observed: short teardown timeout (TCP)
  kUdpIdle = 3,      // non-TCP: single idle-timeout class
};

// One timeout class (and one LRU list) per flow state.
inline constexpr u32 kFlowClasses = 4;

struct FlowTableConfig {
  u32 max_flows = 65536;
  u32 seed = 0x7a3c9b1du;
  // Timeout classes (virtual nanoseconds); the state machine picks one per
  // flow state. Any value works: each class keeps its own expiry-sorted list.
  u64 new_timeout_ns = 1ull << 28;
  u64 established_timeout_ns = 1ull << 33;
  u64 fin_timeout_ns = 1ull << 27;
  u64 udp_timeout_ns = 1ull << 30;
  // Sweep step: Advance moves the sweep clock in whole steps and frees the
  // flows due at it.
  u64 wheel_granularity_ns = 1ull << 20;
};

// One tracked flow in the arena engine. key[0] is the forward (initiator)
// tuple, key[1] the reverse/reply tuple; next[d] chains the entry under
// key[d]'s index bucket; lru_prev/lru_next link it into its state's class
// list. 68 payload bytes -> one 128-byte arena slot. A conntrack or NAT hit
// touches only the first 64 bytes: `state` selects the class list whose
// head a refresh rewrites, so it must not wait on a second cache line.
struct FlowEntry {
  ebpf::FiveTuple key[2];
  u32 next[2];  // tagged chain links (bit 31 = direction of the next node)
  u32 lru_prev;
  u32 lru_next;
  u64 expires_ns;
  u32 nat_ip;
  u16 nat_port;
  FlowState state;
  u8 flags;
  u32 value;  // caller payload (katran: backend id)
};

u64 CtTimeoutFor(const FlowTableConfig& config, FlowState state);

// Arena-backed paired flow table (the eNetSTL engine).
class FlowTable {
 public:
  static constexpr u32 kNullRef = 0xffffffffu;
  static constexpr u32 kHandleMask = 0x7fffffffu;

  struct Stats {
    u64 inserts = 0;
    u64 lru_evictions = 0;      // live flows evicted by -ENOSPC reclaim
    u64 timeout_evictions = 0;  // due flows freed by the sweep or reclaim
    u64 expired_lazy = 0;       // due flows freed on lookup
    u64 insert_failures = 0;    // exhaustion beyond the LRU fallback
  };

  struct Lookup {
    enum Kind : u8 { kMiss = 0, kHit = 1, kExpired = 2 };
    Kind kind = kMiss;
    u8 dir = 0;
    u32 handle = kNullRef;
    FlowEntry* entry = nullptr;
  };

  explicit FlowTable(const FlowTableConfig& config);

  // Lookup under either tuple. Lazily frees a matching-but-due entry
  // (counted in stats().expired_lazy) and reports a miss, so verdicts are
  // independent of sweep cadence.
  FlowEntry* Find(const ebpf::FiveTuple& key, u64 now_ns, u8* dir,
                  u32* handle);

  // Pure probe for the filter mode / fused key op: no mutation, no expiry
  // collection; a due entry reports as absent.
  const FlowEntry* FindConst(const ebpf::FiveTuple& key, u64 now_ns,
                             u8* dir) const;

  // Batched two-stage paired lookup (LookupPairBatch): stage 1 hashes every
  // key and prefetches its index bucket through one kfunc boundary, stage 2
  // prefetches the first chain entry per key, stage 3 confirms. Pure — due
  // entries come back as kExpired for the caller to collect through Find.
  // n is at most kMaxNfBurst.
  void FindBatch(const ebpf::FiveTuple* keys, u32 n, u64 now_ns, Lookup* out);

  // Creates a flow with the given tuple pair. Both index insertions commit
  // together after the entry is initialized. Arena exhaustion reclaims one
  // flow and retries once: a due class tail if there is one (what a sweep at
  // now_ns would free), else the live class tail touched longest ago
  // (stats().lru_evictions). Returns nullptr only when that also fails.
  // Fault point "conntrack.insert" forces the exhaustion path. The handle of
  // the new entry is written to *handle.
  FlowEntry* Insert(const ebpf::FiveTuple& fwd, const ebpf::FiveTuple& rev,
                    u32 value, FlowState state, u64 now_ns, u32 nat_ip,
                    u16 nat_port, u32* handle);

  // Tears down the flow owning `key` (either direction).
  bool Erase(const ebpf::FiveTuple& key);
  // Same, when the caller already holds the entry (RST fast path).
  void EraseEntry(FlowEntry* entry, u32 handle);

  // Extends the flow's expiry by its state's timeout class and moves it to
  // the front of that class's list. O(1).
  void Refresh(FlowEntry* entry, u32 handle, u64 now_ns);
  // Moves the flow to the front of its new state's class list, expiring one
  // class timeout from now_ns.
  void SetState(FlowEntry* entry, u32 handle, FlowState state, u64 now_ns);

  // Moves the sweep clock to `until_ns` rounded down to a whole sweep step
  // and frees every flow due at it: pops each class list's due tails and
  // stops at its first live one. Returns flows evicted.
  u32 Advance(u64 until_ns);

  // Releases every live flow (index, LRU, arena slot).
  void Clear();

  // Bumped on every structural change (insert / erase / lazy expiry / sweep
  // eviction). Batched callers use it to validate cached FindBatch results.
  u64 mutation_epoch() const { return mutation_epoch_; }

  u32 live_flows() const { return arena_.live_slots(); }
  u64 clock_ns() const { return clock_ns_; }
  const Stats& stats() const { return stats_; }
  const FlowTableConfig& config() const { return config_; }

  // Walks every flow oldest last touch first, merging the class lists (ties
  // inside one touch time go by class, NEW first). This is the export order
  // and the order reclaim takes live flows in, so replaying inserts in walk
  // order reproduces eviction order.
  template <typename Fn>
  void ForEachLruOldestFirst(Fn&& fn) const {
    const FlowEntry* at[kFlowClasses];
    for (u32 c = 0; c < kFlowClasses; ++c) {
      at[c] = EntryOrNull(lru_tail_[c]);
    }
    while (true) {
      const FlowEntry* oldest = nullptr;
      for (u32 c = 0; c < kFlowClasses; ++c) {
        if (at[c] != nullptr &&
            (oldest == nullptr || TouchedBefore(*at[c], *oldest))) {
          oldest = at[c];
        }
      }
      if (oldest == nullptr) {
        return;
      }
      at[static_cast<u32>(oldest->state)] = EntryOrNull(oldest->lru_prev);
      fn(*oldest);
    }
  }

  // Shard-ownership probe passthrough (scale-out rule: no datapath flow
  // operation crosses a shard boundary).
  void BindOwner(u32 cpu) { arena_.BindOwner(cpu); }
  u64 cross_shard_ops() const { return arena_.cross_shard_ops(); }

  // Optional acquire/release accounting for leak tests: every live flow slot
  // is acquired under resource class "conntrack.flow".
  void SetLeakChecker(ebpf::RefLeakChecker* checker) { leak_ = checker; }

  static ebpf::FiveTuple ReverseTuple(const ebpf::FiveTuple& t);

 private:
  u32 BucketOf(const ebpf::FiveTuple& key) const;
  FlowEntry* FindRaw(const ebpf::FiveTuple& key, u8* dir, u32* handle) const;
  void LinkIndex(u32 handle, FlowEntry* entry, u8 dir);
  void UnlinkIndex(u32 handle, FlowEntry* entry, u8 dir);
  void LruPushFront(u32 handle, FlowEntry* entry, u32 cls);
  void LruUnlink(FlowEntry* entry, u32 cls);
  void Release(FlowEntry* entry, u32 handle);
  bool Reclaim(u64 now_ns);

  const FlowEntry* EntryOrNull(u32 handle) const {
    return handle == kNullRef
               ? nullptr
               : static_cast<const FlowEntry*>(arena_.Deref(handle));
  }
  // Last touch is expires_ns minus the class timeout; compared by adding
  // the other flow's timeout to each side, so no subtraction can wrap.
  bool TouchedBefore(const FlowEntry& a, const FlowEntry& b) const {
    const u64 ta = a.expires_ns + timeout_ns_[static_cast<u32>(b.state)];
    const u64 tb = b.expires_ns + timeout_ns_[static_cast<u32>(a.state)];
    return ta < tb || (ta == tb && a.state < b.state);
  }

  FlowTableConfig config_;
  enetstl::SlabArena arena_;
  std::vector<u32> buckets_;  // tagged refs: bit 31 = direction, rest handle
  u32 bucket_mask_ = 0;
  u64 timeout_ns_[kFlowClasses];
  // Per-class LRU lists, indexed by FlowState: head most recent, tail oldest
  // (and therefore earliest expiry).
  u32 lru_head_[kFlowClasses];
  u32 lru_tail_[kFlowClasses];
  u64 clock_ns_ = 0;  // sweep clock, a whole number of sweep steps
  u64 mutation_epoch_ = 0;
  Stats stats_;
  ebpf::RefLeakChecker* leak_ = nullptr;
};

// Per-direction value of the eBPF-model engine: one BPF LRU map entry per
// tuple direction, carrying its peer so teardown / expiry can (try to)
// collect the pair.
struct CtFlowValue {
  ebpf::FiveTuple peer;
  u64 expires_ns = 0;
  u32 value = 0;
  u32 nat_ip = 0;
  u16 nat_port = 0;
  u8 state = 0;  // FlowState
  u8 dir = 0;
};

// BPF-LRU-map flow table (the eBPF-model engine). Scalar helpers only; the
// pair lives as two independent map entries, so every refresh/state change
// pays extra helper calls and LRU eviction can orphan one direction.
class LruFlowTable {
 public:
  explicit LruFlowTable(const FlowTableConfig& config);

  // Lookup with lazy expiry: a due entry deletes itself and its peer (two
  // helper calls) and reports a miss.
  CtFlowValue* Find(const ebpf::FiveTuple& key, u64 now_ns);
  CtFlowValue* Insert(const ebpf::FiveTuple& fwd, const ebpf::FiveTuple& rev,
                      u32 value, FlowState state, u64 now_ns, u32 nat_ip,
                      u16 nat_port);
  bool Erase(const ebpf::FiveTuple& key);
  void Refresh(CtFlowValue* v, u64 now_ns);
  void SetState(CtFlowValue* v, FlowState state, u64 now_ns);

  // Oldest-first walk over FORWARD entries only (the export order).
  template <typename Fn>
  void ForEachForwardOldestFirst(Fn&& fn) const {
    map_.ForEach([&](const ebpf::FiveTuple& key, const CtFlowValue& v) {
      if (v.dir == 0) {
        fn(key, v);
      }
    });
  }

  u32 live_entries() const { return map_.size(); }  // 2 per healthy pair
  u64 expired_lazy() const { return expired_lazy_; }
  const FlowTableConfig& config() const { return config_; }

 private:
  FlowTableConfig config_;
  ebpf::LruHashMap<ebpf::FiveTuple, CtFlowValue> map_;
  u64 expired_lazy_ = 0;
};

enum class CtMode : u8 {
  kTrack = 0,
  kFilter = 1,
  kNat = 2,
};

struct ConntrackConfig {
  CtMode mode = CtMode::kTrack;
  FlowTableConfig table;
  // SNAT pool (kNat): bindings are allocated from a deterministic counter —
  // ip = base + (k / port_span) % pool_size, port = port_base + k % span —
  // so bindings are collision-free until pool_size * port_span flows.
  u32 nat_ip_base = 0x0a630001u;  // 10.99.0.1
  u32 nat_pool_size = 256;
  u32 nat_port_base = 1024;
  u32 nat_port_span = 60000;
};

// TCP flag bits at kL4HeaderOffset + 13 (standard TCP header offset; the
// 64-byte frames carry them in payload word 1, byte 1).
inline constexpr u8 kTcpFin = 0x01;
inline constexpr u8 kTcpSyn = 0x02;
inline constexpr u8 kTcpRst = 0x04;
inline constexpr u8 kTcpAck = 0x10;
inline constexpr u8 kProtoTcp = 6;

class ConntrackBase : public NetworkFunction {
 public:
  explicit ConntrackBase(const ConntrackConfig& config) : config_(config) {}

  std::string_view name() const override {
    return config_.mode == CtMode::kNat ? "nat" : "conntrack";
  }
  const ConntrackConfig& config() const { return config_; }

  // Virtual clock driving timeouts; the datapath never reads wall time.
  void SetNow(u64 now_ns) { now_ns_ = now_ns; }
  u64 now_ns() const { return now_ns_; }
  // Advances the clock; the eNetSTL variant also sweeps its table, freeing
  // every flow due at the new time (rounded down to a sweep step). Returns
  // flows evicted.
  virtual u32 AdvanceTo(u64 now_ns) {
    now_ns_ = now_ns;
    return 0;
  }

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 created() const { return created_; }
  u64 torn_down() const { return torn_down_; }
  u64 dropped() const { return dropped_; }

 protected:
  struct NatBinding {
    u32 ip = 0;
    u16 port = 0;
  };

  static u8 TcpFlagsOf(const ebpf::XdpContext& ctx);
  // RST tears the flow down (returns true); otherwise *next is the successor
  // state: NEW -> ESTABLISHED on a reply-direction packet, FIN -> kFinWait.
  static bool NextFlowState(FlowState cur, u8 dir, u8 proto, u8 tcp_flags,
                            FlowState* next);
  static FlowState InitialFlowState(u8 proto, u8 tcp_flags);
  NatBinding NextNatBinding();
  static ebpf::FiveTuple NatReverseTuple(const ebpf::FiveTuple& fwd,
                                         const NatBinding& b);
  static void RewriteForward(ebpf::XdpContext& ctx, u32 nat_ip, u16 nat_port);
  static void RewriteReverse(ebpf::XdpContext& ctx, u32 orig_src_ip,
                             u16 orig_src_port);

  // Family-owned state-transfer blob helpers (shared across engines).
  void AppendExportHeader(std::vector<u8>& out) const;
  void AppendExportRecord(std::vector<u8>& out, const ebpf::FiveTuple& fwd,
                          u32 value, u32 nat_ip, u16 nat_port, u8 state,
                          u64 remaining_ns) const;
  static void PatchExportCount(std::vector<u8>& out, std::size_t count_at,
                               u32 count);

  ConntrackConfig config_;
  u64 now_ns_ = 0;
  u64 nat_next_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 created_ = 0;
  u64 torn_down_ = 0;
  u64 dropped_ = 0;
};

class ConntrackEbpf : public ConntrackBase {
 public:
  explicit ConntrackEbpf(const ConntrackConfig& config);
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;
  Variant variant() const override { return Variant::kEbpf; }
  bool ExportState(std::vector<u8>& out) const override;
  bool ImportState(const u8* data, std::size_t len) override;
  LruFlowTable& table() { return table_; }

 private:
  LruFlowTable table_;
};

class ConntrackEnetstl : public ConntrackBase {
 public:
  explicit ConntrackEnetstl(const ConntrackConfig& config);
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;
  // Batched path: one LookupPairBatch over the chunk, then per-packet
  // consumption that trusts cached results only while the table's mutation
  // epoch is unchanged (in-burst creations/teardowns re-probe scalar), so
  // verdicts AND rewrites are bit-identical to per-packet Process.
  void ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts) override;
  // kFilter only: pure batched membership over the paired index.
  std::optional<FusedKeyOp> LowerToKeyOp() override;
  Variant variant() const override { return Variant::kEnetstl; }
  u32 AdvanceTo(u64 now_ns) override;
  bool ExportState(std::vector<u8>& out) const override;
  bool ImportState(const u8* data, std::size_t len) override;
  FlowTable& table() { return table_; }

 private:
  ebpf::XdpAction HandleLookup(ebpf::XdpContext& ctx,
                               const ebpf::FiveTuple& key, u8 proto,
                               u8 tcp_flags, FlowEntry* entry, u8 dir,
                               u32 handle);

  FlowTable table_;
};

// Registry entries ("conntrack" = kTrack, "nat" = kNat) are declared in
// nf_registry.h with the rest of the builtin set.

}  // namespace nf

#endif  // ENETSTL_NF_CONNTRACK_H_
