#include "simmpi/executor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

/// Record of a pending nonblocking or rendezvous operation.
struct Rec {
  double post_us = 0.0;
  double complete_us = -1.0;  // < 0: pending
  std::int32_t owner = -1;
  std::int32_t slot = -1;  // index in the owner's outstanding list
  std::int32_t next = -1;  // intrusive link in a posted-receive FIFO
  std::uint32_t bytes = 0;

  bool complete() const { return complete_us >= 0.0; }
};
static_assert(sizeof(Rec) == 32, "Rec is on the DES hot path");

/// A send announced at a receiver before the matching receive was posted.
struct UnexpectedMsg {
  double arrival_us = 0.0;     // eager only: wire arrival time
  std::int32_t send_rec = -1;  // rendezvous only: the sender's record
  std::uint32_t bytes = 0;
  std::int32_t next = -1;      // intrusive FIFO link
};

/// Data-tracking side data of a record, kept out of Rec so that runs
/// without a DataStore (dataset generation) never touch it.
struct TrackedRec {
  std::vector<Block> payload;  // rendezvous send: snapshot at post time
  std::uint32_t block_begin = 0;  // posted receive: destination region
  std::uint32_t block_count = 0;
  std::uint8_t flags = kNone;
};

/// Intrusive FIFO of pool indices.
struct Fifo {
  std::int32_t head = -1;
  std::int32_t tail = -1;
  bool empty() const { return head < 0; }
};

/// Matching key (dst, src, tag): receiver and sender in 24 bits each,
/// the tag in the low 16.
constexpr int kRankBits = 24;

std::uint64_t match_key(int dst, int src, std::uint16_t tag) {
  return (static_cast<std::uint64_t>(dst) << 40) |
         (static_cast<std::uint64_t>(src) << 16) | tag;
}

/// Open-addressing hash table (linear probing) from a matching key to
/// its two FIFOs: messages that arrived before their receive, and
/// receives posted before their message. One table serves every rank of
/// a run. Entries are never erased within a run, because an empty FIFO
/// already means "absent". An entry is live only if it carries the
/// current run's epoch, so clearing the table between runs is O(1).
class MatchTable {
 public:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;  // 0 is never a live epoch
    Fifo unexpected;
    Fifo recvs;
  };

  /// Forget every entry; keep the capacity.
  void clear() {
    size_ = 0;
    if (slots_.empty()) {
      resize(kMinSlots);
    } else if (++epoch_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

  /// The entry of `key`, created empty if the run has not used it yet.
  Slot& at(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch == epoch_) {
        if (s.key == key) return s;
        continue;
      }
      if (2 * (size_ + 1) > slots_.size()) {  // keep the load <= 1/2
        resize(2 * slots_.size());
        return at(key);
      }
      s = Slot{key, epoch_, {}, {}};
      ++size_;
      return s;
    }
  }

 private:
  static constexpr std::size_t kMinSlots = 256;

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  /// Rehash the live entries into `slots` fresh slots (a power of two).
  void resize(std::size_t slots) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
    shift_ = 64 - std::countr_zero(slots);
    const std::size_t mask = slots - 1;
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      std::size_t i = home(s.key);
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  int shift_ = 64;
  std::size_t size_ = 0;
};

/// The pending events (time, rank) of a run, ordered by one 128-bit key:
/// the bits of the time above the rank. Event times are finite and
/// non-negative, so their IEEE bit patterns order like their values.
///
/// A rank sits in the queue at most once: it is pushed when it yields
/// (the horizon) or when its blocking condition clears, and a queued
/// rank is neither blocked nor able to yield again before it is popped.
/// (time, rank) is therefore a strict total order over the queue, and
/// any exact priority queue pops in the same order as this one.
///
/// Up to kSortedRanks ranks the queue is a sorted array: a pop takes the
/// front, and a push walks from the back past the later keys, which on
/// the reproduce set-up sweep are 4.7 on average (over a third of the
/// pushes are the latest key). Beyond that the walk grows with the
/// queue (106 keys on average at 1 152 ranks), so larger runs use a
/// binary heap.
class EventQueue {
 public:
  __extension__ typedef unsigned __int128 Key;

  struct Event {
    double time;
    int rank;
  };

  /// Empty the queue for a run of `ranks` ranks.
  void reset(std::size_t ranks) {
    keys_.clear();
    head_ = 0;
    sorted_ = ranks <= kSortedRanks;
  }

  bool empty() const { return head_ == keys_.size(); }

  void push(double t, int rank) {
    MPICP_ASSERT(t >= 0.0 && t <= std::numeric_limits<double>::max(),
                 "event time must be finite and non-negative");
    t += 0.0;  // -0.0 -> +0.0, so equal times have equal bits
    const Key key = (static_cast<Key>(std::bit_cast<std::uint64_t>(t))
                     << 32) |
                    static_cast<std::uint32_t>(rank);
    std::size_t hole = keys_.size();
    keys_.push_back(key);
    if (sorted_) {
      for (; hole > head_ && key < keys_[hole - 1]; --hole) {
        keys_[hole] = keys_[hole - 1];
      }
      keys_[hole] = key;
    } else {
      sift_up(hole, key);
    }
  }

  /// Remove the earliest event.
  Event pop() { return event_of(sorted_ ? pop_front() : pop_root()); }

 private:
  static constexpr std::size_t kSortedRanks = 64;

  static Event event_of(Key key) {
    return {std::bit_cast<double>(static_cast<std::uint64_t>(key >> 32)),
            static_cast<int>(static_cast<std::uint32_t>(key))};
  }

  /// The front of the sorted array. The consumed prefix is dropped once
  /// it outgrows the queue, which keeps the array within twice the rank
  /// count at O(1) amortized cost.
  Key pop_front() {
    const Key top = keys_[head_++];
    if (head_ > kSortedRanks) {
      keys_.erase(keys_.begin(),
                  keys_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return top;
  }

  /// Floyd's heap pop: walk the hole at the root down along the smaller
  /// child to a leaf, then sift the last key up from there (it usually
  /// belongs near the bottom).
  Key pop_root() {
    const Key top = keys_.front();
    const std::size_t n = keys_.size() - 1;  // the size after the pop
    const Key last = keys_[n];
    // The vacated last slot becomes a sentinel that is never the smaller
    // child, so the walk needs no bound check and selects the child
    // without a branch (the comparison is a coin flip).
    keys_[n] = ~Key{0};
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      child += keys_[child + 1] < keys_[child];
      keys_[hole] = keys_[child];
      hole = child;
    }
    keys_.pop_back();
    if (n > 0) sift_up(hole, last);
    return top;
  }

  void sift_up(std::size_t hole, Key key) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(key < keys_[parent])) break;
      keys_[hole] = keys_[parent];
      hole = parent;
    }
    keys_[hole] = key;
  }

  // Sorted: [head_, size) ascending. Heap: a binary min-heap, head_ 0.
  std::vector<Key> keys_;
  std::size_t head_ = 0;
  bool sorted_ = true;
};

struct RankState {
  std::size_t pc = 0;
  double time = 0.0;
  // Outstanding nonblocking requests. Slots consumed early by kWaitOne
  // are tombstoned (-1); kWaitAll sweeps and clears the list.
  std::vector<std::int32_t> outstanding;
  // Outstanding receives in posting order, for kWaitOne: a queue whose
  // front is recv_order[recv_head].
  std::vector<std::int32_t> recv_order;
  std::size_t recv_head = 0;
  int pending = 0;             // outstanding requests not yet complete
  double outstanding_max = 0;  // latest completion among outstanding
  std::int32_t blocked_rec = -1;
  bool in_waitall = false;
  bool finished = false;

  bool blocked() const { return blocked_rec >= 0 || in_waitall; }
  bool recv_order_empty() const { return recv_head == recv_order.size(); }

  std::int32_t pop_recv_order() {
    const std::int32_t idx = recv_order[recv_head++];
    if (recv_order_empty()) clear_recv_order();
    return idx;
  }
  void clear_recv_order() {
    recv_order.clear();
    recv_head = 0;
  }

  /// Back to the start of a run; the vectors keep their capacity.
  void reset() {
    pc = 0;
    time = 0.0;
    outstanding.clear();
    clear_recv_order();
    pending = 0;
    outstanding_max = 0.0;
    blocked_rec = -1;
    in_waitall = false;
    finished = false;
  }
};

}  // namespace

/// The run state of an Executor, reused across its runs.
class Executor::Engine {
 public:
  explicit Engine(Network& net) : net_(net) {}

  ExecResult run(const ProgramSet& programs, DataStore* store) {
    reset(programs, store);
    for (int r = 0; r < num_ranks(); ++r) queue_.push(0.0, r);
    while (!queue_.empty()) {
      const auto [t, r] = queue_.pop();
      wake(r, t);
      advance(r, t + kHorizonUs);
    }
    ExecResult result;
    result.finish_us.resize(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (!ranks_[r].finished) report_deadlock();
      result.finish_us[r] = ranks_[r].time;
      result.makespan_us = std::max(result.makespan_us, ranks_[r].time);
    }
    result.num_messages = num_messages_;
    return result;
  }

 private:
  int num_ranks() const { return static_cast<int>(programs_->size()); }

  /// Start a run from a clean state, whatever the previous run left
  /// behind (it may have thrown half-way).
  void reset(const ProgramSet& programs, DataStore* store) {
    MPICP_REQUIRE(programs.size() < (std::size_t{1} << kRankBits),
                  "too many ranks for the match key");
    programs_ = &programs;
    store_ = store;
    ranks_.resize(programs.size());
    for (RankState& st : ranks_) st.reset();
    match_.clear();
    queue_.reset(programs.size());
    recs_.clear();
    free_recs_.clear();
    upool_.clear();
    ufree_.clear();
    rec_track_.clear();
    msg_payload_.clear();
    num_messages_ = 0;
  }

  // ---- record pool -------------------------------------------------
  std::int32_t alloc_rec() {
    std::int32_t idx;
    if (!free_recs_.empty()) {
      idx = free_recs_.back();
      free_recs_.pop_back();
      recs_[idx] = Rec{};
    } else {
      idx = static_cast<std::int32_t>(recs_.size());
      recs_.emplace_back();
    }
    if (store_ != nullptr) {
      rec_track_.resize(recs_.size());
      rec_track_[idx] = TrackedRec{};
    }
    return idx;
  }

  void free_rec(std::int32_t idx) { free_recs_.push_back(idx); }

  // ---- match FIFO plumbing -------------------------------------------
  std::int32_t alloc_unexpected() {
    std::int32_t idx;
    if (!ufree_.empty()) {
      idx = ufree_.back();
      ufree_.pop_back();
      upool_[idx] = UnexpectedMsg{};
    } else {
      idx = static_cast<std::int32_t>(upool_.size());
      upool_.emplace_back();
    }
    if (store_ != nullptr) {
      msg_payload_.resize(upool_.size());
      msg_payload_[idx].clear();
    }
    return idx;
  }

  void free_unexpected(std::int32_t idx) { ufree_.push_back(idx); }

  void push_unexpected(Fifo& f, std::int32_t idx) {
    upool_[idx].next = -1;
    if (f.tail >= 0) {
      upool_[f.tail].next = idx;
    } else {
      f.head = idx;
    }
    f.tail = idx;
  }

  std::int32_t pop_unexpected(Fifo& f) {
    const std::int32_t idx = f.head;
    f.head = upool_[idx].next;
    if (f.head < 0) f.tail = -1;
    return idx;
  }

  void push_recv(Fifo& f, std::int32_t rec_idx) {
    recs_[rec_idx].next = -1;
    if (f.tail >= 0) {
      recs_[f.tail].next = rec_idx;
    } else {
      f.head = rec_idx;
    }
    f.tail = rec_idx;
  }

  std::int32_t pop_recv(Fifo& f) {
    const std::int32_t idx = f.head;
    f.head = recs_[idx].next;
    if (f.head < 0) f.tail = -1;
    return idx;
  }

  static void check_match(std::uint32_t send_bytes,
                          std::uint32_t recv_bytes) {
    MPICP_ASSERT(send_bytes == recv_bytes,
                 "matched send and receive disagree on the byte count "
                 "(algorithm builder bug)");
  }

  // ---- wake/blocking machinery --------------------------------------

  /// Register a freshly posted nonblocking request with its owner.
  void add_outstanding(RankState& st, std::int32_t rec_idx, bool is_recv) {
    Rec& rec = recs_[rec_idx];
    rec.slot = static_cast<std::int32_t>(st.outstanding.size());
    st.outstanding.push_back(rec_idx);
    if (is_recv) st.recv_order.push_back(rec_idx);
    if (rec.complete()) {
      st.outstanding_max = std::max(st.outstanding_max, rec.complete_us);
    } else {
      ++st.pending;
    }
  }

  /// Retire every remaining outstanding request (all complete).
  void consume_outstanding(RankState& st) {
    MPICP_ASSERT(st.pending == 0, "consuming pending requests");
    st.time = std::max(st.time, st.outstanding_max);
    for (const std::int32_t idx : st.outstanding) {
      if (idx >= 0) free_rec(idx);  // skip kWaitOne tombstones
    }
    st.outstanding.clear();
    st.clear_recv_order();
    st.outstanding_max = 0.0;
  }

  void wake(int r, double at) {
    RankState& st = ranks_[r];
    st.time = std::max(st.time, at);
    if (st.blocked_rec >= 0) {
      Rec& rec = recs_[st.blocked_rec];
      MPICP_ASSERT(rec.complete(), "woken rank's record still pending");
      st.time = std::max(st.time, rec.complete_us);
      if (rec.slot >= 0) {
        // kWaitOne target: drop it from the bookkeeping structures.
        MPICP_ASSERT(!st.recv_order_empty() &&
                         st.recv_order[st.recv_head] == st.blocked_rec,
                     "waitone target is not the oldest receive");
        st.pop_recv_order();
        st.outstanding[rec.slot] = -1;
      }
      free_rec(st.blocked_rec);
      st.blocked_rec = -1;
    }
    if (st.in_waitall) {
      consume_outstanding(st);
      st.in_waitall = false;
    }
  }

  /// A previously pending record just completed; resume the owner if
  /// this satisfies its blocking condition.
  void notify(std::int32_t rec_idx) {
    const Rec& rec = recs_[rec_idx];
    RankState& st = ranks_[rec.owner];
    if (rec.slot >= 0) {
      --st.pending;
      st.outstanding_max = std::max(st.outstanding_max, rec.complete_us);
    }
    if (st.blocked_rec == rec_idx) {
      queue_.push(rec.complete_us, rec.owner);
      return;
    }
    if (st.in_waitall && st.pending == 0) {
      queue_.push(std::max(st.time, st.outstanding_max), rec.owner);
    }
  }

  // ---- data tracking -------------------------------------------------
  std::vector<Block> snapshot(int rank, const Op& op) const {
    if (op.block_count == 0) return {};
    return store_->snapshot(rank, op.block_begin, op.block_count);
  }

  void apply_payload(int rank, std::uint32_t block_begin,
                     std::uint32_t block_count, std::uint8_t flags,
                     const std::vector<Block>& payload) {
    if (block_count == 0 || payload.empty()) return;
    MPICP_ASSERT(payload.size() == block_count,
                 "send/recv block count mismatch");
    store_->apply(rank, block_begin, payload, (flags & kCombine) != 0);
  }

  /// Deliver into a posted receive record.
  void apply_to_rec(int rank, std::int32_t recv_rec,
                    const std::vector<Block>& payload) {
    const TrackedRec& tr = rec_track_[recv_rec];
    apply_payload(rank, tr.block_begin, tr.block_count, tr.flags, payload);
  }

  // ---- rendezvous ------------------------------------------------------
  /// Both sides of a rendezvous message are known; schedule the wire
  /// transfer, complete the send record, and return the receive
  /// completion time.
  double resolve_rendezvous(std::int32_t send_rec_idx, int dst,
                            double recv_post_us) {
    Rec& srec = recs_[send_rec_idx];
    const LinkParams& lk = net_.link(srec.owner, dst);
    const double ready = std::max(srec.post_us, recv_post_us) +
                         net_.machine().rendezvous_rtt_us;
    const Transfer t =
        net_.schedule_transfer(srec.owner, dst, srec.bytes, ready);
    ++num_messages_;
    srec.complete_us = t.arrival_us;
    notify(send_rec_idx);
    return t.arrival_us + lk.overhead_us;
  }

  // ---- op execution ----------------------------------------------------

  /// Conservative time window: a rank may only execute ops while its
  /// local clock stays within this horizon of the current global event
  /// time; beyond it the rank is re-queued. This keeps network resource
  /// reservations in near-global-time order — without it, a rank that
  /// never blocks (e.g. a root flooding eager sends) would book shared
  /// NIC rails arbitrarily far into the future before its peers get to
  /// schedule causally-earlier transfers.
  static constexpr double kHorizonUs = 0.5;

  /// Run rank r from its program counter until it yields, blocks or
  /// finishes. A rank starts its turn unblocked (wake() cleared it), and
  /// only the point-to-point and wait ops can block it.
  void advance(int r, double deadline) {
    RankState& st = ranks_[r];
    const std::vector<Op>& prog = (*programs_)[r];
    const Op* const ops = prog.data();
    const std::size_t end = prog.size();
    std::size_t pc = st.pc;
    while (pc < end) {
      if (st.time > deadline) {
        st.pc = pc;
        queue_.push(st.time, r);  // yield; resume at local time
        return;
      }
      const Op& op = ops[pc++];
      switch (op.kind) {
        case OpKind::kSend:
        case OpKind::kISend:
          exec_send(r, op);
          break;
        case OpKind::kRecv:
        case OpKind::kIRecv:
          exec_recv(r, op);
          break;
        case OpKind::kWaitAll:
          exec_waitall(r);
          break;
        case OpKind::kWaitOne:
          exec_waitone(r);
          break;
        case OpKind::kCompute:
          st.time += static_cast<double>(op.bytes) *
                     net_.machine().reduce_us_per_byte;
          continue;
        case OpKind::kCopy: {
          st.time += net_.machine().intra.occupancy_us(op.bytes);
          if (store_ != nullptr && op.block_count > 0) {
            const auto payload =
                store_->snapshot(r, op.block_begin, op.block_count);
            store_->apply(r, static_cast<std::uint32_t>(op.peer), payload,
                          (op.flags & kCombine) != 0);
          }
          continue;
        }
      }
      if (st.blocked()) break;
    }
    st.pc = pc;
    if (pc >= end && !st.blocked()) {
      bool leftovers = st.pending > 0;
      for (const std::int32_t idx : st.outstanding) {
        leftovers = leftovers || idx >= 0;  // -1: consumed by kWaitOne
      }
      MPICP_ASSERT(!leftovers,
                   "rank finished with outstanding requests (missing "
                   "waitall in algorithm builder)");
      st.finished = true;
    }
  }

  void exec_send(int r, const Op& op) {
    RankState& st = ranks_[r];
    const bool blocking = op.kind == OpKind::kSend;
    const LinkParams& lk = net_.link(r, op.peer);
    st.time += lk.overhead_us;
    const bool eager = op.bytes <= net_.machine().eager_limit_bytes;
    MatchTable::Slot& q = match_.at(match_key(op.peer, r, op.tag));

    if (eager) {
      const Transfer t =
          net_.schedule_transfer(r, op.peer, op.bytes, st.time);
      ++num_messages_;
      if (!q.recvs.empty()) {
        const std::int32_t recv_rec = pop_recv(q.recvs);
        Rec& rrec = recs_[recv_rec];
        check_match(op.bytes, rrec.bytes);
        rrec.complete_us =
            std::max(rrec.post_us, t.arrival_us) + lk.overhead_us;
        if (store_ != nullptr) {
          apply_to_rec(op.peer, recv_rec, snapshot(r, op));
        }
        notify(recv_rec);
      } else {
        const std::int32_t uidx = alloc_unexpected();
        UnexpectedMsg& msg = upool_[uidx];
        msg.arrival_us = t.arrival_us;
        msg.bytes = op.bytes;
        if (store_ != nullptr) msg_payload_[uidx] = snapshot(r, op);
        push_unexpected(q.unexpected, uidx);
      }
      return;  // eager sends complete locally; nothing to wait for
    }

    // Rendezvous path: create a send record.
    const std::int32_t send_rec = alloc_rec();
    {
      Rec& srec = recs_[send_rec];
      srec.owner = r;
      srec.post_us = st.time;
      srec.bytes = op.bytes;
      if (store_ != nullptr) rec_track_[send_rec].payload = snapshot(r, op);
    }

    if (!q.recvs.empty()) {
      const std::int32_t recv_rec = pop_recv(q.recvs);
      check_match(op.bytes, recs_[recv_rec].bytes);
      const double recv_complete =
          resolve_rendezvous(send_rec, op.peer, recs_[recv_rec].post_us);
      recs_[recv_rec].complete_us = recv_complete;
      if (store_ != nullptr) {
        apply_to_rec(op.peer, recv_rec, rec_track_[send_rec].payload);
      }
      notify(recv_rec);
      if (blocking) {
        st.time = std::max(st.time, recs_[send_rec].complete_us);
        free_rec(send_rec);
      } else {
        add_outstanding(st, send_rec, /*is_recv=*/false);
      }
      return;
    }

    // No receive posted yet: announce (RTS) and wait for the match.
    const std::int32_t uidx = alloc_unexpected();
    UnexpectedMsg& msg = upool_[uidx];
    msg.send_rec = send_rec;
    msg.bytes = op.bytes;
    push_unexpected(q.unexpected, uidx);
    if (blocking) {
      st.blocked_rec = send_rec;
    } else {
      add_outstanding(st, send_rec, /*is_recv=*/false);
    }
  }

  void exec_recv(int r, const Op& op) {
    RankState& st = ranks_[r];
    const bool blocking = op.kind == OpKind::kRecv;
    const LinkParams& lk = net_.link(op.peer, r);
    MatchTable::Slot& q = match_.at(match_key(r, op.peer, op.tag));

    if (!q.unexpected.empty()) {
      const std::int32_t uidx = pop_unexpected(q.unexpected);
      const UnexpectedMsg& msg = upool_[uidx];
      check_match(msg.bytes, op.bytes);
      double complete_us;
      if (msg.send_rec < 0) {
        // Eager: data is already in flight (or buffered at the receiver).
        complete_us = std::max(st.time, msg.arrival_us) + lk.overhead_us;
        if (store_ != nullptr) {
          apply_payload(r, op.block_begin, op.block_count, op.flags,
                        msg_payload_[uidx]);
        }
      } else {
        complete_us = resolve_rendezvous(msg.send_rec, r, st.time);
        if (store_ != nullptr) {
          apply_payload(r, op.block_begin, op.block_count, op.flags,
                        rec_track_[msg.send_rec].payload);
        }
      }
      free_unexpected(uidx);
      if (blocking) {
        st.time = std::max(st.time, complete_us);
      } else {
        const std::int32_t recv_rec = alloc_rec();
        Rec& rrec = recs_[recv_rec];
        rrec.owner = r;
        rrec.post_us = st.time;
        rrec.complete_us = complete_us;
        add_outstanding(st, recv_rec, /*is_recv=*/true);
      }
      return;
    }

    // Nothing matched: post the receive.
    const std::int32_t recv_rec = alloc_rec();
    Rec& rrec = recs_[recv_rec];
    rrec.owner = r;
    rrec.post_us = st.time;
    rrec.bytes = op.bytes;
    if (store_ != nullptr) {
      TrackedRec& tr = rec_track_[recv_rec];
      tr.block_begin = op.block_begin;
      tr.block_count = op.block_count;
      tr.flags = op.flags;
    }
    push_recv(q.recvs, recv_rec);
    if (blocking) {
      st.blocked_rec = recv_rec;
    } else {
      add_outstanding(st, recv_rec, /*is_recv=*/true);
    }
  }

  void exec_waitall(int r) {
    RankState& st = ranks_[r];
    if (st.pending > 0) {
      st.in_waitall = true;
      return;
    }
    consume_outstanding(st);
  }

  void exec_waitone(int r) {
    RankState& st = ranks_[r];
    if (st.recv_order_empty()) {
      MPICP_RAISE_INTERNAL(
          "kWaitOne with no outstanding receive (algorithm builder bug)");
    }
    const std::int32_t idx = st.recv_order[st.recv_head];
    Rec& rec = recs_[idx];
    if (rec.complete()) {
      st.time = std::max(st.time, rec.complete_us);
      st.pop_recv_order();
      st.outstanding[rec.slot] = -1;
      free_rec(idx);
    } else {
      st.blocked_rec = idx;  // wake() drops it from the bookkeeping
    }
  }

  [[noreturn]] void report_deadlock() const {
    std::ostringstream os;
    os << "simulated collective deadlocked; stuck ranks:";
    int shown = 0;
    for (std::size_t r = 0; r < ranks_.size() && shown < 8; ++r) {
      if (ranks_[r].finished) continue;
      os << " [rank " << r << " pc=" << ranks_[r].pc << '/'
         << (*programs_)[r].size()
         << (ranks_[r].in_waitall ? " in waitall" : "")
         << (ranks_[r].blocked_rec >= 0 ? " blocked on p2p" : "") << ']';
      ++shown;
    }
    MPICP_RAISE_INTERNAL(os.str());
  }

  Network& net_;
  const ProgramSet* programs_ = nullptr;
  DataStore* store_ = nullptr;

  std::vector<RankState> ranks_;
  MatchTable match_;
  EventQueue queue_;
  std::vector<Rec> recs_;
  std::vector<std::int32_t> free_recs_;
  std::vector<UnexpectedMsg> upool_;
  std::vector<std::int32_t> ufree_;
  // Tracking runs only: parallel to recs_ and upool_.
  std::vector<TrackedRec> rec_track_;
  std::vector<std::vector<Block>> msg_payload_;
  std::uint64_t num_messages_ = 0;
};

Executor::Executor(Network& net)
    : net_(net), engine_(std::make_unique<Engine>(net)) {}

Executor::~Executor() = default;

ExecResult Executor::run(const ProgramSet& programs, DataStore* store) {
  MPICP_SPAN("sim.exec.run");
  MPICP_REQUIRE(static_cast<int>(programs.size()) == net_.num_ranks(),
                "program set size must equal the network's rank count");
  net_.reset();
  return engine_->run(programs, store);
}

}  // namespace mpicp::sim
