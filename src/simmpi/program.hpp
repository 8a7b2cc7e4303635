// Per-rank communication programs.
//
// A collective algorithm is expressed as one sequential program per rank,
// built from MPI-like operations (send/recv, their nonblocking variants,
// waitall, local compute). The discrete-event executor (executor.hpp)
// runs all rank programs against a simnet::Network and reports the
// completion time — this mirrors how LogGOPSim-class simulators replay
// communication traces.
//
// Programs are *data-independent*: the communication pattern of the MPI
// collectives we model depends only on (rank, p, message size,
// parameters), never on buffer contents, so a static per-rank op list is
// a faithful representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace mpicp::sim {

enum class OpKind : std::uint8_t {
  kSend,     ///< blocking send
  kRecv,     ///< blocking receive
  kISend,    ///< nonblocking send (completed by kWaitAll)
  kIRecv,    ///< nonblocking receive (completed by kWaitAll)
  kWaitAll,  ///< wait for all outstanding nonblocking operations
  kWaitOne,  ///< wait for the oldest outstanding nonblocking *receive*
  kCompute,  ///< local computation (reduction arithmetic)
  kCopy,     ///< local buffer copy/pack (memcpy through the memory system)
};

/// Flags on receive operations controlling data tracking semantics.
enum OpFlags : std::uint8_t {
  kNone = 0,
  /// Receiver combines (ORs) the payload into its blocks instead of
  /// overwriting them — used for reduction steps.
  kCombine = 1,
};

/// One operation of a rank program. Kept small on purpose: large runs
/// materialize tens of millions of ops.
struct Op {
  OpKind kind = OpKind::kCompute;
  std::uint8_t flags = kNone;
  std::uint16_t tag = 0;       ///< match tag (phase identifier)
  std::int32_t peer = -1;      ///< peer rank for send/recv
  std::uint32_t bytes = 0;     ///< message size, or compute size in bytes
  std::uint32_t block_begin = 0;  ///< data-tracking region start
  std::uint32_t block_count = 0;  ///< data-tracking region length
};
static_assert(sizeof(Op) <= 24, "Op must stay small");

/// The programs of all ranks of one collective invocation.
using ProgramSet = std::vector<std::vector<Op>>;

/// Convenience emitter for one rank's program.
///
/// An algorithm emitter passes `num_ops`, the exact number of ops it is
/// about to append, counted from the same loop bounds it emits with: the
/// vector is then grown once, to its final size, instead of by doubling
/// (test_des_pins checks that every built program's capacity equals its
/// size). Hand-written programs may leave it 0 and grow as they go.
class RankProg {
 public:
  RankProg(std::vector<Op>& ops, int self, int num_ranks,
           std::size_t num_ops = 0)
      : ops_(ops), self_(self), p_(num_ranks) {
    ops.reserve(ops.size() + num_ops);
  }

  int self() const { return self_; }
  int num_ranks() const { return p_; }

  void send(int peer, std::uint16_t tag, std::uint64_t bytes,
            std::uint32_t block_begin = 0, std::uint32_t block_count = 0) {
    push(OpKind::kSend, peer, tag, bytes, block_begin, block_count, kNone);
  }
  void recv(int peer, std::uint16_t tag, std::uint64_t bytes,
            std::uint32_t block_begin = 0, std::uint32_t block_count = 0,
            std::uint8_t flags = kNone) {
    push(OpKind::kRecv, peer, tag, bytes, block_begin, block_count, flags);
  }
  void isend(int peer, std::uint16_t tag, std::uint64_t bytes,
             std::uint32_t block_begin = 0, std::uint32_t block_count = 0) {
    push(OpKind::kISend, peer, tag, bytes, block_begin, block_count, kNone);
  }
  void irecv(int peer, std::uint16_t tag, std::uint64_t bytes,
             std::uint32_t block_begin = 0, std::uint32_t block_count = 0,
             std::uint8_t flags = kNone) {
    push(OpKind::kIRecv, peer, tag, bytes, block_begin, block_count, flags);
  }
  void waitall() { push(OpKind::kWaitAll, -1, 0, 0, 0, 0, kNone); }
  /// Wait for the oldest still-outstanding irecv (double-buffered
  /// pipelines consume segments in posting order with this).
  void waitone() { push(OpKind::kWaitOne, -1, 0, 0, 0, 0, kNone); }
  /// Local reduction arithmetic over `bytes` bytes.
  void compute(std::uint64_t bytes) {
    push(OpKind::kCompute, -1, 0, bytes, 0, 0, kNone);
  }
  /// Local pack/unpack copy of `bytes` bytes. For data tracking the
  /// blocks [src_block, src_block+count) are copied to
  /// [dst_block, dst_block+count); the destination start is carried in
  /// the op's `peer` field (documented overload — copies have no peer).
  void copy(std::uint64_t bytes, std::uint32_t src_block,
            std::uint32_t dst_block, std::uint32_t count,
            std::uint8_t flags = kNone) {
    MPICP_ASSERT(dst_block <= 0x7fffffffu, "copy destination block range");
    Op op;
    op.kind = OpKind::kCopy;
    op.flags = flags;
    op.peer = static_cast<std::int32_t>(dst_block);
    op.bytes = static_cast<std::uint32_t>(bytes);
    op.block_begin = src_block;
    op.block_count = count;
    ops_.push_back(op);
  }

 private:
  void push(OpKind kind, int peer, std::uint16_t tag, std::uint64_t bytes,
            std::uint32_t block_begin, std::uint32_t block_count,
            std::uint8_t flags) {
    MPICP_ASSERT(peer >= -1 && peer < p_, "op peer out of range");
    MPICP_ASSERT(bytes <= 0xffffffffULL, "message larger than 4 GiB");
    Op op;
    op.kind = kind;
    op.flags = flags;
    op.tag = tag;
    op.peer = peer;
    op.bytes = static_cast<std::uint32_t>(bytes);
    op.block_begin = block_begin;
    op.block_count = block_count;
    ops_.push_back(op);
  }

  std::vector<Op>& ops_;
  int self_;
  int p_;
};

}  // namespace mpicp::sim
