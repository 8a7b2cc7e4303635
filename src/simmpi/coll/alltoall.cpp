#include "simmpi/coll/alltoall.hpp"

#include <algorithm>
#include <vector>

#include "simmpi/coll/pipeline.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

constexpr std::uint16_t kTagLinear = 30;
constexpr std::uint16_t kTagPairwise = 31;
constexpr std::uint16_t kTagBruckBase = 32;

std::uint32_t send_block(int dst) { return static_cast<std::uint32_t>(dst); }
std::uint32_t recv_block(int p, int src) {
  return static_cast<std::uint32_t>(p + src);
}
std::uint32_t stage_block(int p, int idx) {
  return static_cast<std::uint32_t>(2 * p + idx);
}

void emit_self_copy(RankProg& prog, int p, int self, std::size_t bytes) {
  prog.copy(bytes, send_block(self), recv_block(p, self), 1);
}

}  // namespace

BuiltCollective alltoall_linear(const Comm& comm, std::size_t bytes) {
  MPICP_SPAN("sim.alltoall.linear");
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 2 * p;
  for (int r = 0; r < p; ++r) {
    // The self copy, an irecv and an isend per peer, one waitall.
    RankProg prog(out.programs[r], r, p,
                  1 + 2 * std::size_t(p - 1) + (p > 1 ? 1 : 0));
    emit_self_copy(prog, p, r, bytes);
    for (int i = 1; i < p; ++i) {
      const int src = (r - i + p) % p;
      prog.irecv(src, kTagLinear, bytes, recv_block(p, src), 1);
    }
    for (int i = 1; i < p; ++i) {
      const int dst = (r + i) % p;
      prog.isend(dst, kTagLinear, bytes, send_block(dst), 1);
    }
    if (p > 1) prog.waitall();
  }
  return out;
}

BuiltCollective alltoall_pairwise(const Comm& comm, std::size_t bytes) {
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 2 * p;
  for (int r = 0; r < p; ++r) {
    // The self copy, then isend, recv and waitall per peer.
    RankProg prog(out.programs[r], r, p, 1 + 3 * std::size_t(p - 1));
    emit_self_copy(prog, p, r, bytes);
    for (int k = 1; k < p; ++k) {
      const int dst = (r + k) % p;
      const int src = (r - k + p) % p;
      prog.isend(dst, kTagPairwise, bytes, send_block(dst), 1);
      prog.recv(src, kTagPairwise, bytes, recv_block(p, src), 1);
      prog.waitall();
    }
  }
  return out;
}

BuiltCollective alltoall_linear_sync(const Comm& comm, std::size_t bytes,
                                     int limit) {
  MPICP_REQUIRE(limit >= 1, "linear_sync needs a positive window");
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 2 * p;
  const std::size_t batches =
      static_cast<std::size_t>((p - 1 + limit - 1) / limit);
  for (int r = 0; r < p; ++r) {
    // The self copy, an irecv and an isend per peer, a waitall per batch.
    RankProg prog(out.programs[r], r, p, 1 + 2 * std::size_t(p - 1) + batches);
    emit_self_copy(prog, p, r, bytes);
    // Window i and p-i pair up: r sends to r+i exactly when r+i receives
    // from (r+i)-i, both in batch floor((i-1)/limit) — no cross-batch
    // waits, hence no deadlock under rendezvous.
    for (int start = 1; start < p; start += limit) {
      const int end = std::min(start + limit, p);
      for (int i = start; i < end; ++i) {
        const int src = (r - i + p) % p;
        prog.irecv(src, kTagLinear, bytes, recv_block(p, src), 1);
      }
      for (int i = start; i < end; ++i) {
        const int dst = (r + i) % p;
        prog.isend(dst, kTagLinear, bytes, send_block(dst), 1);
      }
      prog.waitall();
    }
  }
  return out;
}

BuiltCollective alltoall_bruck(const Comm& comm, std::size_t bytes,
                               int radix, bool tracking) {
  MPICP_REQUIRE(radix >= 2, "bruck radix must be at least 2");
  const int p = comm.size();
  BuiltCollective out;
  out.programs.resize(p);
  out.blocks_per_rank = 3 * p;
  if (p == 1) {
    RankProg(out.programs[0], 0, 1, 1)
        .copy(bytes, send_block(0), recv_block(1, 0), 1);
    return out;
  }
  // The digit rounds, the same on every rank: for every base-`radix`
  // digit position m and digit value j with j*m < p, the staging blocks
  // whose index has digit j at m (never empty: j*m is one).
  struct Round {
    long long m;
    int j;
    std::vector<int> idxs;
  };
  std::vector<Round> rounds;
  std::size_t round_blocks = 0;
  for (long long m = 1; m < p; m *= radix) {
    for (int j = 1; j < radix && j * m < p; ++j) {
      Round& round = rounds.emplace_back(Round{m, j, {}});
      for (int idx = 0; idx < p; ++idx) {
        if ((idx / m) % radix == static_cast<long long>(j)) {
          round.idxs.push_back(idx);
        }
      }
      round_blocks += round.idxs.size();
    }
  }
  // Tracked: p copies each way, an isend and an irecv per staging block
  // and a waitall per round. Packed: two whole-buffer copies, and per
  // round pack, isend, irecv, waitall and unpack.
  const std::size_t num_ops =
      tracking ? 2 * std::size_t(p) + 2 * round_blocks + rounds.size()
               : 2 + 5 * rounds.size();
  for (int v = 0; v < p; ++v) {
    RankProg prog(out.programs[v], v, p, num_ops);
    // Phase 1 — rotation: staging[j] = send[(v - j) mod p], i.e. block j
    // holds the data destined j hops "downward"; every round then moves
    // blocks downward by their digit value, so after all rounds block i
    // holds the data from rank (v + i) destined to v.
    if (tracking) {
      for (int j = 0; j < p; ++j) {
        prog.copy(bytes, send_block((v - j + p) % p), stage_block(p, j), 1);
      }
    } else {
      prog.copy(static_cast<std::uint64_t>(p) * bytes, 0, 0, 0);
    }
    // Phase 2 — digit rounds: exchange each round's staging blocks with
    // the ranks ±j*m away.
    std::uint16_t tag = kTagBruckBase;
    for (const Round& round : rounds) {
      const long long jm = round.j * round.m;
      const int dst = static_cast<int>((v - jm % p + p) % p);
      const int src = static_cast<int>((v + jm) % p);
      if (tracking) {
        // One message per staging block; send snapshots happen before
        // the receives overwrite the same blocks (op order below).
        for (const int idx : round.idxs) {
          prog.isend(dst, tag, bytes, stage_block(p, idx), 1);
        }
        for (const int idx : round.idxs) {
          prog.irecv(src, tag, bytes, stage_block(p, idx), 1);
        }
      } else {
        // Packed aggregate: pack, one exchange, unpack.
        const std::uint64_t pack = round.idxs.size() * bytes;
        prog.copy(pack, 0, 0, 0);
        prog.isend(dst, tag, pack, 0, 0);
        prog.irecv(src, tag, pack, 0, 0);
      }
      prog.waitall();
      if (!tracking) prog.copy(round.idxs.size() * bytes, 0, 0, 0);
      ++tag;
    }
    // Phase 3 — inverse rotation: recv[s] = staging[(s - v) mod p].
    if (tracking) {
      for (int s = 0; s < p; ++s) {
        prog.copy(bytes, stage_block(p, (s - v + p) % p), recv_block(p, s),
                  1);
      }
    } else {
      prog.copy(static_cast<std::uint64_t>(p) * bytes, 0, 0, 0);
    }
  }
  return out;
}

}  // namespace mpicp::sim
