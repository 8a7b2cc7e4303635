// Unit tests for the discrete-event executor: matching semantics,
// eager/rendezvous protocols, waitall, deadlock detection, data tracking.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>

#include "simmpi/coll/datainit.hpp"
#include "simmpi/coll/registry.hpp"
#include "simmpi/executor.hpp"
#include "simnet/machine.hpp"

namespace mpicp::sim {
namespace {

MachineDesc test_machine() {
  MachineDesc m = hydra_machine();
  m.eager_limit_bytes = 1024;
  return m;
}

ProgramSet make_progs(int p) { return ProgramSet(p); }

TEST(Executor, EagerPingHasLatencyAndOverhead) {
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 64);
  RankProg(progs[1], 1, 2).recv(0, 1, 64);
  const ExecResult res = exec.run(progs);
  const double expect = desc.inter.overhead_us +            // sender o
                        desc.inter.occupancy_us(64) +       // wire
                        desc.inter.latency_us +             // L
                        desc.inter.overhead_us;             // receiver o
  EXPECT_NEAR(res.finish_us[1], expect, 1e-9);
  // The eager sender finishes right after injection.
  EXPECT_NEAR(res.finish_us[0], desc.inter.overhead_us, 1e-9);
  EXPECT_EQ(res.num_messages, 1u);
  EXPECT_DOUBLE_EQ(res.makespan_us, res.finish_us[1]);
}

TEST(Executor, RendezvousSenderBlocksUntilReceiverArrives) {
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  const std::size_t big = 1 << 20;
  RankProg(progs[0], 0, 2).send(1, 1, big);
  {
    RankProg p1(progs[1], 1, 2);
    p1.compute(static_cast<std::uint64_t>(
        100.0 / desc.reduce_us_per_byte));  // ~100 us of local work
    p1.recv(0, 1, big);
  }
  const ExecResult res = exec.run(progs);
  // The transfer cannot start before the receiver posts at ~100 us.
  EXPECT_GT(res.finish_us[0], 100.0);
  EXPECT_GE(res.finish_us[1], res.finish_us[0] - 1e-9);
}

TEST(Executor, EagerSendDoesNotBlockOnLateReceiver) {
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 128);
  {
    RankProg p1(progs[1], 1, 2);
    p1.compute(static_cast<std::uint64_t>(50.0 / desc.reduce_us_per_byte));
    p1.recv(0, 1, 128);
  }
  const ExecResult res = exec.run(progs);
  EXPECT_NEAR(res.finish_us[0], desc.inter.overhead_us, 1e-9);
  // Receiver completes right after its local work (message already there).
  EXPECT_NEAR(res.finish_us[1], 50.0 + desc.inter.overhead_us, 0.5);
}

TEST(Executor, FifoMatchingPreservesOrder) {
  // Two same-tag messages must match the receives in post order; the
  // tracked payloads prove which message landed where.
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  {
    RankProg p0(progs[0], 0, 2);
    p0.send(1, 1, 8, /*block_begin=*/0, /*block_count=*/1);
    p0.send(1, 1, 8, /*block_begin=*/1, /*block_count=*/1);
  }
  {
    RankProg p1(progs[1], 1, 2);
    p1.recv(0, 1, 8, /*block_begin=*/0, /*block_count=*/1);
    p1.recv(0, 1, 8, /*block_begin=*/1, /*block_count=*/1);
  }
  DataStore store(2, 2);
  store.at(0, 0) = Block{111};
  store.at(0, 1) = Block{222};
  EXPECT_GT(exec.run(progs, &store).makespan_us, 0.0);
  EXPECT_EQ(store.at(1, 0), (Block{111}));
  EXPECT_EQ(store.at(1, 1), (Block{222}));
}

TEST(Executor, TagsSeparateMessageStreams) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  {
    RankProg p0(progs[0], 0, 2);
    p0.send(1, /*tag=*/7, 8, 0, 1);
    p0.send(1, /*tag=*/9, 8, 1, 1);
  }
  {
    RankProg p1(progs[1], 1, 2);
    // Receive the tag-9 message first even though it was sent second.
    p1.recv(0, 9, 8, 0, 1);
    p1.recv(0, 7, 8, 1, 1);
  }
  DataStore store(2, 2);
  store.at(0, 0) = Block{1};
  store.at(0, 1) = Block{2};
  EXPECT_GT(exec.run(progs, &store).makespan_us, 0.0);
  EXPECT_EQ(store.at(1, 0), (Block{2}));
  EXPECT_EQ(store.at(1, 1), (Block{1}));
}

TEST(Executor, WaitallCollectsAllRequests) {
  Network net(test_machine(), 3, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(3);
  {
    RankProg p0(progs[0], 0, 3);
    p0.irecv(1, 1, 2048);
    p0.irecv(2, 1, 2048);
    p0.waitall();
  }
  RankProg(progs[1], 1, 3).send(0, 1, 2048);
  RankProg(progs[2], 2, 3).send(0, 1, 2048);
  const ExecResult res = exec.run(progs);
  EXPECT_GT(res.finish_us[0], 0.0);
  EXPECT_EQ(res.num_messages, 2u);
}

TEST(Executor, DeadlockIsDetected) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).recv(1, 1, 8);
  RankProg(progs[1], 1, 2).recv(0, 1, 8);
  EXPECT_THROW((void)exec.run(progs), InternalError);
}

TEST(Executor, MissingWaitallIsDetected) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).isend(1, 1, 1 << 20);  // rendezvous, never waited
  RankProg(progs[1], 1, 2).recv(0, 1, 1 << 20);
  EXPECT_THROW((void)exec.run(progs), InternalError);
}

TEST(Executor, ComputeAdvancesLocalClock) {
  const MachineDesc desc = test_machine();
  Network net(desc, 1, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(1);
  RankProg(progs[0], 0, 1).compute(1000);
  const ExecResult res = exec.run(progs);
  EXPECT_NEAR(res.finish_us[0], 1000 * desc.reduce_us_per_byte, 1e-12);
}

TEST(Executor, CopyMovesBlocksLocally) {
  Network net(test_machine(), 1, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(1);
  RankProg(progs[0], 0, 1).copy(64, /*src=*/0, /*dst=*/2, /*count=*/2);
  DataStore store(1, 4);
  store.at(0, 0) = Block{7};
  store.at(0, 1) = Block{9};
  const ExecResult res = exec.run(progs, &store);
  EXPECT_EQ(store.at(0, 2), (Block{7}));
  EXPECT_EQ(store.at(0, 3), (Block{9}));
  EXPECT_GT(res.finish_us[0], 0.0);
}

TEST(Executor, CombineRecvOrsPayload) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 8, 0, 1);
  RankProg(progs[1], 1, 2).recv(0, 1, 8, 0, 1, kCombine);
  DataStore store(2, 1);
  store.at(0, 0) = contribution_of(0);
  store.at(1, 0) = contribution_of(1);
  EXPECT_GT(exec.run(progs, &store).makespan_us, 0.0);
  EXPECT_TRUE(has_all_contributions(store.at(1, 0), 2));
}

TEST(Executor, RejectsWrongProgramCount) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(1);
  EXPECT_THROW((void)exec.run(progs), InvalidArgument);
}

TEST(Executor, ZeroByteMessagesWork) {
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  RankProg(progs[0], 0, 2).send(1, 1, 0);
  RankProg(progs[1], 1, 2).recv(0, 1, 0);
  const ExecResult res = exec.run(progs);
  EXPECT_GT(res.makespan_us, 0.0);
}

TEST(Executor, MatchedSizesMustAgree) {
  // Every protocol and arrival order: eager or rendezvous, and the
  // receive posted before or after the message is announced.
  for (const std::uint64_t bytes : {64ULL, 1ULL << 20}) {
    for (const bool recv_first : {true, false}) {
      Network net(test_machine(), 2, 1);
      Executor exec(net);
      ProgramSet progs = make_progs(2);
      {
        RankProg p0(progs[0], 0, 2);
        if (recv_first) p0.compute(1 << 20);
        p0.send(1, 1, bytes);
      }
      {
        RankProg p1(progs[1], 1, 2);
        if (!recv_first) p1.compute(1 << 20);
        p1.recv(0, 1, bytes / 2);
      }
      EXPECT_THROW((void)exec.run(progs), InternalError)
          << bytes << " bytes, receive first: " << recv_first;
    }
  }
}

TEST(Executor, ManyInFlightMessagesRecycleRecords) {
  // Smoke test that the record pool handles thousands of outstanding
  // requests without mixing them up.
  Network net(test_machine(), 2, 1);
  Executor exec(net);
  ProgramSet progs = make_progs(2);
  const int n = 5000;
  {
    RankProg p0(progs[0], 0, 2);
    for (int i = 0; i < n; ++i) p0.isend(1, 1, 64);
    p0.waitall();
  }
  {
    RankProg p1(progs[1], 1, 2);
    for (int i = 0; i < n; ++i) p1.irecv(0, 1, 64);
    p1.waitall();
  }
  const ExecResult res = exec.run(progs);
  EXPECT_EQ(res.num_messages, static_cast<std::uint64_t>(n));
}

/// Ranks 1..5 compute for the same time, so all five re-enter the event
/// queue at one identical time and are resumed in rank order. Each then
/// issues a rendezvous send to rank 0, whose two NIC rails serialize
/// them in that order; the sizes differ, so any other order would move
/// the finish times.
ProgramSet tie_programs() {
  ProgramSet progs = make_progs(6);
  {
    RankProg p0(progs[0], 0, 6);
    for (int src = 5; src >= 1; --src) p0.irecv(src, 1, 16384u * src);
    p0.waitall();
  }
  for (int r = 1; r <= 5; ++r) {
    RankProg pr(progs[r], r, 6);
    pr.compute(250000);
    pr.send(0, 1, 16384u * r);
  }
  return progs;
}

TEST(Executor, EqualTimesResumeInRankOrder) {
  Network net(test_machine(), 6, 1);
  Executor exec(net);
  const ExecResult res = exec.run(tie_programs());
  // Pinned bit for bit: any other resume order moves these times.
  const double expect[] = {0x1.3bc9320d9945bp+6, 0x1.0ea493c89f40ap+6,
                           0x1.13e2c12ad81aep+6, 0x1.1f5f1bef49cf5p+6,
                           0x1.29db76b3bb83dp+6, 0x1.3a95feda66128p+6};
  ASSERT_EQ(res.finish_us.size(), 6u);
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.finish_us[r]),
              std::bit_cast<std::uint64_t>(expect[r]))
        << "rank " << r << ": " << res.finish_us[r];
  }
  EXPECT_EQ(res.num_messages, 5u);
}

/// Bitwise equality of two results.
void expect_same_result(const ExecResult& a, const ExecResult& b,
                        const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.makespan_us),
            std::bit_cast<std::uint64_t>(b.makespan_us))
      << what;
  ASSERT_EQ(a.finish_us.size(), b.finish_us.size()) << what;
  for (std::size_t r = 0; r < a.finish_us.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.finish_us[r]),
              std::bit_cast<std::uint64_t>(b.finish_us[r]))
        << what << ", rank " << r;
  }
  EXPECT_EQ(a.num_messages, b.num_messages) << what;
}

TEST(Executor, ReusedExecutorMatchesFreshOneAfterFailedRuns) {
  // 2 nodes x 2 ppn. The two failing runs leave every kind of run state
  // behind: posted receives and an unexpected message in the match
  // table (deadlock), and ranks still queued at the moment of the throw
  // (missing waitall). The later runs reuse the same (src, dst, tag)
  // keys, so any state that survives a run changes their results.
  const MachineDesc desc = test_machine();
  Network net(desc, 2, 2);
  Executor reused(net);
  const auto fresh_run = [&](const ProgramSet& progs, DataStore* store) {
    Network fresh_net(desc, 2, 2);
    Executor fresh(fresh_net);
    return fresh.run(progs, store);
  };

  ProgramSet deadlock = make_progs(4);
  RankProg(deadlock[0], 0, 4).recv(1, 1, 8);
  RankProg(deadlock[1], 1, 4).recv(0, 1, 8);
  RankProg(deadlock[2], 2, 4).send(3, 5, 64);  // never received
  EXPECT_THROW((void)reused.run(deadlock), InternalError);

  ProgramSet no_wait = make_progs(4);
  RankProg(no_wait[0], 0, 4).isend(1, 1, 1 << 20);
  RankProg(no_wait[1], 1, 4).recv(0, 1, 1 << 20);
  for (int r = 2; r < 4; ++r) RankProg(no_wait[r], r, 4).compute(1 << 20);
  EXPECT_THROW((void)reused.run(no_wait), InternalError);

  const Comm comm(2, 2);
  const AlgoConfig& cfg =
      algorithm_configs(MpiLib::kOpenMPI, Collective::kAllreduce).at(2);
  const BuiltCollective tracked = build_algorithm(
      MpiLib::kOpenMPI, Collective::kAllreduce, cfg, comm, 4096, 0, true);
  std::optional<DataStore> stores[2];
  ExecResult tracked_res[2];
  for (int i = 0; i < 2; ++i) {
    stores[i].emplace(make_initial_store(Collective::kAllreduce, 4,
                                         tracked.blocks_per_rank, 0));
  }
  tracked_res[0] = reused.run(tracked.programs, &*stores[0]);
  tracked_res[1] = fresh_run(tracked.programs, &*stores[1]);
  expect_same_result(tracked_res[0], tracked_res[1], "tracking run");
  EXPECT_EQ(validate_store(Collective::kAllreduce, *stores[0], 4, 0), "");

  // Rank 0's first request takes record 0, which is also the index of
  // the receive the deadlocked run left posted under rank 1's key.
  ProgramSet plain = make_progs(4);
  {
    RankProg p0(plain[0], 0, 4);
    p0.irecv(3, 9, 16);
    p0.compute(1 << 16);
    p0.recv(1, 1, 8);
    p0.waitall();
  }
  RankProg(plain[1], 1, 4).send(0, 1, 8);
  RankProg(plain[2], 2, 4).send(3, 5, 64);
  {
    RankProg p3(plain[3], 3, 4);
    p3.compute(1 << 16);
    p3.recv(2, 5, 64);
    p3.send(0, 9, 16);
  }
  expect_same_result(reused.run(plain), fresh_run(plain, nullptr),
                     "plain run");
}

}  // namespace
}  // namespace mpicp::sim
