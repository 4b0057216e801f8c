// Deeper substrate tests beyond the smoke suite: semaphores, barriers,
// timeouts, channel backpressure, RMW atomicity, run limits, disks,
// TryAlloc faults, region nesting, scheduling-policy determinism, and the
// fiber switch and stack pool.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/apps/scenarios.h"
#include "src/core/experiment.h"
#include "src/sim/channel.h"
#include "src/sim/disk.h"
#include "src/sim/environment.h"
#include "src/sim/fiber.h"
#include "src/sim/network.h"
#include "src/sim/shared_var.h"
#include "src/sim/sync.h"
#include "src/util/thread_annotations.h"

namespace ddr {
namespace {

Environment::Options Opts(uint64_t seed, double preempt = 0.15) {
  Environment::Options options;
  options.seed = seed;
  options.scheduling.preempt_probability = preempt;
  return options;
}

TEST(SimSyncTest, SemaphoreBoundsConcurrency) {
  Environment env(Opts(1));
  int max_inside = 0;
  Outcome outcome = env.Run("sem", [&](Environment& e) {
    SimSemaphore sem(e, "sem", 2);
    SharedVar<int> inside(e, "inside", 0);
    std::vector<FiberId> fibers;
    for (int i = 0; i < 6; ++i) {
      fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
        sem.Acquire();
        const int now_inside = static_cast<int>(inside.FetchAdd(1)) + 1;
        max_inside = std::max(max_inside, now_inside);
        e.Yield();
        inside.FetchAdd(-1);
        sem.Release();
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_LE(max_inside, 2);
  EXPECT_GE(max_inside, 1);
}

TEST(SimSyncTest, BarrierReleasesAllTogether) {
  Environment env(Opts(2));
  int after_barrier_before_all_arrived = 0;
  Outcome outcome = env.Run("barrier", [&](Environment& e) {
    SimBarrier barrier(e, "barrier", 4);
    SharedVar<int> arrived(e, "arrived", 0);
    std::vector<FiberId> fibers;
    for (int i = 0; i < 4; ++i) {
      fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
        arrived.FetchAdd(1);
        barrier.Arrive();
        if (arrived.Load() < 4) {
          ++after_barrier_before_all_arrived;
        }
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_EQ(after_barrier_before_all_arrived, 0);
}

TEST(SimSyncTest, RmwIsAtomicUnderPreemption) {
  Environment env(Opts(3, /*preempt=*/0.4));
  uint64_t final_value = 0;
  env.Run("rmw", [&](Environment& e) {
    SharedVar<uint64_t> counter(e, "counter", 0);
    std::vector<FiberId> fibers;
    for (int i = 0; i < 4; ++i) {
      fibers.push_back(e.Spawn("f" + std::to_string(i), [&] {
        for (int k = 0; k < 25; ++k) {
          counter.FetchAdd(1);
        }
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
    final_value = counter.Load();
  });
  EXPECT_EQ(final_value, 100u);
}

TEST(SimSyncTest, CompareExchange) {
  Environment env(Opts(4));
  env.Run("cas", [&](Environment& e) {
    SharedVar<int> flag(e, "flag", 0);
    EXPECT_TRUE(flag.CompareExchange(0, 7));
    EXPECT_FALSE(flag.CompareExchange(0, 9));
    EXPECT_EQ(flag.Load(), 7);
  });
}

TEST(SimTimeoutTest, WaitOnTimesOut) {
  Environment env(Opts(5));
  WakeReason reason = WakeReason::kNotified;
  SimTime waited = 0;
  env.Run("timeout", [&](Environment& e) {
    ObjectId queue = e.CreateWaitQueue("never-notified");
    const SimTime before = e.Now();
    reason = e.WaitOn(queue, 2 * kMillisecond);
    waited = e.Now() - before;
  });
  EXPECT_EQ(reason, WakeReason::kTimeout);
  EXPECT_GE(waited, static_cast<SimTime>(2 * kMillisecond));
}

TEST(SimTimeoutTest, NotifyBeforeTimeoutWins) {
  Environment env(Opts(6));
  WakeReason reason = WakeReason::kTimeout;
  env.Run("notify", [&](Environment& e) {
    ObjectId queue = e.CreateWaitQueue("queue");
    FiberId waker = e.Spawn("waker", [&] {
      e.SleepFor(1 * kMillisecond);
      e.NotifyOne(queue);
    });
    reason = e.WaitOn(queue, 50 * kMillisecond);
    e.Join(waker);
  });
  EXPECT_EQ(reason, WakeReason::kNotified);
}

TEST(SimTimeoutTest, StaleTimerDoesNotWakeLaterWait) {
  Environment env(Opts(7));
  Outcome outcome = env.Run("stale", [&](Environment& e) {
    ObjectId queue = e.CreateWaitQueue("queue");
    FiberId waker = e.Spawn("waker", [&] {
      e.SleepFor(1 * kMillisecond);
      e.NotifyOne(queue);  // wakes the first wait; its timer is now stale
      e.SleepFor(10 * kMillisecond);
      e.NotifyOne(queue);  // wakes the second wait
    });
    EXPECT_EQ(e.WaitOn(queue, 3 * kMillisecond), WakeReason::kNotified);
    // Second wait crosses the first wait's (stale) timeout instant.
    EXPECT_EQ(e.WaitOn(queue, 30 * kMillisecond), WakeReason::kNotified);
    e.Join(waker);
  });
  EXPECT_FALSE(outcome.Failed());
}

TEST(SimChannelTest, BoundedChannelExertsBackpressure) {
  Environment env(Opts(8));
  size_t max_depth = 0;
  Outcome outcome = env.Run("bounded", [&](Environment& e) {
    Channel<int> chan(e, "chan", /*capacity=*/3);
    FiberId producer = e.Spawn("producer", [&] {
      for (int i = 0; i < 30; ++i) {
        chan.Send(i);
        max_depth = std::max(max_depth, chan.size());
      }
    });
    FiberId consumer = e.Spawn("consumer", [&] {
      for (int i = 0; i < 30; ++i) {
        EXPECT_EQ(chan.Recv(), i);
      }
    });
    e.Join(producer);
    e.Join(consumer);
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_LE(max_depth, 3u);
}

TEST(SimChannelTest, TryRecvNonBlocking) {
  Environment env(Opts(9));
  env.Run("tryrecv", [&](Environment& e) {
    Channel<int> chan(e, "chan");
    EXPECT_FALSE(chan.TryRecv().has_value());
    chan.Send(5);
    auto got = chan.TryRecv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 5);
  });
}

TEST(SimLimitsTest, EventLimitStopsRun) {
  Environment::Options options = Opts(10);
  options.max_events = 500;
  Environment env(options);
  Outcome outcome = env.Run("runaway", [&](Environment& e) {
    SharedVar<uint64_t> x(e, "x", 0);
    for (;;) {
      x.Store(x.Load() + 1);  // infinite loop; the limit must stop it
    }
  });
  EXPECT_TRUE(outcome.stats.hit_event_limit);
  EXPECT_LE(outcome.stats.events, 501u);
}

TEST(SimLimitsTest, VirtualTimeLimitStopsRun) {
  Environment::Options options = Opts(11);
  options.max_virtual_time = 5 * kMillisecond;
  Environment env(options);
  Outcome outcome = env.Run("sleeper", [&](Environment& e) {
    for (;;) {
      e.SleepFor(1 * kMillisecond);
    }
  });
  EXPECT_TRUE(outcome.stats.hit_time_limit);
}

TEST(SimDiskTest, AppendAndReadWithLatency) {
  Environment env(Opts(12));
  env.Run("disk", [&](Environment& e) {
    SimDisk disk(e, "disk");
    const SimTime before = e.Now();
    const size_t index = disk.Append("record-zero");
    EXPECT_EQ(index, 0u);
    EXPECT_GT(e.Now(), before);  // write latency elapsed
    disk.Append("record-one");
    EXPECT_EQ(disk.Read(0), "record-zero");
    EXPECT_EQ(disk.Read(1), "record-one");
    EXPECT_EQ(disk.num_records(), 2u);
    EXPECT_EQ(disk.bytes_written(), 21u);  // 11 + 10 payload bytes
  });
}

TEST(SimFaultTest, TryAllocFailsOncePerArm) {
  Environment env(Opts(13));
  env.SetFaultPlan(FaultPlan::OomAt(/*node=*/0, /*time=*/0));
  int failures = 0;
  env.Run("oom", [&](Environment& e) {
    for (int i = 0; i < 5; ++i) {
      if (!e.TryAlloc(100)) {
        ++failures;
      }
    }
  });
  EXPECT_EQ(failures, 1);  // the armed fault fires exactly once
}

TEST(SimFaultTest, CheckAllocAbortsWithOom) {
  Environment env(Opts(14));
  env.SetFaultPlan(FaultPlan::OomAt(/*node=*/0, /*time=*/0));
  Outcome outcome = env.Run("oom-abort", [&](Environment& e) { e.CheckAlloc(64); });
  ASSERT_TRUE(outcome.Failed());
  EXPECT_EQ(outcome.primary_failure()->kind, FailureKind::kOom);
}

TEST(SimRegionTest, NestedRegionsRestoreOuter) {
  Environment env(Opts(15));
  CollectingSink sink;
  env.AddTraceSink(&sink);
  RegionId outer = kDefaultRegion;
  RegionId inner = kDefaultRegion;
  env.Run("regions", [&](Environment& e) {
    outer = e.RegisterRegion("outer");
    inner = e.RegisterRegion("inner");
    SharedVar<int> x(e, "x", 0);
    RegionScope outer_scope(e, outer);
    x.Store(1);
    {
      RegionScope inner_scope(e, inner);
      x.Store(2);
    }
    x.Store(3);
  });
  RegionId region_of_1 = kDefaultRegion;
  RegionId region_of_2 = kDefaultRegion;
  RegionId region_of_3 = kDefaultRegion;
  for (const Event& event : sink.events()) {
    if (event.type == EventType::kSharedWrite) {
      if (event.value == 1) region_of_1 = event.region;
      if (event.value == 2) region_of_2 = event.region;
      if (event.value == 3) region_of_3 = event.region;
    }
  }
  EXPECT_EQ(region_of_1, outer);
  EXPECT_EQ(region_of_2, inner);
  EXPECT_EQ(region_of_3, outer);
}

TEST(SimPolicyTest, RoundRobinIsDeterministicAndFair) {
  auto run = [](uint64_t seed) {
    Environment::Options options;
    options.seed = seed;
    options.scheduling.policy = SchedulingOptions::Policy::kRoundRobin;
    options.scheduling.preempt_probability = 1.0;  // switch at every point
    Environment env(options);
    std::vector<int> order;
    env.Run("rr", [&](Environment& e) {
      std::vector<FiberId> fibers;
      for (int i = 0; i < 3; ++i) {
        fibers.push_back(e.Spawn("f" + std::to_string(i), [&, i] {
          for (int k = 0; k < 3; ++k) {
            order.push_back(i);
            e.Yield();
          }
        }));
      }
      for (FiberId f : fibers) {
        e.Join(f);
      }
    });
    return order;
  };
  // Round-robin ignores the seed entirely: identical interleavings.
  EXPECT_EQ(run(1), run(999));
  const auto order = run(1);
  EXPECT_EQ(order.size(), 9u);
}

TEST(SimPolicyTest, ZeroPreemptionRunsFibersToBlocking) {
  Environment env(Opts(16, /*preempt=*/0.0));
  std::vector<int> order;
  env.Run("coop", [&](Environment& e) {
    FiberId a = e.Spawn("a", [&] {
      order.push_back(1);
      order.push_back(2);  // no preemption between these
    });
    FiberId b = e.Spawn("b", [&] { order.push_back(3); });
    e.Join(a);
    e.Join(b);
  });
  ASSERT_EQ(order.size(), 3u);
  // With zero preemption, 'a' has no scheduling point between its two
  // pushes, so they are never interleaved by 'b' (pick order may vary).
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 1) {
      ASSERT_LT(i + 1, order.size());
      EXPECT_EQ(order[i + 1], 2);
    }
  }
}

TEST(SimNetworkTest, BaseDropProbabilityDropsSomeMessages) {
  Environment env(Opts(17));
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  env.Run("drops", [&](Environment& e) {
    NodeId peer = e.AddNode("peer");
    NetworkOptions options;
    options.drop_probability = 0.3;
    Network net(e, options);
    ObjectId here = net.CreateEndpoint(0, "here");
    ObjectId there = net.CreateEndpoint(peer, "there");
    e.SpawnOnNode(peer, "sink", [&] {
      while (net.Recv(there, 20 * kMillisecond).has_value()) {
      }
    });
    for (int i = 0; i < 100; ++i) {
      net.Send(here, there, i, "x");
    }
    e.SleepFor(50 * kMillisecond);
    delivered = net.messages_delivered();
    dropped = net.messages_dropped();
  });
  EXPECT_GT(dropped, 10u);
  EXPECT_GT(delivered, 40u);
  EXPECT_EQ(delivered + dropped, 100u);
}

TEST(SimNetworkTest, CongestionDropsOnlyInsideWindow) {
  Environment env(Opts(18));
  env.SetFaultPlan(FaultPlan::CongestionWindow(/*start=*/10 * kMillisecond,
                                               /*duration=*/10 * kMillisecond,
                                               /*drop_prob=*/1.0));
  uint64_t in_window_drops = 0;
  uint64_t out_window_delivered = 0;
  env.Run("congestion", [&](Environment& e) {
    NodeId peer = e.AddNode("peer");
    Network net(e, NetworkOptions{});
    ObjectId here = net.CreateEndpoint(0, "here");
    ObjectId there = net.CreateEndpoint(peer, "there");
    e.SpawnOnNode(peer, "sink", [&] {
      while (net.Recv(there, 40 * kMillisecond).has_value()) {
      }
    });
    net.Send(here, there, 1, "before");   // t=0: delivered
    e.SleepFor(15 * kMillisecond);        // inside the window
    net.Send(here, there, 2, "during");   // dropped (p=1.0)
    e.SleepFor(15 * kMillisecond);        // after the window
    net.Send(here, there, 3, "after");    // delivered
    e.SleepFor(10 * kMillisecond);
    in_window_drops = net.congestion_drops();
    out_window_delivered = net.messages_delivered();
  });
  EXPECT_EQ(in_window_drops, 1u);
  EXPECT_EQ(out_window_delivered, 2u);
}

TEST(SimDeterminismTest, PolicySweepFingerprintsStable) {
  auto fingerprint = [](uint64_t seed, SchedulingOptions::Policy policy, double p) {
    Environment::Options options;
    options.seed = seed;
    options.scheduling.policy = policy;
    options.scheduling.preempt_probability = p;
    Environment env(options);
    return env
        .Run("sweep",
             [](Environment& e) {
               SharedVar<uint64_t> x(e, "x", 0);
               SimMutex mu(e, "mu");
               Channel<int> chan(e, "chan");
               FiberId a = e.Spawn("a", [&] {
                 for (int i = 0; i < 8; ++i) {
                   SimLock lock(mu);
                   x.Store(x.Load() + 1);
                   chan.Send(i);
                 }
               });
               FiberId b = e.Spawn("b", [&] {
                 for (int i = 0; i < 8; ++i) {
                   chan.Recv();
                   e.RngDraw(RngPurpose::kAppChoice, 10);
                 }
               });
               e.Join(a);
               e.Join(b);
             })
        .trace_fingerprint;
  };
  for (auto policy : {SchedulingOptions::Policy::kRandom,
                      SchedulingOptions::Policy::kRoundRobin}) {
    for (double p : {0.0, 0.2, 0.9}) {
      for (uint64_t seed : {1ull, 17ull, 333ull}) {
        EXPECT_EQ(fingerprint(seed, policy, p), fingerprint(seed, policy, p))
            << "policy=" << static_cast<int>(policy) << " p=" << p
            << " seed=" << seed;
      }
    }
  }
}

TEST(SimFiberTest, TenThousandFibersParkAtOnce) {
  // Every fiber parks on the gate with its own stack live; main yields after
  // each spawn so the runnable set stays small and the cost measured is the
  // fibers', not the scheduler's pick over thousands of runnable ids.
#if defined(__SANITIZE_THREAD__)
  // TSan maps a trace and a shadow stack per fiber (about 6 mappings each,
  // against 2 without it); 10,000 live fibers would exceed the default
  // vm.max_map_count of 65530.
  constexpr int kFibers = 4'000;
#else
  constexpr int kFibers = 10'000;
#endif
  Environment env(Opts(5, 0.0));
  int passed = 0;
  int passed_before_open = -1;
  Outcome outcome = env.Run("many", [&](Environment& e) {
    SimSemaphore gate(e, "gate", 0);
    std::vector<FiberId> fibers;
    fibers.reserve(kFibers);
    for (int i = 0; i < kFibers; ++i) {
      fibers.push_back(e.Spawn("parked", [&] {
        gate.Acquire();
        ++passed;
      }));
      e.Yield();
    }
    passed_before_open = passed;
    for (int i = 0; i < kFibers; ++i) {
      gate.Release();
      e.Yield();
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
  });
  EXPECT_FALSE(outcome.Failed()) << outcome.failures.front().message;
  EXPECT_EQ(passed_before_open, 0);
  EXPECT_EQ(passed, kFibers);
}

TEST(SimFiberTest, ShutdownRunsDestructorsOfBlockedFibers) {
  // Fibers still blocked when the root fiber exits are unwound with
  // FiberKilled on their own stacks, so their RAII objects are destroyed.
  struct Counted {
    int* count;
    ~Counted() { ++*count; }
  };
  int destroyed = 0;
  int resumed = 0;
  Environment env(Opts(6, 0.0));
  // The handles outlive Run(): the killed fibers unwind after main returns.
  std::optional<SimMutex> mu;
  std::optional<Channel<int>> chan;
  Outcome outcome = env.Run("teardown", [&](Environment& e) {
    mu.emplace(e, "mu");
    chan.emplace(e, "chan");
    mu->Lock();
    e.Spawn("on_mutex", [&] {
      Counted guard{&destroyed};
      mu->Lock();
      ++resumed;
    });
    e.Spawn("on_channel", [&] {
      Counted guard{&destroyed};
      chan->Recv();
      ++resumed;
    });
    e.Spawn("on_sleep", [&] {
      Counted guard{&destroyed};
      e.SleepFor(3600 * kSecond);
      ++resumed;
    });
    e.SleepFor(kMillisecond);  // let all three block
    EXPECT_EQ(destroyed, 0);
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_EQ(resumed, 0);
  EXPECT_EQ(destroyed, 3);
}

TEST(SimFiberTest, TwoThousandRunnableFibersKeepTheirSchedule) {
  // Main spawns 2,000 fibers without yielding, so all of them are runnable
  // at once and every pick is over a large set that yields keep
  // re-entering. The constant was captured when the scheduler still sorted
  // the runnable set before each pick; keeping it sorted on insert must
  // show the director the same set.
  constexpr uint64_t kFingerprint = 18425623892567615991ull;
  Environment env(Opts(7, 0.0));
  Outcome outcome = env.Run("crowd", [](Environment& e) {
    SharedVar<uint64_t> x(e, "x", 0);
    std::vector<FiberId> fibers;
    fibers.reserve(2'000);
    for (int i = 0; i < 2'000; ++i) {
      fibers.push_back(e.Spawn("f", [&] {
        x.Store(x.Load() + 1);
        e.Yield();
        x.Store(x.Load() + 1);
      }));
    }
    for (FiberId f : fibers) {
      e.Join(f);
    }
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_GT(outcome.stats.context_switches, 4'000u);
  EXPECT_EQ(outcome.trace_fingerprint, kFingerprint);
}

// Records the frame of its caller's fiber; frames on one stack lie within
// kStackBytes of each other, frames on different stacks at least that far
// apart.
uintptr_t FrameAddress() {
  return reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
}

TEST(SimFiberTest, BackToBackEnvironmentsReusePooledStacks) {
  // The second Run on this thread draws its stacks from the pool that the
  // first Run's fibers, killed ones included, returned them to. Reuse
  // changes neither the execution nor the teardown of killed fibers. The
  // frame check confirms the second run really ran on the first run's
  // stack memory.
  struct Counted {
    int* count;
    ~Counted() { ++*count; }
  };
  struct RunResult {
    Outcome outcome;
    std::vector<uintptr_t> frames;
    int destroyed = 0;
    int stuck_resumed = 0;
  };
  auto run_once = [] {
    RunResult run;
    Environment env(Opts(8));
    // Outlives Run(): the stuck fibers unwind after main returns.
    std::optional<SimMutex> mu;
    run.outcome = env.Run("reuse", [&](Environment& e) {
      run.frames.push_back(FrameAddress());
      mu.emplace(e, "mu");
      mu->Lock();
      SharedVar<uint64_t> x(e, "x", 0);
      std::vector<FiberId> workers;
      for (int i = 0; i < 8; ++i) {
        workers.push_back(e.Spawn("worker", [&] {
          run.frames.push_back(FrameAddress());
          Counted guard{&run.destroyed};
          x.Store(x.Load() + 1);
          e.Yield();
          x.Store(x.Load() + 1);
        }));
      }
      for (int i = 0; i < 4; ++i) {
        e.Spawn("stuck", [&] {
          run.frames.push_back(FrameAddress());
          Counted guard{&run.destroyed};
          mu->Lock();
          ++run.stuck_resumed;
        });
      }
      for (FiberId w : workers) {
        e.Join(w);
      }
    });
    return run;
  };
  const RunResult first = run_once();
  const RunResult second = run_once();
  for (const RunResult* run : {&first, &second}) {
    EXPECT_FALSE(run->outcome.Failed());
    EXPECT_EQ(run->destroyed, 12);
    EXPECT_EQ(run->stuck_resumed, 0);
  }
  EXPECT_EQ(second.outcome.trace_fingerprint, first.outcome.trace_fingerprint);
  EXPECT_EQ(second.outcome.output_fingerprint, first.outcome.output_fingerprint);
  ASSERT_EQ(second.frames.size(), 13u);
  for (uintptr_t frame : second.frames) {
    bool reused = false;
    for (uintptr_t earlier : first.frames) {
      const uintptr_t distance = frame > earlier ? frame - earlier : earlier - frame;
      reused = reused || distance < Fiber::kStackBytes / 2;
    }
    EXPECT_TRUE(reused) << "a fiber of the second run got a stack the first "
                           "run never used";
  }
}

TEST(SimFiberTest, RoundingModeIsPerFiber) {
  // A switch saves and restores the MXCSR and x87 control words: a
  // rounding mode set in one fiber is not seen by another fiber or by the
  // thread that runs the scheduler, and is still set when the fiber
  // resumes.
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;
  int mode_in_other = -1;
  int mode_on_resume = -1;
  double quotient_in_other = 0;
  double quotient_on_resume = 0;
  Environment env(Opts(9, 0.0));
  Outcome outcome = env.Run("fenv", [&](Environment& e) {
    SimSemaphore mode_set(e, "mode_set", 0);
    SimSemaphore other_done(e, "other_done", 0);
    FiberId setter = e.Spawn("setter", [&] {
      ASSERT_EQ(fesetround(FE_UPWARD), 0);
      mode_set.Release();
      other_done.Acquire();
      mode_on_resume = fegetround();
      quotient_on_resume = one / three;
    });
    FiberId other = e.Spawn("other", [&] {
      mode_set.Acquire();
      mode_in_other = fegetround();
      quotient_in_other = one / three;
      other_done.Release();
    });
    e.Join(setter);
    e.Join(other);
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_EQ(mode_in_other, FE_TONEAREST);
  EXPECT_EQ(quotient_in_other, nearest);
  EXPECT_EQ(mode_on_resume, FE_UPWARD);
  EXPECT_GT(quotient_on_resume, nearest);
  EXPECT_EQ(fegetround(), FE_TONEAREST);
}

// Descends `depth` levels of ~1 KiB each and returns the deepest frame.
// alloca keeps the bytes on the real stack even when ASan moves fixed-size
// locals to its fake stack; reading the block back (it adds 0) after the
// call keeps every level's frame live, so the recursion is no tail call.
[[gnu::noinline]] uintptr_t Descend(int depth) {
  volatile char* block = static_cast<char*>(__builtin_alloca(1024));
  block[0] = static_cast<char>(depth);
  const uintptr_t deepest = depth == 0 ? FrameAddress() : Descend(depth - 1);
  return deepest + static_cast<uintptr_t>(block[0] - static_cast<char>(depth));
}

TEST(SimFiberTest, DeepRecursionOnReusedStack) {
  // A stack taken back from the pool is usable to the same depth as a
  // fresh one: the second fiber reuses the first one's stack and recurses
  // through about half of it.
  uintptr_t top = 0;
  uintptr_t deepest = 0;
  Environment env(Opts(10, 0.0));
  Outcome outcome = env.Run("deep", [&](Environment& e) {
    e.Join(e.Spawn("warm", [] {}));
    e.Join(e.Spawn("deep", [&] {
      top = FrameAddress();
      deepest = Descend(static_cast<int>(Fiber::kStackBytes / 2 / 1024));
    }));
  });
  EXPECT_FALSE(outcome.Failed());
  EXPECT_GE(top - deepest, Fiber::kStackBytes / 2);
  EXPECT_LT(top - deepest, Fiber::kStackBytes);
}

TEST(SimFiberTest, ConcurrentEnvironmentsMatchSerialRun) {
  // Environments share nothing: the hypertable production run gives the
  // same fingerprints on four OS threads at once as it does alone.
  ExperimentHarness harness(MakeHypertableScenario());
  ASSERT_TRUE(harness.Prepare().ok());
  const BugScenario& scenario = harness.scenario();
  auto run_production = [&] {
    Environment::Options options = scenario.env_options;
    options.seed = harness.production_sched_seed();
    Environment env(options);
    std::unique_ptr<SimProgram> program =
        scenario.make_program(scenario.production_world_seed);
    return env.Run(*program);
  };
  const Outcome serial = run_production();
  EXPECT_EQ(serial.trace_fingerprint,
            harness.production_outcome().trace_fingerprint);
  EXPECT_GT(serial.stats.context_switches, 100u);

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 2;
  std::vector<Outcome> outcomes(kThreads * kRunsPerThread);
  std::vector<OsThread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        outcomes[t * kRunsPerThread + r] = run_production();
      }
    });
  }
  for (OsThread& thread : threads) {
    thread.join();
  }
  for (const Outcome& outcome : outcomes) {
    EXPECT_EQ(outcome.trace_fingerprint, serial.trace_fingerprint);
    EXPECT_EQ(outcome.output_fingerprint, serial.output_fingerprint);
    EXPECT_EQ(outcome.stats.events, serial.stats.events);
  }
}

}  // namespace
}  // namespace ddr
