#include "ttsim/sim/engine.hpp"

#include <gtest/gtest.h>
#include <immintrin.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ttsim/common/rng.hpp"
#include "ttsim/sim/sync.hpp"

namespace ttsim::sim {
namespace {

struct CountsDestruction {
  int* count;
  ~CountsDestruction() { ++*count; }
};

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber* self = nullptr;
  Fiber f([&] {
    trace.push_back(1);
    self->yield();
    trace.push_back(3);
  });
  self = &f;
  f.resume();
  trace.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, ExceptionPropagatesViaRethrow) {
  Fiber f([] { throw std::runtime_error("boom"); });
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_THROW(f.rethrow_if_failed(), std::runtime_error);
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = reinterpret_cast<Fiber*>(1);
  Fiber f([&] { observed = Fiber::current(); });
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

/// Address of a 16-byte-aligned local in a fresh frame. The compiler places
/// it by trusting the ABI's 16-byte stack alignment at every call, so code
/// entered on a misaligned stack shows a nonzero remainder here.
[[gnu::noinline]] std::uintptr_t aligned_local_address() {
  alignas(16) volatile char probe[16] = {};
  return reinterpret_cast<std::uintptr_t>(&probe[0]);
}

/// Aligned 256-bit loads and stores fault on an address that is not 32-byte
/// aligned.
[[gnu::noinline, gnu::target("avx")]] float avx_double_sum(const float* p) {
  alignas(32) float out[8];
  const __m256 v = _mm256_load_ps(p);
  _mm256_store_ps(out, _mm256_add_ps(v, v));
  return std::accumulate(out, out + 8, 0.0f);
}

TEST(Fiber, StackIsAlignedForVectorCode) {
  std::uintptr_t probe = 1, local32 = 1;
  float sse = 0, avx = 0;
  Fiber f([&] {
    probe = aligned_local_address();
    alignas(32) float buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    local32 = reinterpret_cast<std::uintptr_t>(buf);
    const __m128 v = _mm_load_ps(buf);  // faults unless 16-byte aligned
    alignas(16) float out[4];
    _mm_store_ps(out, _mm_mul_ps(v, v));
    sse = out[0] + out[1] + out[2] + out[3];
    if (__builtin_cpu_supports("avx")) avx = avx_double_sum(buf);
  });
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(probe % 16, 0u);
  EXPECT_EQ(local32 % 32, 0u);
  EXPECT_EQ(sse, 30.0f);
  if (__builtin_cpu_supports("avx")) EXPECT_EQ(avx, 72.0f);
}

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  // MXCSR rounding-control bits; fegetround() reads the x87 control word.
  constexpr unsigned kRc = 0x6000, kRcDown = 0x2000, kRcUp = 0x4000;
  struct RestoreNearest {
    ~RestoreNearest() { std::fesetround(FE_TONEAREST); }
  } restore;
  int initial = -1, after_switches = -1;
  unsigned initial_rc = 0, after_switches_rc = 0;
  Fiber* self = nullptr;
  Fiber f([&] {
    initial = std::fegetround();
    initial_rc = _mm_getcsr() & kRc;
    std::fesetround(FE_UPWARD);
    self->yield();
    after_switches = std::fegetround();
    after_switches_rc = _mm_getcsr() & kRc;
  });
  self = &f;
  // A new fiber starts with its first resumer's mode.
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
  f.resume();
  EXPECT_EQ(initial, FE_DOWNWARD);
  EXPECT_EQ(initial_rc, kRcDown);
  // The fiber's mode does not leak out to the resumer...
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  EXPECT_EQ(_mm_getcsr() & kRc, kRcDown);
  // ...and the resumer's does not leak in.
  std::fesetround(FE_TOWARDZERO);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(after_switches, FE_UPWARD);
  EXPECT_EQ(after_switches_rc, kRcUp);
  EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
}

TEST(Fiber, CancelUnwindsParkedStack) {
  int destroyed = 0;
  bool ran_past_yield = false;
  Fiber* self = nullptr;
  Fiber f([&] {
    CountsDestruction guard{&destroyed};
    self->yield();
    ran_past_yield = true;
  });
  self = &f;
  f.resume();
  EXPECT_EQ(destroyed, 0);
  f.cancel();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(ran_past_yield);
  EXPECT_NO_THROW(f.rethrow_if_failed());
}

/// Recurses `depth` frames, then throws; the addition after the call keeps
/// every frame live (no tail call).
[[gnu::noinline]] int throw_at_depth(int depth) {
  if (depth == 0) throw std::runtime_error("thrown at the bottom");
  volatile int keep = depth;
  return throw_at_depth(depth - 1) + keep;
}

TEST(Fiber, ExceptionFromFiftyFramesDeepReachesRethrow) {
  Fiber f([] { (void)throw_at_depth(50); });
  f.resume();
  ASSERT_TRUE(f.finished());
  try {
    f.rethrow_if_failed();
    FAIL() << "no exception captured";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thrown at the bottom");
  }
  EXPECT_NO_THROW(f.rethrow_if_failed());  // consumed by the first rethrow
}

TEST(Fiber, ThousandFibersInterleaveDeterministically) {
  constexpr int kFibers = 1000;
  constexpr int kSteps = 4;
  struct Run {
    std::vector<int> schedule;               // fiber resumed, in order
    std::vector<std::pair<int, int>> trace;  // (fiber, step) as recorded
  };
  const auto run = [](std::uint64_t seed) {
    Run r;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int i = 0; i < kFibers; ++i) {
      fibers.push_back(std::make_unique<Fiber>(
          [&r, &fibers, i] {
            for (int s = 0; s < kSteps; ++s) {
              r.trace.emplace_back(i, s);
              fibers[static_cast<std::size_t>(i)]->yield();
            }
          },
          64 * 1024));
    }
    std::vector<int> live(kFibers);
    std::iota(live.begin(), live.end(), 0);
    Rng rng(seed);
    while (!live.empty()) {
      const auto pick = static_cast<std::size_t>(rng.next_below(live.size()));
      const int id = live[pick];
      r.schedule.push_back(id);
      Fiber& f = *fibers[static_cast<std::size_t>(id)];
      f.resume();
      EXPECT_EQ(Fiber::current(), nullptr);
      if (f.finished()) {
        live[pick] = live.back();
        live.pop_back();
      }
    }
    return r;
  };

  const Run a = run(0x5eed);
  ASSERT_EQ(a.schedule.size(), static_cast<std::size_t>(kFibers * (kSteps + 1)));
  // Every resume ran the fiber it named, which continued where it left off.
  std::vector<int> next_step(kFibers, 0);
  std::vector<std::pair<int, int>> expected;
  for (const int id : a.schedule) {
    int& step = next_step[static_cast<std::size_t>(id)];
    if (step < kSteps) expected.emplace_back(id, step++);
  }
  EXPECT_EQ(a.trace, expected);
  // Same seed, same trace; another seed, another interleaving.
  EXPECT_EQ(run(0x5eed).trace, a.trace);
  EXPECT_NE(run(0x5eee).trace, a.trace);
}

TEST(Fiber, NestedResumeRestoresCurrentOnBothSides) {
  // resume() returns once control comes back from the fiber it resumed or
  // from any fiber that one handed off to: here the outer fiber resumes the
  // inner one, which hands off to a third, whose yield lands in the outer.
  std::vector<Fiber*> observed;
  Fiber* inner_self = nullptr;
  Fiber* outer_self = nullptr;
  Fiber* third_self = nullptr;
  Fiber third([&] {
    observed.push_back(Fiber::current());
    third_self->yield();  // back to the outer fiber, the inner one's resumer
    observed.push_back(Fiber::current());
  });
  Fiber inner([&] {
    observed.push_back(Fiber::current());
    inner_self->switch_to(third);
    observed.push_back(Fiber::current());
  });
  Fiber outer([&] {
    observed.push_back(Fiber::current());
    inner.resume();
    observed.push_back(Fiber::current());
    outer_self->yield();
    observed.push_back(Fiber::current());
  });
  inner_self = &inner;
  outer_self = &outer;
  third_self = &third;
  outer.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_FALSE(inner.finished());
  EXPECT_FALSE(third.finished());
  inner.resume();  // this time the scheduler is the inner fiber's resumer
  EXPECT_TRUE(inner.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  third.resume();
  EXPECT_TRUE(third.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  outer.resume();
  EXPECT_TRUE(outer.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_EQ(observed, (std::vector<Fiber*>{&outer, &inner, &third, &outer,
                                           &inner, &third, &outer}));
}

TEST(Fiber, HandedOffFiberThatThrowsReturnsToTheDriver) {
  Fiber* first_self = nullptr;
  Fiber second([] { throw std::runtime_error("thrown after a handoff"); });
  Fiber first([&] { first_self->switch_to(second); });
  first_self = &first;
  first.resume();
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_TRUE(second.finished());
  EXPECT_FALSE(second.has_stack());  // freed by the resume() it returned to
  EXPECT_THROW(second.rethrow_if_failed(), std::runtime_error);
  EXPECT_FALSE(first.finished());
  EXPECT_TRUE(first.has_stack());
  first.resume();  // parked in switch_to: resumes there and finishes
  EXPECT_TRUE(first.finished());
  EXPECT_FALSE(first.has_stack());
}

TEST(Engine, TimeAdvancesWithDelay) {
  Engine e;
  SimTime seen = -1;
  e.spawn("p", [&] {
    e.delay(100);
    seen = e.now();
  });
  e.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, ProcessesInterleaveByTime) {
  Engine e;
  std::vector<std::string> order;
  e.spawn("a", [&] {
    e.delay(10);
    order.push_back("a10");
    e.delay(20);  // wakes at 30
    order.push_back("a30");
  });
  e.spawn("b", [&] {
    e.delay(15);
    order.push_back("b15");
    e.delay(20);  // wakes at 35
    order.push_back("b35");
  });
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a10", "b15", "a30", "b35"}));
}

TEST(Engine, EqualTimesOrderedByInsertion) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn("p" + std::to_string(i), [&, i] {
      e.delay(50);
      order.push_back(i);
    });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CallbacksFireAtScheduledTime) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule_at(30, [&] { fired.push_back(e.now()); });
  e.schedule_at(10, [&] { fired.push_back(e.now()); });
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 30}));
}

TEST(Engine, SchedulePastThrows) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_EQ(e.now(), 100);
  EXPECT_THROW(e.schedule_at(50, [] {}), CheckError);
}

TEST(Engine, DelayZeroIsAllowed) {
  Engine e;
  int steps = 0;
  e.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      e.delay(0);
      ++steps;
    }
  });
  e.run();
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  e.spawn("p", [&] { e.delay(-1); });
  EXPECT_THROW(e.run(), CheckError);
}

TEST(Engine, ExceptionInProcessSurfacesFromRun) {
  Engine e;
  e.spawn("bad", [] { throw std::runtime_error("kernel fault"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int ticks = 0;
  e.spawn("p", [&] {
    for (int i = 0; i < 10; ++i) {
      e.delay(100);
      ++ticks;
    }
  });
  EXPECT_FALSE(e.run_until(450));
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(e.now(), 450);
  EXPECT_TRUE(e.run_until(2000));
  EXPECT_EQ(ticks, 10);
}

TEST(Engine, RunUntilAdvancesIdleClock) {
  Engine e;
  EXPECT_TRUE(e.run_until(5000));
  EXPECT_EQ(e.now(), 5000);
}

TEST(Engine, DeterministicEventCount) {
  auto run_once = [] {
    Engine e;
    for (int i = 0; i < 8; ++i) {
      e.spawn("p", [&e] {
        for (int j = 0; j < 20; ++j) e.delay(7);
      });
    }
    e.run();
    return e.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, SpawnFromInsideProcess) {
  Engine e;
  std::vector<int> order;
  e.spawn("parent", [&] {
    e.delay(10);
    order.push_back(1);
    e.spawn("child", [&] {
      order.push_back(2);
      e.delay(5);
      order.push_back(3);
    });
    e.delay(1);
    order.push_back(4);  // at t=11, child wakes at 15
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Engine, CurrentOutsideProcessThrows) {
  Engine e;
  EXPECT_THROW(e.current(), CheckError);
}

TEST(Engine, HandoffStartsANewProcessWithTheDriversRoundingMode) {
  // MXCSR rounding-control bits; fegetround() reads the x87 control word.
  constexpr unsigned kRc = 0x6000, kRcUp = 0x4000;
  struct RestoreNearest {
    ~RestoreNearest() { std::fesetround(FE_TONEAREST); }
  } restore;
  Engine e;
  int b_round = -1, a_after_delay = -1;
  unsigned b_rc = 0;
  e.spawn("a", [&] {
    std::fesetround(FE_DOWNWARD);
    e.delay(10);  // b's wakeup is next: a hands off to b, which is new
    a_after_delay = std::fegetround();
  });
  e.spawn("b", [&] {
    b_round = std::fegetround();
    b_rc = _mm_getcsr() & kRc;
  });
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  e.run();
  EXPECT_EQ(b_round, FE_UPWARD);
  EXPECT_EQ(b_rc, kRcUp);
  EXPECT_EQ(a_after_delay, FE_DOWNWARD);
  EXPECT_EQ(std::fegetround(), FE_UPWARD);
}

TEST(Engine, ExceptionInHandedOffProcessSurfacesFromRun) {
  Engine e;
  bool a_done = false;
  Process* a = e.spawn("a", [&] {
    e.delay(10);  // hands off to b
    a_done = true;
  });
  Process* b = e.spawn("b", [] { throw std::runtime_error("kernel fault"); });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_TRUE(b->finished());
  EXPECT_FALSE(a->finished());
  EXPECT_EQ(e.now(), 0);
  // The engine is still usable: a wakes where it would have.
  e.run();
  EXPECT_TRUE(a_done);
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, WakeupsAndCallbacksKeepTheirOrderAndCount) {
  // Each wakeup is one event whether it is reached by a handoff, a self-wake
  // (p0 at t=15 is next in line again) or the scheduler. At one time the
  // callback runs first, then the wakeups in spawn order: p0's wakeup at
  // t=10 and t=20 was pushed last but runs before p1's and p2's.
  Engine e;
  std::vector<std::pair<SimTime, int>> order;
  for (int i = 0; i < 3; ++i) {
    e.spawn("p" + std::to_string(i), [&, i] {
      for (int j = 0; j < 4; ++j) {
        e.delay(i == 0 ? 5 : 10);
        order.emplace_back(e.now(), i);
      }
    });
  }
  e.schedule_at(20, [&] { order.emplace_back(e.now(), -1); });
  e.run();
  EXPECT_EQ(e.events_processed(), 3u + 3u * 4u + 1u);
  EXPECT_EQ(e.now(), 40);
  EXPECT_EQ(order, (std::vector<std::pair<SimTime, int>>{
                       {5, 0}, {10, 0}, {10, 1}, {10, 2}, {15, 0}, {20, -1},
                       {20, 0}, {20, 1}, {20, 2}, {30, 1}, {30, 2}, {40, 1},
                       {40, 2}}));
}

TEST(Engine, TeardownCancelsAProcessParkedInSwitchTo) {
  int destroyed = 0;
  {
    Engine e;
    WaitQueue never_a(e), never_b(e);
    e.spawn("a", [&] {
      CountsDestruction guard{&destroyed};
      never_a.wait();  // b's wakeup is next: a parks in switch_to
    });
    e.spawn("b", [&] {
      CountsDestruction guard{&destroyed};
      never_b.wait();  // the queue is empty: b yields to the loop
    });
    EXPECT_THROW(e.run(), DeadlockError);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(Engine, RunUntilStopsBetweenHandedOffDelays) {
  Engine e;
  std::vector<SimTime> a_wakes, b_wakes;
  e.spawn("a", [&] {
    for (int i = 0; i < 4; ++i) {
      e.delay(10);
      a_wakes.push_back(e.now());
    }
  });
  e.spawn("b", [&] {
    for (int i = 0; i < 4; ++i) {
      e.delay(10);
      b_wakes.push_back(e.now());
    }
  });
  EXPECT_FALSE(e.run_until_done(25));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(a_wakes, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(b_wakes, (std::vector<SimTime>{10, 20}));
  EXPECT_TRUE(e.run_until(100));
  EXPECT_EQ(a_wakes, (std::vector<SimTime>{10, 20, 30, 40}));
  EXPECT_EQ(e.now(), 100);
}

}  // namespace
}  // namespace ttsim::sim
