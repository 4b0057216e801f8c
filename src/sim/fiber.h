// Cooperative fibers: user-space contexts switched on the scheduler's thread.
//
// A fiber is a saved stack pointer plus its own fixed-size stack (mmap'd,
// with a PROT_NONE guard page below it). Resume() switches from the
// scheduler into the fiber; the fiber hands control back with
// SwitchToScheduler() or by finishing. All of it runs on the one OS thread
// that called Environment::Run, so exactly one of {scheduler, one fiber}
// executes at any moment by construction. Because every transfer is
// explicit and the scheduler picks successors deterministically, an
// execution is a pure function of (program, seed, director) — the property
// the whole toolkit rests on.
//
// A switch is a few instructions of x86-64 assembly (callee-saved
// registers, the floating-point control words, the stack pointer) and makes
// no system call. A finished fiber's stack goes back to a per-thread pool
// that the next spawn on that thread draws from, so a spawn maps memory
// only when the pool is empty. x86-64 only: other architectures fail to
// compile until the switch is ported.

#ifndef SRC_SIM_FIBER_H_
#define SRC_SIM_FIBER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace ddr {

// Thrown inside a fiber to unwind it when the environment tears it down
// (program end, node crash, abort). Deliberately not derived from
// std::exception so that application-level catch(std::exception&) blocks do
// not swallow it. Simulated code must not use catch(...).
struct FiberKilled {};

// Why a blocked fiber resumed.
enum class WakeReason : uint8_t {
  kNotified = 0,
  kTimeout = 1,
  kKilled = 2,
};

class Fiber {
 public:
  enum class State : uint8_t {
    kRunnable,
    kRunning,
    kBlocked,
    kFinished,
  };

  // Usable stack per fiber, excluding the guard page. The deepest fiber
  // stack measured over every suite, scenario and figure bench is ~8 KiB
  // (~18 KiB under ASan); untouched pages are never committed. Overflowing
  // it faults on the guard page instead of corrupting memory.
  static constexpr size_t kStackBytes = 256 * 1024;
  // Finished fibers' stacks each thread keeps for reuse. Their touched
  // pages stay committed, so idle stacks hold at most
  // kIdleStacksPerThread x kStackBytes (16 MiB) per thread, and in practice
  // kIdleStacksPerThread x the deepest use (~0.5 MiB).
  static constexpr size_t kIdleStacksPerThread = 64;

  Fiber(FiberId id, NodeId node, std::string name);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Takes a stack from the pool (or maps one); `trampoline` runs at the
  // first Resume().
  void Launch(std::function<void()> trampoline);

  // Scheduler -> fiber control transfer. Returns when the fiber calls
  // SwitchToScheduler() or its trampoline returns; in the latter case the
  // trampoline is destroyed and the stack returned to the pool here.
  void Resume();
  // Fiber -> scheduler control transfer. Returns at the next Resume().
  void SwitchToScheduler();

  FiberId id() const { return id_; }
  NodeId node() const { return node_; }
  const std::string& name() const { return name_; }

  State state() const { return state_; }
  void set_state(State state) { state_ = state; }

  bool kill_requested() const { return kill_requested_; }
  void request_kill() { kill_requested_ = true; }

  WakeReason wake_reason() const { return wake_reason_; }
  void set_wake_reason(WakeReason reason) { wake_reason_ = reason; }

  // Monotonic counter distinguishing successive blocking episodes, so stale
  // timers cannot wake a later, unrelated wait.
  uint64_t block_generation() const { return block_generation_; }
  void bump_block_generation() { ++block_generation_; }

  // Object this fiber is currently blocked on (kInvalidObject for sleeps).
  ObjectId blocked_on() const { return blocked_on_; }
  void set_blocked_on(ObjectId obj) { blocked_on_ = obj; }

  // Current code-region stack (top = innermost region).
  std::vector<RegionId>& region_stack() { return region_stack_; }
  RegionId current_region() const {
    return region_stack_.empty() ? kDefaultRegion : region_stack_.back();
  }

  // Fibers waiting in Join() on this fiber.
  std::vector<FiberId>& joiners() { return joiners_; }

 private:
  // Saved stack pointers, stack mapping and trampoline; defined in
  // fiber.cc, the only file that switches stacks.
  struct Context;
  // First code to run on a new fiber's stack; never returns.
  static void Entry(Fiber* f);

  const FiberId id_;
  const NodeId node_;
  const std::string name_;

  State state_ = State::kRunnable;
  bool kill_requested_ = false;
  WakeReason wake_reason_ = WakeReason::kNotified;
  uint64_t block_generation_ = 0;
  ObjectId blocked_on_ = kInvalidObject;

  std::vector<RegionId> region_stack_;
  std::vector<FiberId> joiners_;

  // Non-null from Launch() until the trampoline returns.
  std::unique_ptr<Context> context_;
};

}  // namespace ddr

#endif  // SRC_SIM_FIBER_H_
