#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "src/util/logging.h"

// Sanitizers must be told about every stack switch: ASan tracks the bounds
// of the running stack (unwinding a FiberKilled across an unannounced switch
// looks like a stack-buffer-overflow), and TSan keeps a shadow stack and a
// happens-before clock per fiber.
#if defined(__SANITIZE_ADDRESS__)
#define DDR_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DDR_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DDR_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DDR_FIBER_TSAN 1
#endif
#endif

#ifdef DDR_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef DDR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace ddr {

namespace {

size_t GuardBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Announces a switch away from the running stack onto
// [to_bottom, to_bottom + to_bytes). A null `fake_stack` means the running
// stack is never coming back (the fiber is exiting).
void BeginSwitch([[maybe_unused]] void** fake_stack,
                 [[maybe_unused]] const void* to_bottom,
                 [[maybe_unused]] size_t to_bytes,
                 [[maybe_unused]] void* to_tsan_fiber) {
#ifdef DDR_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake_stack, to_bottom, to_bytes);
#endif
#ifdef DDR_FIBER_TSAN
  __tsan_switch_to_fiber(to_tsan_fiber, 0);
#endif
}

// Completes a switch on the stack that was just switched to; optionally
// learns the bounds of the stack that was left.
void EndSwitch([[maybe_unused]] void* fake_stack,
               [[maybe_unused]] const void** from_bottom,
               [[maybe_unused]] size_t* from_bytes) {
#ifdef DDR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, from_bottom, from_bytes);
#endif
}

}  // namespace

struct Fiber::Context {
  Context() {
    mapping_bytes = GuardBytes() + kStackBytes;
    mapping = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    CHECK(mapping != MAP_FAILED) << "fiber stack mmap failed";
    CHECK_EQ(mprotect(mapping, GuardBytes(), PROT_NONE), 0)
        << "fiber stack guard page";
#ifdef DDR_FIBER_TSAN
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  ~Context() {
#ifdef DDR_FIBER_TSAN
    __tsan_destroy_fiber(tsan_fiber);
#endif
    munmap(mapping, mapping_bytes);
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  char* stack_bottom() const { return static_cast<char*>(mapping) + GuardBytes(); }

  void* mapping = nullptr;  // guard page, then kStackBytes of stack
  size_t mapping_bytes = 0;
  ucontext_t self{};       // the fiber's saved registers
  ucontext_t scheduler{};  // where the last Resume() was called from
  std::function<void()> trampoline;
  bool exited = false;
  // The scheduler's stack, as reported by ASan on each switch into the fiber.
  const void* scheduler_stack = nullptr;
  size_t scheduler_stack_bytes = 0;
  void* tsan_fiber = nullptr;
  void* tsan_scheduler = nullptr;
};

Fiber::Fiber(FiberId id, NodeId node, std::string name)
    : id_(id), node_(node), name_(std::move(name)) {}

Fiber::~Fiber() {
  CHECK(context_ == nullptr)
      << "fiber '" << name_ << "' destroyed while not finished";
}

void Fiber::Launch(std::function<void()> trampoline) {
  CHECK(context_ == nullptr) << "fiber launched twice";
  context_ = std::make_unique<Context>();
  Context* c = context_.get();
  c->trampoline = std::move(trampoline);
  CHECK_EQ(getcontext(&c->self), 0);
  c->self.uc_stack.ss_sp = c->stack_bottom();
  c->self.uc_stack.ss_size = kStackBytes;
  c->self.uc_link = nullptr;  // Entry never returns; it setcontext()s out
  // makecontext passes int-sized arguments only: split the pointer.
  const uint64_t self = reinterpret_cast<uintptr_t>(this);
  makecontext(&c->self, reinterpret_cast<void (*)()>(&Fiber::Entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
}

void Fiber::Entry(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>(
      static_cast<uintptr_t>((static_cast<uint64_t>(hi) << 32) | lo));
  Context* c = f->context_.get();
  EndSwitch(nullptr, &c->scheduler_stack, &c->scheduler_stack_bytes);
  // Nothing may unwind past this frame: there is no caller to catch it.
  try {
    c->trampoline();
  } catch (...) {
    LOG(FATAL) << "exception escaped fiber '" << f->name() << "'";
  }
  c->exited = true;
  BeginSwitch(nullptr, c->scheduler_stack, c->scheduler_stack_bytes,
              c->tsan_scheduler);
  setcontext(&c->scheduler);
  LOG(FATAL) << "setcontext returned in fiber '" << f->name() << "'";
}

void Fiber::Resume() {
  Context* c = context_.get();
  CHECK(c != nullptr) << "fiber '" << name_ << "' resumed after exit";
#ifdef DDR_FIBER_TSAN
  c->tsan_scheduler = __tsan_get_current_fiber();
#endif
  void* fake_stack = nullptr;
  BeginSwitch(&fake_stack, c->stack_bottom(), kStackBytes, c->tsan_fiber);
  CHECK_EQ(swapcontext(&c->scheduler, &c->self), 0);
  EndSwitch(fake_stack, nullptr, nullptr);
  if (c->exited) {
    context_.reset();
  }
}

void Fiber::SwitchToScheduler() {
  Context* c = context_.get();
  void* fake_stack = nullptr;
  BeginSwitch(&fake_stack, c->scheduler_stack, c->scheduler_stack_bytes,
              c->tsan_scheduler);
  CHECK_EQ(swapcontext(&c->self, &c->scheduler), 0);
  EndSwitch(fake_stack, &c->scheduler_stack, &c->scheduler_stack_bytes);
}

}  // namespace ddr
