#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/logging.h"

#if !defined(__x86_64__)
#error "ddr::Fiber's stack switch is x86-64 SysV assembly; port ddr_fiber_switch and the first-frame layout in Fiber::Launch to this architecture"
#endif

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
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef DDR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// ddr_fiber_switch(save_sp, load_sp): pushes the callee-saved registers
// (rbp, rbx, r12-r15) and the MXCSR and x87 control words on the running
// stack, stores the stack pointer in *save_sp, loads load_sp, and pops the
// same frame from there. Everything else is caller-saved under the SysV
// ABI, so the compiler already spills it around the call. No signal mask
// is touched: a switch makes no system call.
//
// ddr_fiber_start is where a new fiber's first switch "returns" to (see
// Fiber::Launch): it calls entry(arg), with entry in r13 and arg in r12,
// and is marked as the outermost frame for unwinders.
//
// Written as top-level asm in this translation unit, not a separate .S
// file, so the object keeps the compiler's non-executable-stack note.
extern "C" {
void ddr_fiber_switch(void** save_sp, void* load_sp);
void ddr_fiber_start();
}

asm(R"(
  .pushsection .text
  .globl ddr_fiber_switch
  .hidden ddr_fiber_switch
  .type ddr_fiber_switch, @function
  .p2align 4
ddr_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw 12(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw 12(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size ddr_fiber_switch, .-ddr_fiber_switch

  .globl ddr_fiber_start
  .hidden ddr_fiber_start
  .type ddr_fiber_start, @function
  .p2align 4
ddr_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size ddr_fiber_start, .-ddr_fiber_start
  .popsection
)");

namespace ddr {

namespace {

size_t GuardBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t MappingBytes() { return GuardBytes() + Fiber::kStackBytes; }

// Finished fibers' stack mappings, kept per thread for the next spawn so a
// fiber's life costs no mmap/mprotect/munmap and its stack pages are
// already faulted in. Each mapping keeps its guard page. The pool lives as
// long as its thread; fibers are created and finish on the thread that
// runs their Environment, so a mapping goes back to the pool it came from.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  ~StackPool() {
    for (void* mapping : idle_) {
      munmap(mapping, MappingBytes());
    }
  }

  void* Acquire() {
    void* mapping = nullptr;
    if (!idle_.empty()) {
      mapping = idle_.back();
      idle_.pop_back();
    } else {
      mapping = mmap(nullptr, MappingBytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
      CHECK(mapping != MAP_FAILED) << "fiber stack mmap failed";
      CHECK_EQ(mprotect(mapping, GuardBytes(), PROT_NONE), 0)
          << "fiber stack guard page";
    }
#ifdef DDR_FIBER_ASAN
    // A previous owner's frames may still be poisoned: an exited fiber
    // never returns through its bottom frames. munmap does not clear the
    // shadow either, so a fresh mapping at a recycled address needs this
    // as much as a pooled one.
    ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(mapping) + GuardBytes(),
                                Fiber::kStackBytes);
#endif
    return mapping;
  }

  void Release(void* mapping) {
    if (idle_.size() < Fiber::kIdleStacksPerThread) {
      idle_.push_back(mapping);
    } else {
      munmap(mapping, MappingBytes());
    }
  }

 private:
  std::vector<void*> idle_;
};

StackPool& ThreadStackPool() {
  thread_local StackPool pool;
  return pool;
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
  Context() : mapping(ThreadStackPool().Acquire()) {
#ifdef DDR_FIBER_TSAN
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  ~Context() {
#ifdef DDR_FIBER_TSAN
    __tsan_destroy_fiber(tsan_fiber);
#endif
    ThreadStackPool().Release(mapping);
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  char* stack_bottom() const { return static_cast<char*>(mapping) + GuardBytes(); }

  void* const mapping;  // guard page, then kStackBytes of stack
  void* sp = nullptr;            // the fiber's stack pointer while it is out
  void* scheduler_sp = nullptr;  // where the last Resume() was called from
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
  // The first frame, laid out as ddr_fiber_switch pops it (word offsets
  // from the saved stack pointer), below two zero words at the
  // page-aligned stack top. The `ret` leaves the stack pointer 16 bytes
  // below the top, so ddr_fiber_start's call is aligned as the ABI
  // requires. The zero rbp ends frame-pointer stack walks. The
  // floating-point control words are the launcher's, as getcontext() at
  // this point would have captured them.
  enum : size_t { kFpu = 1, kR15, kR14, kR13, kR12, kRbx, kRbp, kRet, kWords = kRet + 3 };
  auto* frame = reinterpret_cast<uint64_t*>(c->stack_bottom() + kStackBytes) - kWords;
  std::fill_n(frame, kWords, 0);
  uint32_t mxcsr = 0;
  uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  frame[kFpu] = mxcsr | (static_cast<uint64_t>(fpu_cw) << 32);
  frame[kR13] = reinterpret_cast<uintptr_t>(&Fiber::Entry);
  frame[kR12] = reinterpret_cast<uintptr_t>(this);
  frame[kRet] = reinterpret_cast<uintptr_t>(&ddr_fiber_start);
  c->sp = frame;
}

void Fiber::Entry(Fiber* f) {
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
  ddr_fiber_switch(&c->sp, c->scheduler_sp);
  LOG(FATAL) << "exited fiber '" << f->name() << "' was resumed";
}

void Fiber::Resume() {
  Context* c = context_.get();
  CHECK(c != nullptr) << "fiber '" << name_ << "' resumed after exit";
#ifdef DDR_FIBER_TSAN
  c->tsan_scheduler = __tsan_get_current_fiber();
#endif
  void* fake_stack = nullptr;
  BeginSwitch(&fake_stack, c->stack_bottom(), kStackBytes, c->tsan_fiber);
  ddr_fiber_switch(&c->scheduler_sp, c->sp);
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
  ddr_fiber_switch(&c->sp, c->scheduler_sp);
  EndSwitch(fake_stack, &c->scheduler_stack, &c->scheduler_stack_bytes);
}

}  // namespace ddr
