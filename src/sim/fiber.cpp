#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <system_error>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PICPAR_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PICPAR_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PICPAR_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PICPAR_FIBER_TSAN 1
#endif
#endif

#ifdef PICPAR_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PICPAR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace picpar::sim {
namespace {

/// The per-thread exception-handling globals of the Itanium C++ ABI
/// (section 2.2.2): the chain of caught exceptions and the count of thrown,
/// not yet caught ones. Each fiber keeps its own copy, swapped in and out
/// at every switch, so `throw;`, std::current_exception and
/// std::uncaught_exceptions see the running rank's state.
struct EhGlobals {
  void* caught;
  unsigned int uncaught;
};

void save_eh(EhGlobals& into) {
  std::memcpy(&into, abi::__cxa_get_globals(), sizeof(EhGlobals));
}

void load_eh(const EhGlobals& from) {
  std::memcpy(static_cast<void*>(abi::__cxa_get_globals()), &from,
              sizeof(EhGlobals));
}

struct Fiber {
  ucontext_t ctx{};
  void* map = nullptr;  ///< stack mapping, guard page first; null = main
  EhGlobals eh{};
  bool started = false;
#ifdef PICPAR_FIBER_TSAN
  void* tsan = nullptr;
#endif
};

}  // namespace

struct FiberSet::Impl {
  std::vector<Fiber> fibers;  ///< sized once; ucontext_t must not move
  Fiber main;
  Entry entry = nullptr;
  void* arg = nullptr;
  std::size_t page = 0;
  int switching_from = -1;  ///< fiber that issued the switch in progress
  int entering = -1;        ///< fiber being entered for the first time
  /// The set whose fiber is being entered for the first time on this
  /// thread: makecontext can pass the entry only int arguments.
  static thread_local Impl* entering_set;
#ifdef PICPAR_FIBER_ASAN
  const void* main_bottom = nullptr;
  std::size_t main_size = 0;
#endif

  Fiber& at(int i) {
    return i < 0 ? main : fibers[static_cast<std::size_t>(i)];
  }

  char* stack_lo(const Fiber& f) const {
    return static_cast<char*>(f.map) + page;
  }

  std::size_t map_bytes() const { return page + kStackBytes; }

  void release_all() {
    for (Fiber& f : fibers) {
      if (f.map) munmap(f.map, map_bytes());
#ifdef PICPAR_FIBER_TSAN
      if (f.tsan) __tsan_destroy_fiber(f.tsan);
#endif
    }
  }

  void map_stack(Fiber& f) {
    const std::size_t bytes = map_bytes();
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (p == MAP_FAILED)
      throw std::system_error(errno, std::generic_category(),
                              "FiberSet: mapping a rank stack");
    if (mprotect(p, page, PROT_NONE) != 0) {
      const int err = errno;
      munmap(p, bytes);
      throw std::system_error(err, std::generic_category(),
                              "FiberSet: protecting a stack guard page");
    }
    f.map = p;
  }

  /// Sanitizer bookkeeping on arrival in a fiber; `fake` is what the
  /// arriving side saved when it last left (nullptr on first entry).
  void arrived(void* fake) {
#ifdef PICPAR_FIBER_ASAN
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake, &bottom, &size);
    if (switching_from < 0) {
      main_bottom = bottom;
      main_size = size;
    }
#else
    (void)fake;
#endif
  }

  /// Sanitizer bookkeeping just before leaving for `to`; `fake` receives
  /// the leaving fiber's fake stack (nullptr = leaving for good).
  void leaving(int to, void** fake) {
#ifdef PICPAR_FIBER_ASAN
    const Fiber& t = at(to);
    if (to < 0)
      __sanitizer_start_switch_fiber(fake, main_bottom, main_size);
    else
      __sanitizer_start_switch_fiber(fake, stack_lo(t), kStackBytes);
#else
    (void)fake;
#endif
#ifdef PICPAR_FIBER_TSAN
    __tsan_switch_to_fiber(at(to).tsan, 0);
#else
    (void)to;
#endif
  }

  /// Mark `to` started; on its first entry, tell the trampoline where it is.
  void entering_fiber(int to) {
    Fiber& t = at(to);
    if (t.started) return;
    t.started = true;
    entering_set = this;
    entering = to;
  }

  static void trampoline() {
    Impl* self = entering_set;
    const int index = self->entering;
    self->arrived(nullptr);
    self->entry(self->arg, index);
    std::abort();  // Entry contract: a fiber ends with exit_to, never return
  }
};

thread_local FiberSet::Impl* FiberSet::Impl::entering_set = nullptr;

FiberSet::FiberSet() : impl_(std::make_unique<Impl>()) {
  impl_->page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  impl_->main.started = true;
}

FiberSet::~FiberSet() { impl_->release_all(); }

void FiberSet::reset(int n, Entry entry, void* arg) {
  Impl& s = *impl_;
  if (s.fibers.size() != static_cast<std::size_t>(n)) {
    s.release_all();
    s.fibers = std::vector<Fiber>(static_cast<std::size_t>(n));
  }
  s.entry = entry;
  s.arg = arg;
#ifdef PICPAR_FIBER_TSAN
  s.main.tsan = __tsan_get_current_fiber();
#endif
  for (int i = 0; i < n; ++i) {
    Fiber& f = s.fibers[static_cast<std::size_t>(i)];
    if (!f.map) s.map_stack(f);
#ifdef PICPAR_FIBER_TSAN
    if (!f.tsan) f.tsan = __tsan_create_fiber(0);
#endif
    f.started = false;
    f.eh = EhGlobals{};
    if (getcontext(&f.ctx) != 0)
      throw std::system_error(errno, std::generic_category(),
                              "FiberSet: getcontext");
    f.ctx.uc_stack.ss_sp = s.stack_lo(f);
    f.ctx.uc_stack.ss_size = kStackBytes;
    f.ctx.uc_link = nullptr;
    makecontext(&f.ctx, &Impl::trampoline, 0);
  }
}

void FiberSet::switch_to(int from, int to) {
  Impl& s = *impl_;
  Fiber& a = s.at(from);
  Fiber& b = s.at(to);
  save_eh(a.eh);
  load_eh(b.eh);
  s.entering_fiber(to);
  s.switching_from = from;
  void* fake = nullptr;
  s.leaving(to, &fake);
  // Fails only on an invalid context, which would leave no rank to run.
  if (swapcontext(&a.ctx, &b.ctx) != 0) std::abort();
  s.arrived(fake);
}

void FiberSet::exit_to(int from, int to) {
  Impl& s = *impl_;
  Fiber& b = s.at(to);
  load_eh(b.eh);
  s.entering_fiber(to);
  s.switching_from = from;
#ifdef PICPAR_FIBER_ASAN
  // The exiting frames never return, so their stack redzones would stay
  // poisoned under the next run's frames; clear them now.
  __asan_handle_no_return();
#endif
  s.leaving(to, nullptr);
  setcontext(&b.ctx);
  std::abort();  // setcontext returns only on failure
}

}  // namespace picpar::sim
