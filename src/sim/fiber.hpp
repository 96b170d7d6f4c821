// Stackful fibers for the sequential scheduler.
//
// A FiberSet owns one execution context per simulated rank plus the
// context of the thread that drives them ("main"). Switching is a direct
// context swap on the calling OS thread (glibc makecontext/swapcontext):
// no kernel wakeup, no lock, and the next rank starts running on the same
// core the previous one left.
//
// Every fiber gets an 8 MiB stack — the default OS-thread stack it
// replaces, so rank programs see no change in how deep they may recurse or
// how large a frame they may declare — mapped MAP_NORESERVE (pages are
// committed only when touched) with an inaccessible guard page below it, so
// an overflow faults instead of silently corrupting the neighbouring stack.
// Stacks are mapped on first use and reused by every later reset() of the
// same set; the destructor unmaps them.
//
// Per-fiber state the C++ runtime keeps per *thread* is switched with the
// stack: the exception-handling globals (the caught-exception chain and the
// uncaught count), so a rank may block inside a catch handler, and the
// AddressSanitizer / ThreadSanitizer notion of the current stack.
#pragma once

#include <cstddef>
#include <memory>

namespace picpar::sim {

class FiberSet {
public:
  /// Bytes of usable stack per fiber (the guard page comes on top).
  static constexpr std::size_t kStackBytes = std::size_t{8} << 20;

  /// Fiber body: entry(arg, index). It must never return — a fiber ends by
  /// calling exit_to() — so its frames may be abandoned on the stack.
  using Entry = void (*)(void* arg, int index);

  FiberSet();
  ~FiberSet();
  FiberSet(const FiberSet&) = delete;
  FiberSet& operator=(const FiberSet&) = delete;

  /// Prepare n fresh fibers, each starting in entry(arg, i) when first
  /// switched to. Must be called from the main context with no fiber
  /// suspended mid-run. Throws std::system_error if a stack cannot be mapped.
  void reset(int n, Entry entry, void* arg);

  /// Suspend `from` and resume `to` (-1 = the main context). Returns once
  /// some fiber switches back to `from`.
  void switch_to(int from, int to);

  /// Final switch of fiber `from`, which is never resumed again; its stack
  /// becomes reusable by the next reset().
  [[noreturn]] void exit_to(int from, int to);

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace picpar::sim
