#ifndef PPN_COMMON_PARALLEL_H_
#define PPN_COMMON_PARALLEL_H_

#include <cstdint>

/// \file
/// Coordination between the two layers of parallelism in the library:
/// coarse-grained experiment cells run on `exec::ThreadPool` workers, and
/// fine-grained OpenMP loops inside the tensor/nn kernels. Nesting both
/// oversubscribes the machine (every pool worker would spawn its own OpenMP
/// team), so pool workers that saturate the hardware disable the inner
/// OpenMP path through the thread-local flag defined here.
///
/// The flag only gates WHETHER a kernel loop runs on an OpenMP team; every
/// kernel computes each output element with the same per-element operation
/// order either way, so results are bit-identical with the flag on or off.

namespace ppn {

/// True when the calling thread may use OpenMP inside tensor/nn kernels.
/// Defaults to true on every thread.
bool InnerParallelEnabled();

/// Sets the calling thread's inner-parallelism flag; returns the previous
/// value. Used by `exec::ThreadPool` workers.
bool SetInnerParallelEnabled(bool enabled);

/// RAII scope that disables inner parallelism on the current thread.
class ScopedInnerParallelDisable {
 public:
  ScopedInnerParallelDisable() : previous_(SetInnerParallelEnabled(false)) {}
  ~ScopedInnerParallelDisable() { SetInnerParallelEnabled(previous_); }

  ScopedInnerParallelDisable(const ScopedInnerParallelDisable&) = delete;
  ScopedInnerParallelDisable& operator=(const ScopedInnerParallelDisable&) =
      delete;

 private:
  bool previous_;
};

/// Number of hardware threads (>= 1); `std::thread::hardware_concurrency`
/// with a floor of 1.
int HardwareThreads();

/// Runs body(i) for every i in [0, n): on an OpenMP team with a static
/// schedule when `parallel` is true, else as a plain loop that never
/// enters the OpenMP runtime (even a one-thread region costs ~0.4 us,
/// more than many small kernel calls). Callers pass bodies whose
/// iterations write disjoint outputs, so both branches give the same bits.
template <class Body>
void ParallelFor(int64_t n, bool parallel, const Body& body) {
#ifdef _OPENMP
  if (parallel) {
#pragma omp parallel for schedule(static)
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
#else
  (void)parallel;
#endif
  for (int64_t i = 0; i < n; ++i) body(i);
}

}  // namespace ppn

#endif  // PPN_COMMON_PARALLEL_H_
