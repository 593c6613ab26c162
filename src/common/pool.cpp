#include "common/pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sealpk::pool {

unsigned workers(unsigned threads, size_t n) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(threads, n)));
}

void run(size_t n, unsigned threads,
         const std::function<void(size_t, unsigned)>& cell) {
  const unsigned count = workers(threads, n);
  if (count == 1) {
    for (size_t i = 0; i < n; ++i) cell(i, 0);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<size_t> end{n};  // lowered to the lowest failing index
  std::mutex error_mu;
  std::exception_ptr error;
  auto drain = [&](unsigned worker) {
    // Tickets rise monotonically: every index below a failing one was
    // handed out before it and still runs to completion.
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= end.load()) return;
      try {
        cell(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < end.load()) {
          end.store(i);
          error = std::current_exception();
        }
      }
    }
  };
  {
    // jthreads join on every way out of this scope, a failed spawn too.
    std::vector<std::jthread> team;
    for (unsigned w = 0; w < count; ++w) team.emplace_back(drain, w);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sealpk::pool
