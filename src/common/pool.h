// The one fan-out (DESIGN.md §9). Every batch — the fleet job matrix, the
// vault crash shards and chaos runs, the key-churn cells, the red-team
// suite, the span episodes, the model explorer's frontier chunks — runs
// its cells through pool::run. Cell i writes only slot i of its caller's
// results, so results do not depend on the thread count; dispatch order
// and the `worker` argument carry no determinism.
#pragma once

#include <cstddef>
#include <functional>

namespace sealpk::pool {

// Workers for `n` cells at a --threads value: 0 = one per host hardware
// thread, never more than n, never fewer than 1.
unsigned workers(unsigned threads, size_t n);

// Calls cell(i, worker) once for every i in [0, n) on workers(threads, n)
// threads; one worker runs every cell inline on the calling thread. A host
// exception escaping a cell stops dispatch of later cells; once every
// worker has joined, the lowest failing index's exception is rethrown here
// (every cell below it has run).
void run(size_t n, unsigned threads,
         const std::function<void(size_t, unsigned)>& cell);

}  // namespace sealpk::pool
