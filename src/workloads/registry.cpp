#include "workloads/workload.h"

#include <cstring>

namespace sealpk::wl {

const char* suite_name(Suite suite) {
  switch (suite) {
    case Suite::kSpec2000: return "SPECint2000";
    case Suite::kSpec2006: return "SPECint2006";
    case Suite::kMiBench: return "MiBench";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  // Figure 5's x-axis order. test_scale keeps unit tests fast;
  // bench_scale drives the Figure-5 harness.
  static const std::vector<Workload> kWorkloads = {
      // SPECint2000
      {"bzip2", Suite::kSpec2000, build_bzip2_2000, golden_bzip2_2000, 1, 4},
      {"vpr", Suite::kSpec2000, build_vpr, golden_vpr, 1, 4},
      {"gzip", Suite::kSpec2000, build_gzip, golden_gzip, 1, 4},
      {"parser", Suite::kSpec2000, build_parser, golden_parser, 1, 4},
      {"gap", Suite::kSpec2000, build_gap, golden_gap, 1, 4},
      {"mcf", Suite::kSpec2000, build_mcf, golden_mcf, 1, 4},
      // SPECint2006
      {"libquantum", Suite::kSpec2006, build_libquantum, golden_libquantum,
       1, 4},
      {"bzip2", Suite::kSpec2006, build_bzip2_2006, golden_bzip2_2006, 1, 4},
      {"sjeng", Suite::kSpec2006, build_sjeng, golden_sjeng, 1, 2},
      {"h264ref", Suite::kSpec2006, build_h264ref, golden_h264ref, 1, 2},
      // MiBench
      {"sha", Suite::kMiBench, build_sha, golden_sha, 1, 4},
      {"qsort", Suite::kMiBench, build_qsort, golden_qsort, 1, 4},
      {"dijkstra", Suite::kMiBench, build_dijkstra, golden_dijkstra, 1, 3},
      {"FFT", Suite::kMiBench, build_fft, golden_fft, 1, 4},
      {"patricia", Suite::kMiBench, build_patricia, golden_patricia, 1, 4},
      {"bitcount", Suite::kMiBench, build_bitcount, golden_bitcount, 1, 4},
      {"stringsearch", Suite::kMiBench, build_stringsearch,
       golden_stringsearch, 1, 4},
  };
  return kWorkloads;
}

const Workload* find_workload(Suite suite, const char* name) {
  for (const auto& w : all_workloads()) {
    if (w.suite == suite && std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

}  // namespace sealpk::wl
