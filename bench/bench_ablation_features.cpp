// E8 — ablations: how many corpus procedures each analysis feature proves.
// Disables one ingredient at a time (exceptional variants, Theorem 5.4
// windows, Theorem 5.5 local conditions, counted-CAS analogues) and counts
// atomic verdicts across the corpus.
//
// Runs through the batch driver with a cache shared across the ablation
// configurations: a program whose analysis options are unchanged by a
// configuration (e.g. one without counted-CAS annotations when the CAS
// analogue is toggled) is re-used from cache instead of re-analyzed, which
// is the driver's "ablation re-runs are near-free" path.
#include <cstdio>
#include <thread>

#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"

using namespace synat;

namespace {

struct Config {
  const char* label;
  bool variants, windows, conds, counted;
};

std::vector<driver::ProgramInput> config_inputs(const Config& cfg) {
  std::vector<driver::ProgramInput> inputs;
  for (const corpus::Entry& e : corpus::all()) {
    // Skip the model-checking drivers (their Init procs are not atomic by
    // design and would add noise).
    std::string_view name = e.name;
    if (name.ends_with("_mc")) continue;
    driver::ProgramInput in;
    in.name = "corpus:" + std::string(name);
    in.source = std::string(e.source);
    in.opts.variant_opts.disable = !cfg.variants;
    in.opts.use_window_rule = cfg.windows;
    in.opts.use_local_conditions = cfg.conds;
    if (cfg.counted)
      for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

int atomic_count(driver::BatchDriver& drv, const Config& cfg, int* total_out,
                 size_t* hits_out) {
  driver::BatchReport report = drv.run(config_inputs(cfg));
  int atomic = 0, total = 0;
  for (const driver::ProgramReport& prog : report.programs) {
    for (const auto& p : prog.procs) {
      ++total;
      if (p->atomic) ++atomic;
    }
  }
  *total_out = total;
  *hits_out = report.metrics.cache_hits;
  return atomic;
}

}  // namespace

int main() {
  std::printf("== E8: ablation of the analysis features over the corpus ==\n\n");
  const Config configs[] = {
      {"full analysis", true, true, true, true},
      {"- exceptional variants", false, true, true, true},
      {"- Theorem 5.4 windows", true, false, true, true},
      {"- Theorem 5.5 local conds", true, true, false, true},
      {"- counted-CAS analogue", true, true, true, false},
      {"none of the above", false, false, false, false},
  };
  driver::DriverOptions dopts;
  unsigned hw = std::thread::hardware_concurrency();
  dopts.jobs = hw == 0 ? 1 : hw;
  driver::ResultCache cache;
  driver::BatchDriver drv(dopts, &cache);
  int full = -1;
  bool ok = true;
  for (const Config& c : configs) {
    int total = 0;
    size_t hits = 0;
    int atomic = atomic_count(drv, c, &total, &hits);
    std::printf("%-28s %2d / %2d procedures proved atomic (%zu cached)\n",
                c.label, atomic, total, hits);
    if (full < 0) {
      full = atomic;
    } else {
      ok &= atomic <= full;  // removing a feature never proves more
    }
  }
  // Re-running the full analysis hits the warm cache for every procedure.
  int total = 0;
  size_t hits = 0;
  int atomic = atomic_count(drv, configs[0], &total, &hits);
  std::printf("\nwarm re-run of the full analysis: %d / %d atomic, "
              "%zu / %d from cache\n", atomic, total, hits, total);
  ok &= atomic == full;

  // Sandboxed cross-check: the same full analysis routed through --isolate
  // workers (fork-per-program supervisor) must prove exactly the same
  // procedures atomic. Throughput is perfbench's (E9).
  driver::DriverOptions iopts = dopts;
  iopts.isolate = true;
  driver::BatchDriver idrv(iopts);
  int itotal = 0;
  size_t ihits = 0;
  int iatomic = atomic_count(idrv, configs[0], &itotal, &ihits);
  std::printf("isolated re-run of the full analysis: %d / %d atomic\n",
              iatomic, itotal);
  ok &= iatomic == full && itotal == total;

  std::printf("\nmonotonicity (no ablation proves more than the full "
              "analysis): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
