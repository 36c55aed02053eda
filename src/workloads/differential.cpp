#include "workloads/differential.hpp"

#include <exception>
#include <string>
#include <utility>

#include "pipeline/driver.hpp"
#include "pipeline/session.hpp"
#include "sim/baseline_hash.hpp"

namespace asipfb::wl {

namespace {

std::string mismatch(const std::string& where, const Workload& w) {
  return w.name + ": " + where;
}

}  // namespace

DifferentialOutcome check_workload(const Workload& w,
                                   const DifferentialOptions& options) {
  DifferentialOutcome out;
  pipeline::PreparedProgram prepared;
  try {
    prepared = pipeline::prepare(w.source, w.name, w.input);
  } catch (const std::exception& e) {
    out.error = mismatch(std::string("compile failed: ") + e.what(), w);
    return out;
  }
  out.compiled = true;

  const auto base = pipeline::execute(prepared.module, w.input, w.outputs);

  out.oracle_ok = true;
  if (options.check_oracle) {
    if (!w.expected_exit.has_value()) {
      out.oracle_ok = false;
      out.error = mismatch("workload carries no oracle expectations", w);
    } else if (base.exit_code != *w.expected_exit) {
      out.oracle_ok = false;
      out.error = mismatch("oracle exit code mismatch", w);
    } else {
      for (const auto& [global, words] : w.expected) {
        const auto it = base.outputs.find(global);
        if (it == base.outputs.end() || it->second != words) {
          out.oracle_ok = false;
          out.error = mismatch("oracle mismatch on global " + global, w);
          break;
        }
      }
    }
  }

  out.fusion_ok = true;
  if (options.check_fusion) {
    // jit=false on both sides: this leg compares the two interpreter
    // tiers, not the native tier (the jit leg below covers that).
    ir::Module fused_m = prepared.module;
    ir::Module unfused_m = prepared.module;
    const auto fused = pipeline::execute(fused_m, w.input, w.outputs,
                                         /*profile=*/true, /*fuse=*/true,
                                         /*jit=*/false);
    const auto unfused = pipeline::execute(unfused_m, w.input, w.outputs,
                                           /*profile=*/true, /*fuse=*/false,
                                           /*jit=*/false);
    if (fused.exit_code != unfused.exit_code || fused.steps != unfused.steps ||
        fused.cycles != unfused.cycles || fused.oob_loads != unfused.oob_loads ||
        fused.outputs != unfused.outputs) {
      out.fusion_ok = false;
      if (out.error.empty()) out.error = mismatch("fused vs unfused divergence", w);
    } else if (sim::profile_hash(fused_m) != sim::profile_hash(unfused_m)) {
      out.fusion_ok = false;
      if (out.error.empty()) {
        out.error = mismatch("fused vs unfused profile-hash divergence", w);
      }
    }
  }

  out.jit_ok = true;
  if (options.check_jit) {
    // Native tier vs the unfused interpreter oracle.  On builds where the
    // JIT is unavailable both runs interpret — vacuously equal, matching
    // the tier's fallback contract.
    ir::Module jit_m = prepared.module;
    ir::Module interp_m = prepared.module;
    const auto jitted = pipeline::execute(jit_m, w.input, w.outputs,
                                          /*profile=*/true, /*fuse=*/false,
                                          /*jit=*/true);
    const auto interp = pipeline::execute(interp_m, w.input, w.outputs,
                                          /*profile=*/true, /*fuse=*/false,
                                          /*jit=*/false);
    if (jitted.exit_code != interp.exit_code || jitted.steps != interp.steps ||
        jitted.cycles != interp.cycles ||
        jitted.oob_loads != interp.oob_loads ||
        jitted.outputs != interp.outputs) {
      out.jit_ok = false;
      if (out.error.empty()) out.error = mismatch("jit vs interpreter divergence", w);
    } else if (sim::profile_hash(jit_m) != sim::profile_hash(interp_m)) {
      out.jit_ok = false;
      if (out.error.empty()) {
        out.error = mismatch("jit vs interpreter profile-hash divergence", w);
      }
    }
  }

  out.levels_ok = true;
  if (options.check_levels) {
    const pipeline::Session session(std::move(prepared));
    for (auto level : {opt::OptLevel::O1, opt::OptLevel::O2}) {
      ir::Module variant;
      try {
        variant = session.optimized(level);
      } catch (const std::exception& e) {
        out.levels_ok = false;
        if (out.error.empty()) {
          out.error = mismatch(std::string(opt::to_string(level)) +
                                   " optimization failed: " + e.what(),
                               w);
        }
        break;
      }
      const auto run = pipeline::execute(variant, w.input, w.outputs);
      if (run.exit_code != base.exit_code || run.outputs != base.outputs) {
        out.levels_ok = false;
        if (out.error.empty()) {
          out.error = mismatch(std::string(opt::to_string(level)) +
                                   " vs baseline divergence",
                               w);
        }
        break;
      }
    }
  }

  return out;
}

}  // namespace asipfb::wl
