// The repo benchmark binary. perfbench/run.py builds and drives it:
//
//   tfacc_bench --workload decode_accel|beam_farm|paper_resblock
//               --seed N --seconds S --trace 0|1 [--inject-faults]
//               [--out-dir DIR]
//
// Inputs come from --seed. --trace 0 measures the end-to-end metrics with
// no tracing; --trace 1 runs the traced per-layer breakdown instead and
// writes a Chrome trace plus a layer breakdown into --out-dir. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the line before it is the host stanza.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "cpu_rotation.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

Result end_to_end_template() {
  Result r;
  r.metrics = {
      {"wall_sent_per_s", 0, "1/s"},
      {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MB"},
  };
  return r;
}

Result per_layer_template() {
  Result r;
  r.metrics = {
      {"serve.packed_steps", 0, "count"},
      {"serve.packed_rows_mean", 0, "rows"},
      {"serve.prefill_chunks", 0, "count"},
      {"serve.card_rows_imbalance", 0, "ratio"},
      {"serve.cpu_per_wall", 0, "ratio"},
      {"quant.calibrate_s", 0, "s"},
      {"quant.mha_self_us", 0, "us"},
      {"quant.mha_cross_us", 0, "us"},
      {"quant.ffn_us", 0, "us"},
      {"quant.mha_enc_us", 0, "us"},
      {"quant.ffn_enc_us", 0, "us"},
      {"core.mha_self_us", 0, "us"},
      {"core.mha_cross_us", 0, "us"},
      {"core.ffn_us", 0, "us"},
      {"core.mha_enc_us", 0, "us"},
      {"core.ffn_enc_us", 0, "us"},
      {"core.run_mha_ms", 0, "ms"},
      {"core.run_ffn_ms", 0, "ms"},
      {"core.time_mha_us", 0, "us"},
      {"core.time_ffn_us", 0, "us"},
      {"core.mha_cycles", 0, "cycles"},
      {"core.ffn_cycles", 0, "cycles"},
      {"core.paper_cycle_error_pct", 0, "%"},
      {"reference.encode_us", 0, "us"},
      {"reference.begin_decode_us", 0, "us"},
      {"reference.decode_step_us", 0, "us"},
      {"reference.search_advance_us", 0, "us"},
      {"sim.step_ledger_us", 0, "us"},
      {"sim.makespan_cycles", 0, "cycles"},
      {"sim.sa_utilization", 0, "ratio"},
      {"sim.sa_busy_cycles", 0, "cycles"},
      {"sim.softmax_stall_cycles", 0, "cycles"},
      {"sim.boundary_stall_cycles", 0, "cycles"},
      {"sim.prefill_stall_cycles", 0, "cycles"},
      {"sim.modeled_sent_per_s", 0, "1/s"},
      {"hwarith.softmax_row_ns", 0, "ns"},
      {"hwarith.layernorm_row_ns", 0, "ns"},
      {"tensor.gemm_i8.gmac_per_s", 0, "GMAC/s"},
      {"tensor.gemm_i8.bytes", 0, "B"},
      {"tensor.gemm_f32.gmac_per_s", 0, "GMAC/s"},
      {"tensor.gemm_f32.bytes", 0, "B"},
      {"trace.coverage", 0, "ratio"},
      {"trace.overhead", 0, "ratio"},
  };
  return r;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "tfacc_bench: %s\nusage: tfacc_bench --workload "
               "decode_accel|beam_farm|paper_resblock --seed N --seconds S "
               "--trace 0|1 [--inject-faults] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (a == "--inject-faults") {
      opt.inject_faults = true;
    } else {
      return usage(("bad argument: " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "decode_accel") run = run_decode_accel;
  if (opt.workload == "beam_farm") run = run_beam_farm;
  if (opt.workload == "paper_resblock") run = run_paper_resblock;
  if (run == nullptr)
    return usage(("unknown workload " + opt.workload).c_str());

  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
  }

  Result r;
  try {
    const CpuRotation rotation;
    r = run(opt);
  } catch (const std::exception& e) {
    // Set-up or the oracle itself failed: no metric can be trusted.
    std::fprintf(stderr, "tfacc_bench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (r.attempted == 0) r.check(false, "nothing was checked");
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "FAILURE: %s\n", f.c_str());

  // Host stanza: a scalar-kernel run or another host must never be compared
  // silently with this one.
  std::printf(
      "{\"host\": {\"cores\": %u, \"kernel\": \"%s\", \"capability\": "
      "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(),
      tfacc::kernels::kind_name(tfacc::kernels::selected()),
      tfacc::kernels::capability(), json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_BUILD_TYPE).c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);

  std::string metrics;
  for (const Metric& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
      "{%s}}\n",
      r.failed == 0 ? "true" : "false", r.attempted, r.failed,
      metrics.c_str());
  return 0;
}
