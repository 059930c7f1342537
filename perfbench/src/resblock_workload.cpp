// paper_resblock: the paper's design point — transformer-base (d_model 512,
// h 8, d_ff 2048), s = 64, batch 1 — through Accelerator::run_mha + run_ffn
// (bit-exact INT8 plus the Algorithm 1 cycle schedule), with time_mha /
// time_ffn beside them. Every call's output is checked against the
// quantized functional models MhaQuantized::forward / FfnQuantized::forward.
#include <cmath>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "core/accelerator.hpp"
#include "probes.hpp"
#include "tensor/ops.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace tfacc;

constexpr std::uint64_t kWeightSeed = 0x7fac5120ULL;
constexpr int kSeqLen = 64;
constexpr int kInputs = 4;        // distinct activations cycled through
constexpr int kCalibSamples = 2;  // per block
constexpr int kPairsPerSample = 8;  // pairs timed together for one rate
// Section V.B of the paper: cycles of one ResBlock at s = 64, batch 1.
constexpr double kPaperMhaCycles = 21344.0;
constexpr double kPaperFfnCycles = 42099.0;

struct Blocks {
  MhaQuantized mha;
  FfnQuantized ffn;
};

MatF normal_matrix(int rows, int cols, Rng& rng) {
  MatF m(rows, cols);
  fill_normal(m, rng, 0.0f, 1.0f);
  return m;
}

// Block build = INT8 calibration of both ResBlocks: the workload's set-up.
Blocks build_blocks(const MhaWeights& mw, const FfnWeights& fw,
                    const std::vector<MatF>& calib) {
  MhaQuantized::Calibration mc;
  for (const MatF& x : calib) {
    mc.q.push_back(x);
    mc.kv.push_back(x);
    mc.mask.push_back(no_mask(kSeqLen, kSeqLen));
  }
  return {MhaQuantized::build(mw, mc, SoftmaxImpl::kHardware),
          FfnQuantized::build(fw, calib)};
}

}  // namespace

Result run_paper_resblock(const Options& opt) {
  const ModelConfig cfg = ModelConfig::transformer_base();
  Rng wrng(kWeightSeed);
  const MhaWeights mw = MhaWeights::random(cfg, wrng);
  const FfnWeights fw = FfnWeights::random(cfg, wrng);
  Rng rng(opt.seed);
  std::vector<MatF> calib, xs;
  for (int i = 0; i < kCalibSamples; ++i)
    calib.push_back(normal_matrix(kSeqLen, cfg.d_model, rng));
  for (int i = 0; i < kInputs; ++i)
    xs.push_back(normal_matrix(kSeqLen, cfg.d_model, rng));

  Result r = opt.trace ? per_layer_template() : end_to_end_template();
  std::vector<double> setups;
  std::optional<Blocks> blocks;
  for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
    blocks.reset();
    const double t0 = now_s();
    blocks.emplace(build_blocks(mw, fw, calib));
    setups.push_back(now_s() - t0);
  }
  const MhaQuantized& qm = blocks->mha;
  const FfnQuantized& qf = blocks->ffn;
  const Mask mask = no_mask(kSeqLen, kSeqLen);

  // Oracle outputs of the quantized functional models.
  std::vector<MatI8> mha_in, ffn_in, mha_want, ffn_want;
  for (const MatF& x : xs) {
    mha_in.push_back(qm.quantize_q(x));
    ffn_in.push_back(qf.quantize_in(x));
    mha_want.push_back(qm.forward(mha_in.back(), mha_in.back(), mask));
    ffn_want.push_back(qf.forward(ffn_in.back()));
  }

  const Accelerator acc;
  const RunReport mha_timing = acc.time_mha(kSeqLen, kSeqLen, cfg.d_model,
                                            cfg.num_heads);
  const RunReport ffn_timing = acc.time_ffn(kSeqLen, cfg.d_model, cfg.d_ff);

  // One checked MHA + FFN pair on the next input: a failure if either
  // output differs from the oracle or either run's cycles from the
  // timing-only model. `corrupt` flips one output byte (self-test).
  long pair = 0;
  const auto run_pair = [&](bool corrupt) {
    const std::size_t i = static_cast<std::size_t>(pair++ % kInputs);
    Accelerator::MhaResult m = acc.run_mha(qm, mha_in[i], mha_in[i], mask);
    const Accelerator::FfnResult f = acc.run_ffn(qf, ffn_in[i]);
    if (corrupt) m.out(0, 0) = static_cast<std::int8_t>(~m.out(0, 0));
    r.check(m.out == mha_want[i] &&
                  m.report.total_cycles == mha_timing.total_cycles,
              "run_mha differs from MhaQuantized::forward / time_mha");
    r.check(f.out == ffn_want[i] &&
                  f.report.total_cycles == ffn_timing.total_cycles,
              "run_ffn differs from FfnQuantized::forward / time_ffn");
  };

  // Warm-up, then timed samples of kPairsPerSample pairs until the budget
  // is spent. The output checks are a few µs against a ~10 ms pair, so
  // they stay inside the timed region.
  run_pair(false);
  std::vector<double> rates;
  const double deadline = now_s() + opt.seconds;
  do {
    const double t0 = now_s();
    for (int k = 0; k < kPairsPerSample; ++k) run_pair(false);
    rates.push_back(kPairsPerSample / (now_s() - t0));
  } while (now_s() < deadline);

  if (opt.trace) {
    // Traced runner: the same calls, each in a span; untraced and traced
    // rounds alternate so the recorder's overhead is measured.
    Tracer tr;
    constexpr int kPairs = 6;  // per round
    double untraced = 0, traced = 0;
    std::int64_t traced_ns = 0;
    Tracer best;
    for (int round = 0; round < 2; ++round) {
      for (const bool on : {false, true}) {
        tr.set_enabled(on);
        tr.clear();
        const std::int64_t n0 = Tracer::now_ns();
        for (int k = 0; k < kPairs; ++k) {
          const std::size_t i = static_cast<std::size_t>(k % kInputs);
          Scope pair_span(tr, "runner.pair", k);
          MatI8 mo, fo;
          {
            Scope s(tr, "core.run_mha", k);
            mo = acc.run_mha(qm, mha_in[i], mha_in[i], mask).out;
          }
          {
            Scope s(tr, "core.run_ffn", k);
            fo = acc.run_ffn(qf, ffn_in[i]).out;
          }
          {
            Scope s(tr, "core.time_mha", k);
            (void)acc.time_mha(kSeqLen, kSeqLen, cfg.d_model, cfg.num_heads);
          }
          {
            Scope s(tr, "core.time_ffn", k);
            (void)acc.time_ffn(kSeqLen, cfg.d_model, cfg.d_ff);
          }
          r.check(mo == mha_want[i] && fo == ffn_want[i],
                  on ? "traced runner output differs"
                     : "untraced runner output differs");
        }
        const std::int64_t wall = Tracer::now_ns() - n0;
        const double s = static_cast<double>(wall) / 1e9;
        if (!on && (round == 0 || s < untraced)) untraced = s;
        if (on && (round == 0 || s < traced)) {
          traced = s;
          traced_ns = wall;
          best = tr;
        }
      }
    }
    const auto per_call_us = [&](const char* name) {
      return static_cast<double>(best.total_ns(name)) / 1e3 / kPairs;
    };
    r.set("core.run_mha_ms", per_call_us("core.run_mha") / 1e3);
    r.set("core.run_ffn_ms", per_call_us("core.run_ffn") / 1e3);
    r.set("core.time_mha_us", per_call_us("core.time_mha"));
    r.set("core.time_ffn_us", per_call_us("core.time_ffn"));
    r.set("trace.coverage", static_cast<double>(best.top_level_ns()) /
                                static_cast<double>(traced_ns));
    r.set("trace.overhead", traced / untraced);

    const double mha_c = static_cast<double>(mha_timing.total_cycles);
    const double ffn_c = static_cast<double>(ffn_timing.total_cycles);
    r.set("core.mha_cycles", mha_c);
    r.set("core.ffn_cycles", ffn_c);
    r.set("core.paper_cycle_error_pct",
          100.0 * std::max(std::fabs(mha_c - kPaperMhaCycles) /
                               kPaperMhaCycles,
                           std::fabs(ffn_c - kPaperFfnCycles) /
                               kPaperFfnCycles));
    const double total = mha_c + ffn_c;
    r.set("sim.makespan_cycles", total);
    r.set("sim.sa_busy_cycles",
          static_cast<double>(mha_timing.sa_busy + ffn_timing.sa_busy));
    r.set("sim.sa_utilization",
          static_cast<double>(mha_timing.sa_busy + ffn_timing.sa_busy) /
              total);
    r.set("sim.softmax_stall_cycles",
          static_cast<double>(mha_timing.softmax_stall +
                              ffn_timing.softmax_stall));
    r.set("sim.boundary_stall_cycles",
          static_cast<double>(mha_timing.boundary_stall +
                              ffn_timing.boundary_stall));
    r.set("sim.modeled_sent_per_s", acc.config().clock_mhz * 1e6 / total);

    const double t0 = now_s();
    (void)build_blocks(mw, fw, calib);
    r.set("quant.calibrate_s", now_s() - t0);

    GemmCensus census(cfg);
    census.mha_full(kSeqLen, kSeqLen);
    census.ffn(kSeqLen);
    const GemmReplay gemms = replay_gemms(census);
    r.set("tensor.gemm_i8.gmac_per_s", gemms.i8_gmac_per_s);
    r.set("tensor.gemm_i8.bytes", gemms.i8_bytes);
    r.set("hwarith.softmax_row_ns", softmax_row_ns(kSeqLen));
    r.set("hwarith.layernorm_row_ns", layernorm_row_ns(cfg.d_model));

    write_traced_run(opt.out_dir, "paper_resblock", opt.seed, best, traced_ns,
                     gemms);
  } else {
    describe_samples("wall_sent_per_s", rates);
    describe_samples("setup_s", setups);
    r.set("wall_sent_per_s", median(rates));
    r.set("setup_s", median(setups));
  }

  if (opt.inject_faults) {
    // Self-test: one corrupted output and one malformed call (a query row
    // width that does not match the block) must both land in `failed`.
    run_pair(true);
    try {
      (void)acc.run_mha(qm, MatI8(kSeqLen, cfg.d_model / 2), mha_in[0], mask);
      r.check(true, "");
    } catch (const std::exception& e) {
      r.check(false, std::string("injected exception: ") + e.what());
    }
  }
  if (!opt.trace) r.set("peak_rss_mb", peak_rss_mb());
  return r;
}

}  // namespace perfbench
