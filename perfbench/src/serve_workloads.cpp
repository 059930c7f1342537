// The two serve-loop workloads: decode_accel and beam_farm.
//
// Untraced (--trace 0): build the Scheduler several times (setup_s is the
// median), run one discarded warm-up pass, then time Scheduler::run passes
// for --seconds and report the median sentences/s. Every pass's outputs are
// checked against serial translate_greedy / translate_beam on the quantized
// backend, which the serve loop matches bit for bit by contract.
//
// Traced (--trace 1): a benchmark-side runner runs the same sentences
// through ONE card's layers by their public calls (encode, begin_decode,
// decode_step_batch, the backend hooks, DecodeStepFuser::end_step, the
// search machines' advance), with a span around each call, and reports
// per-layer times; its outputs must equal the untraced run's.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "common/check.hpp"
#include "core/backend.hpp"
#include "nlp/synthetic.hpp"
#include "probes.hpp"
#include "reference/search.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace tfacc;

struct ServeSpec {
  const char* name;
  ModelConfig model;
  ServeBackend backend;
  int cards;
  int slots;
  int beam;  ///< 0 = greedy
  int src_min, src_max;
  int max_len;
  int sentences;  ///< per pass
};

// The model weights are fixed; --seed chooses the sentences (and the
// calibration sentences), which is all the program receives as input.
constexpr std::uint64_t kWeightSeed = 0x7fac2020ULL;
constexpr int kCalibSources = 8;
constexpr int kLexicon = 24;

ModelConfig beam_model() {
  ModelConfig m;
  m.name = "beam-farm";
  m.d_model = 256;
  m.num_heads = 4;
  m.head_dim = 64;
  m.d_ff = 1024;
  m.num_encoder_layers = 2;
  m.num_decoder_layers = 2;
  return m;
}

ServeSpec decode_accel_spec() {
  return {"decode_accel", ModelConfig::tiny(), ServeBackend::kAccelerator,
          1,  16, 0, 4, 9, 32, 192};
}

ServeSpec beam_farm_spec() {
  return {"beam_farm", beam_model(), ServeBackend::kQuantized, 2, 16, 4, 16,
          32, 12, 384};
}

struct Inputs {
  TransformerWeights weights;
  std::vector<TokenSeq> calib, sources;
};

Inputs make_inputs(const ServeSpec& s, std::uint64_t seed) {
  const SyntheticTranslationTask task(kLexicon, s.src_min, s.src_max);
  Rng wrng(kWeightSeed);
  Inputs in{TransformerWeights::random(s.model, task.vocab_size(), wrng), {},
            {}};
  Rng rng(seed);
  for (int i = 0; i < kCalibSources; ++i)
    in.calib.push_back(task.sample(rng).source);
  for (int i = 0; i < s.sentences; ++i)
    in.sources.push_back(task.sample(rng).source);
  return in;
}

SchedulerConfig scheduler_config(const ServeSpec& s) {
  SchedulerConfig sc;
  sc.backend = s.backend;
  sc.num_cards = s.cards;
  sc.slots_per_card = s.slots;
  sc.beam_size = s.beam;
  sc.max_len = s.max_len;
  return sc;
}

Transformer::BeamConfig beam_config(const SchedulerConfig& sc) {
  Transformer::BeamConfig b;
  b.beam_size = sc.beam_size;
  b.length_penalty = sc.length_penalty;
  return b;
}

// Serial per-sentence decode on the quantized backend: the oracle.
std::vector<TokenSeq> oracle(const ServeSpec& s, const Inputs& in) {
  const SchedulerConfig sc = scheduler_config(s);
  Transformer model(in.weights);
  const QuantizedTransformer qt = QuantizedTransformer::build(
      model, in.calib, sc.max_len, sc.softmax);
  model.set_backend(qt.backend());
  std::vector<TokenSeq> out;
  for (const TokenSeq& src : in.sources)
    out.push_back(s.beam > 0
                      ? model.translate_beam(src, sc.max_len, beam_config(sc))
                      : model.translate_greedy(src, sc.max_len));
  return out;
}

void check_outputs(Result& r, const std::vector<TokenSeq>& got,
                   const std::vector<TokenSeq>& want, const char* what) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool ok = i < got.size() && got[i] == want[i];
    r.check(ok, ok ? std::string()
                   : std::string(what) + ": sentence " + std::to_string(i) +
                         " differs from the oracle");
  }
}

struct Passes {
  std::vector<double> sent_per_s;
  double wall_s = 0, cpu_s = 0;
  ScheduleReport last;
};

// Timed Scheduler::run passes until `deadline` (at least one).
void timed_passes(Scheduler& sched, const Inputs& in,
                  const std::vector<TokenSeq>& want, double deadline,
                  Result& r, Passes& p) {
  do {
    const double c0 = perfbench::cpu_s(), t0 = now_s();
    ScheduleReport rep;
    try {
      rep = sched.run(in.sources);
    } catch (const std::exception& e) {
      r.check(false, std::string("timed pass threw: ") + e.what());
      continue;
    }
    const double wall = now_s() - t0;
    p.cpu_s += perfbench::cpu_s() - c0;
    p.wall_s += wall;
    p.sent_per_s.push_back(static_cast<double>(in.sources.size()) / wall);
    check_outputs(r, rep.outputs, want, "timed pass");
    p.last = std::move(rep);
  } while (now_s() < deadline);
}

// --- traced single-card runner ----------------------------------------------

// Hook span names: named after the module whose code serves the hook.
struct HookNames {
  const char *mha_self, *mha_cross, *ffn, *mha_enc, *ffn_enc;
};
constexpr HookNames kCoreHooks{"core.mha_self", "core.mha_cross", "core.ffn",
                               "core.mha_enc", "core.ffn_enc"};
constexpr HookNames kQuantHooks{"quant.mha_self", "quant.mha_cross",
                                "quant.ffn", "quant.mha_enc", "quant.ffn_enc"};

class TracedCard {
 public:
  TracedCard(const ServeSpec& spec, const Inputs& in, Tracer& tr)
      : cfg_(scheduler_config(spec)),
        tr_(tr),
        hooks_(spec.backend == ServeBackend::kAccelerator ? kCoreHooks
                                                          : kQuantHooks),
        model_(in.weights) {
    const double t0 = now_s();
    qt_.emplace(QuantizedTransformer::build(model_, in.calib, cfg_.max_len,
                                            cfg_.softmax));
    calibrate_s_ = now_s() - t0;
    ResBlockBackend base;
    if (spec.backend == ServeBackend::kAccelerator) {
      acc_.emplace(cfg_.accel);
      fuser_.emplace(*acc_, &stats_);
      base = accelerator_backend(*qt_, *acc_, &stats_, &*fuser_);
    } else {
      base = qt_->backend();
    }
    ResBlockBackend b = base;
    b.mha = [this, f = base.mha](const MatF& q, const MatF& kv,
                                 const MhaWeights& w, const Mask& m) {
      Scope s(tr_, hooks_.mha_enc);
      return f(q, kv, w, m);
    };
    b.ffn = [this, f = base.ffn](const MatF& x, const FfnWeights& w) {
      Scope s(tr_, in_step_ ? hooks_.ffn : hooks_.ffn_enc);
      return f(x, w);
    };
    b.mha_cached_batch = [this, f = base.mha_cached_batch](
                             const MatF& q, const std::vector<MhaCache*>& c,
                             const MhaWeights& w,
                             const std::vector<Mask>& masks, bool append) {
      // The self-attention sublayer appends its new K/V rows; cross does not.
      Scope s(tr_, append ? hooks_.mha_self : hooks_.mha_cross);
      return f(q, c, w, masks, append);
    };
    model_.set_backend(std::move(b));
  }
  TracedCard(const TracedCard&) = delete;
  TracedCard& operator=(const TracedCard&) = delete;

  double calibrate_s() const { return calibrate_s_; }

  /// Decode every source; returns the outputs and the packed-step count,
  /// recording the GEMM shapes into `census` when given.
  std::vector<TokenSeq> run(const std::vector<TokenSeq>& sources,
                            GemmCensus* census, long* packed_steps);

 private:
  struct Slot {
    long id = 0;
    std::unique_ptr<SentenceSearch> search;
    std::vector<SublayerPlan> chunks;  ///< prefill chunks not yet spliced
    std::size_t next_chunk = 0;
    bool prefill_done() const { return next_chunk >= chunks.size(); }
  };

  Slot admit(long id, const TokenSeq& src);

  SchedulerConfig cfg_;
  Tracer& tr_;
  HookNames hooks_;
  Transformer model_;  // must not move: qt_ keys on its weight addresses
  std::optional<QuantizedTransformer> qt_;
  std::optional<Accelerator> acc_;
  AcceleratorStats stats_;
  std::optional<DecodeStepFuser> fuser_;
  bool in_step_ = false;
  double calibrate_s_ = 0;
};

TracedCard::Slot TracedCard::admit(long id, const TokenSeq& src) {
  Scope adm(tr_, "runner.admit", id);
  Slot a;
  a.id = id;
  MatF memory;
  {
    Scope s(tr_, "reference.encode", id);
    if (fuser_) fuser_->begin_prefill();
    memory = model_.encode(src);
  }
  if (fuser_) {
    // The accelerator's encoder timing is captured and cut into chunks
    // that later steps splice into their ledgers, as the serve loop does.
    Scope s(tr_, "sim.prefill_plan", id);
    a.chunks = chunk_prefill(fuser_->end_prefill(),
                             cfg_.accel.prefill_chunk_rows);
  }
  Scope s(tr_, "reference.begin_decode", id);
  DecodeState state = model_.begin_decode(memory, unpadded_length(src));
  if (cfg_.beam_size > 0)
    a.search = std::make_unique<BeamSearch>(cfg_.max_len, beam_config(cfg_),
                                            std::move(state));
  else
    a.search = std::make_unique<GreedySearch>(cfg_.max_len, std::move(state));
  return a;
}

std::vector<TokenSeq> TracedCard::run(const std::vector<TokenSeq>& sources,
                                      GemmCensus* census, long* packed_steps) {
  const int demand = cfg_.slot_demand();
  std::vector<TokenSeq> outputs(sources.size());
  std::vector<Slot> active;
  std::vector<DecodeState*> states;
  std::vector<int> tokens, self_len, cross_len;
  std::vector<char> ready;
  std::vector<std::vector<float>> rows;
  MatF logits;
  std::size_t next = 0;
  int reserved = 0;
  long step = 0;
  *packed_steps = 0;
  while (next < sources.size() || !active.empty()) {
    while (next < sources.size() && reserved + demand <= cfg_.slots_per_card) {
      const long id = static_cast<long>(next);
      const TokenSeq& src = sources[next++];
      active.push_back(admit(id, src));
      reserved += demand;
      if (census) {
        census->encoder(static_cast<int>(src.size()));
        census->cross_cache(static_cast<int>(src.size()));
      }
    }
    Scope st(tr_, "runner.step", step);
    // Readiness is snapshotted before this step's prefill chunks splice in:
    // a sentence decodes only once its whole encoder pass is in a ledger.
    states.clear();
    tokens.clear();
    self_len.clear();
    cross_len.clear();
    ready.assign(active.size(), 0);
    for (std::size_t ai = 0; ai < active.size(); ++ai) {
      if (!active[ai].prefill_done()) continue;
      ready[ai] = 1;
      SentenceSearch& search = *active[ai].search;
      for (int i = 0; i < search.live(); ++i) {
        DecodeState& ds = search.state(i);
        states.push_back(&ds);
        tokens.push_back(search.input_token(i));
        self_len.push_back(ds.steps + 1);
        cross_len.push_back(ds.memory_rows);
      }
    }
    if (fuser_) {
      fuser_->begin_step();
      for (Slot& a : active)
        if (!a.prefill_done())
          fuser_->add_prefill_chunk(a.chunks[a.next_chunk++]);
    }
    if (!states.empty()) {
      in_step_ = true;
      {
        Scope s(tr_, "reference.decode_step", step);
        model_.decode_step_batch(states, tokens, logits);
      }
      in_step_ = false;
      ++*packed_steps;
      if (census) census->decode_step(self_len, cross_len);
    }
    if (fuser_) {
      Scope s(tr_, "sim.step_ledger", step);
      (void)fuser_->end_step();
    }
    int off = 0;
    for (std::size_t ai = 0; ai < ready.size(); ++ai) {
      if (!ready[ai]) continue;
      SentenceSearch& search = *active[ai].search;
      const int k = search.live();
      rows.resize(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i)
        rows[static_cast<std::size_t>(i)].assign(
            logits.row(off + i), logits.row(off + i) + logits.cols());
      off += k;
      Scope s(tr_, "reference.search_advance", active[ai].id);
      search.advance(rows);
    }
    for (std::size_t ai = 0; ai < active.size();) {
      if (active[ai].search->done()) {
        outputs[static_cast<std::size_t>(active[ai].id)] =
            active[ai].search->result();
        reserved -= demand;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(ai));
      } else {
        ++ai;
      }
    }
    ++step;
  }
  return outputs;
}

// The traced run: per-layer metrics into `r`.
void traced_breakdown(const ServeSpec& spec, const Inputs& in,
                      const std::vector<TokenSeq>& untraced_outputs,
                      const Options& opt, Result& r) {
  Tracer tr;
  TracedCard card(spec, in, tr);
  r.set("quant.calibrate_s", card.calibrate_s());

  // One untraced and one traced run of the same runner: their ratio is the
  // recorder's overhead.
  GemmCensus census(spec.model, in.weights.vocab_size);
  long steps = 0;
  tr.set_enabled(false);
  const double t0 = now_s();
  check_outputs(r, card.run(in.sources, nullptr, &steps), untraced_outputs,
                "untraced runner");
  const double untraced_wall = now_s() - t0;
  tr.set_enabled(true);
  const std::int64_t n0 = Tracer::now_ns();
  const std::vector<TokenSeq> traced_out =
      card.run(in.sources, &census, &steps);
  const std::int64_t traced_ns = Tracer::now_ns() - n0;
  check_outputs(r, traced_out, untraced_outputs, "traced runner");
  const double traced_wall = static_cast<double>(traced_ns) / 1e9;
  const double n_sent = static_cast<double>(in.sources.size());
  const double n_steps = static_cast<double>(std::max(steps, 1L));
  const auto per = [&](const char* span, double n) {
    return static_cast<double>(tr.total_ns(span)) / 1e3 / n;
  };
  const HookNames& h =
      spec.backend == ServeBackend::kAccelerator ? kCoreHooks : kQuantHooks;
  for (const char* step_hook : {h.mha_self, h.mha_cross, h.ffn})
    r.set(std::string(step_hook) + "_us", per(step_hook, n_steps));
  for (const char* sentence_hook : {h.mha_enc, h.ffn_enc})
    r.set(std::string(sentence_hook) + "_us", per(sentence_hook, n_sent));
  r.set("reference.encode_us", per("reference.encode", n_sent));
  r.set("reference.begin_decode_us", per("reference.begin_decode", n_sent));
  r.set("reference.decode_step_us",
        static_cast<double>(tr.self_ns("reference.decode_step")) / 1e3 /
            n_steps);
  r.set("reference.search_advance_us",
        per("reference.search_advance", n_steps));
  r.set("sim.step_ledger_us", per("sim.step_ledger", n_steps));
  r.set("trace.coverage", static_cast<double>(tr.top_level_ns()) /
                              static_cast<double>(traced_ns));
  r.set("trace.overhead", traced_wall / untraced_wall);

  const GemmReplay gemms = replay_gemms(census);
  r.set("tensor.gemm_i8.gmac_per_s", gemms.i8_gmac_per_s);
  r.set("tensor.gemm_i8.bytes", gemms.i8_bytes);
  r.set("tensor.gemm_f32.gmac_per_s", gemms.f32_gmac_per_s);
  r.set("tensor.gemm_f32.bytes", gemms.f32_bytes);
  r.set("hwarith.softmax_row_ns",
        softmax_row_ns(census.mean_attention_width()));
  r.set("hwarith.layernorm_row_ns", layernorm_row_ns(spec.model.d_model));

  write_traced_run(opt.out_dir, spec.name, opt.seed, tr, traced_ns, gemms);
}

Result run_serve(const ServeSpec& spec, const Options& opt) {
  const Inputs in = make_inputs(spec, opt.seed);
  const SchedulerConfig sc = scheduler_config(spec);
  Result r = opt.trace ? per_layer_template() : end_to_end_template();

  // Set-up: Scheduler construction (per-card weight copy + INT8
  // calibration), repeated because it is short and noisy.
  std::vector<double> setups;
  std::unique_ptr<Scheduler> sched;
  for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
    sched.reset();
    const double t0 = now_s();
    sched = std::make_unique<Scheduler>(in.weights, in.calib, sc);
    setups.push_back(now_s() - t0);
  }
  const std::vector<TokenSeq> want = oracle(spec, in);

  // Discarded warm-up pass (first-touch allocations, pool spin-up).
  check_outputs(r, sched->run(in.sources).outputs, want, "warm-up pass");

  // Timed passes (they also give the traced run its serve counters).
  Passes p;
  timed_passes(*sched, in, want, now_s() + opt.seconds, r, p);

  if (spec.backend == ServeBackend::kAccelerator) {
    // One extra pass with the typed schedule verifier on every ledger: a
    // SCHED-* violation throws and counts as a failure.
    SchedulerConfig vc = sc;
    vc.accel.verify_schedules = true;
    try {
      Scheduler verifying(in.weights, in.calib, vc);
      check_outputs(r, verifying.run(in.sources).outputs, want,
                    "verify_schedules pass");
    } catch (const std::exception& e) {
      r.check(false, std::string("verify_schedules pass: ") + e.what());
    }
  }

  if (opt.trace) {
    const ScheduleReport& rep = p.last;
    r.set("serve.packed_steps", static_cast<double>(rep.packed_steps()));
    r.set("serve.packed_rows_mean", rep.packed_rows_mean());
    r.set("serve.prefill_chunks", static_cast<double>(rep.prefill_chunks()));
    long max_rows = 0, sum_rows = 0;
    for (const CardStepStats& c : rep.per_card_steps) {
      max_rows = std::max(max_rows, c.packed_rows);
      sum_rows += c.packed_rows;
    }
    r.set("serve.card_rows_imbalance",
          sum_rows > 0 ? static_cast<double>(max_rows) *
                             static_cast<double>(rep.per_card_steps.size()) /
                             static_cast<double>(sum_rows)
                       : 0.0);
    r.set("serve.cpu_per_wall", p.wall_s > 0 ? p.cpu_s / p.wall_s : 0.0);
    if (spec.backend == ServeBackend::kAccelerator) {
      r.set("sim.makespan_cycles", static_cast<double>(rep.makespan_cycles()));
      r.set("sim.sa_utilization", rep.sa_utilization());
      r.set("sim.sa_busy_cycles", static_cast<double>(rep.sa_busy_cycles()));
      r.set("sim.softmax_stall_cycles",
            static_cast<double>(rep.softmax_stall_cycles()));
      r.set("sim.boundary_stall_cycles",
            static_cast<double>(rep.boundary_stall_cycles()));
      r.set("sim.prefill_stall_cycles",
            static_cast<double>(rep.prefill_stall_cycles()));
      r.set("sim.modeled_sent_per_s", rep.modeled_sentences_per_second());
    }
    traced_breakdown(spec, in, p.last.outputs, opt, r);
  } else {
    describe_samples("wall_sent_per_s", p.sent_per_s);
    describe_samples("setup_s", setups);
    r.set("wall_sent_per_s", median(p.sent_per_s));
    r.set("setup_s", median(setups));
  }

  if (opt.inject_faults) {
    // Self-test: one corrupted output and one request that makes the
    // library throw must both land in `failed`.
    std::vector<TokenSeq> corrupted = p.last.outputs;
    corrupted.at(0).push_back(kEosId + 1);
    check_outputs(r, corrupted, want, "injected corruption");
    TokenSeq bad = in.sources.front();
    bad.front() = in.weights.vocab_size + 5;
    try {
      (void)sched->run({bad});
      r.check(true, "");
    } catch (const std::exception& e) {
      r.check(false, std::string("injected exception: ") + e.what());
    }
  }
  if (!opt.trace) r.set("peak_rss_mb", peak_rss_mb());
  return r;
}

}  // namespace

Result run_decode_accel(const Options& opt) {
  return run_serve(decode_accel_spec(), opt);
}

Result run_beam_farm(const Options& opt) {
  return run_serve(beam_farm_spec(), opt);
}

}  // namespace perfbench
