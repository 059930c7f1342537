#include "probes.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "common/random.hpp"
#include "hwarith/layernorm_unit.hpp"
#include "hwarith/softmax_unit.hpp"
#include "reference/weights.hpp"
#include "tensor/kernels.hpp"
#include "tensor/pack.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace tfacc;

const char* gemm_op_name(GemmOp op) {
  switch (op) {
    case GemmOp::kI8PackedBias: return "gemm_i8_packed_bias";
    case GemmOp::kNtI8: return "gemm_nt_i8";
    case GemmOp::kI8: return "gemm_i8";
    case GemmOp::kF32: return "gemm_f32";
  }
  return "?";
}

void GemmCensus::add(GemmOp op, int m, int k, int n, long calls) {
  if (m > 0 && k > 0 && n > 0 && calls > 0) calls_[{op, m, k, n}] += calls;
}

void GemmCensus::mha_full(int s_q, int s_kv) {
  const int d = m_.d_model, hd = m_.head_dim, h = m_.num_heads;
  add(GemmOp::kI8PackedBias, s_q, d, hd, h);       // W_Q per head
  add(GemmOp::kI8PackedBias, s_kv, d, hd, 2 * h);  // W_K, W_V per head
  add(GemmOp::kNtI8, s_q, hd, s_kv, h);
  add(GemmOp::kI8, s_q, s_kv, hd, h);
  add(GemmOp::kI8PackedBias, s_q, d, d);  // W_G
}

void GemmCensus::ffn(int rows) {
  add(GemmOp::kI8PackedBias, rows, m_.d_model, m_.d_ff);
  add(GemmOp::kI8PackedBias, rows, m_.d_ff, m_.d_model);
}

void GemmCensus::encoder(int s) {
  for (int l = 0; l < m_.num_encoder_layers; ++l) {
    mha_full(s, s);
    ffn(s);
  }
}

void GemmCensus::cross_cache(int s) {
  add(GemmOp::kI8PackedBias, s, m_.d_model, m_.head_dim,
      2L * m_.num_heads * m_.num_decoder_layers);
}

void GemmCensus::decode_step(const std::vector<int>& self_len,
                             const std::vector<int>& cross_len) {
  const int rows = static_cast<int>(self_len.size());
  const int d = m_.d_model, hd = m_.head_dim, h = m_.num_heads;
  for (int l = 0; l < m_.num_decoder_layers; ++l) {
    // Self attention: the new rows' K/V are appended, then attended over.
    add(GemmOp::kI8PackedBias, rows, d, hd, 3 * h);
    for (int len : self_len) {
      add(GemmOp::kNtI8, 1, hd, len, h);
      add(GemmOp::kI8, 1, len, hd, h);
    }
    add(GemmOp::kI8PackedBias, rows, d, d);
    // Cross attention over the cached encoder K/V: only Q is projected.
    add(GemmOp::kI8PackedBias, rows, d, hd, h);
    for (int len : cross_len) {
      add(GemmOp::kNtI8, 1, hd, len, h);
      add(GemmOp::kI8, 1, len, hd, h);
    }
    add(GemmOp::kI8PackedBias, rows, d, d);
    ffn(rows);
  }
  add(GemmOp::kF32, rows, d, vocab_);  // logits
}

int GemmCensus::mean_attention_width() const {
  long calls = 0, width = 0;
  for (const auto& [key, c] : calls_)
    if (std::get<0>(key) == GemmOp::kNtI8) {
      calls += c;
      width += c * std::get<3>(key);
    }
  return calls == 0 ? m_.head_dim : static_cast<int>(width / calls);
}

namespace {

template <typename T>
Matrix<T> random_matrix(int rows, int cols, Rng& rng, int lo, int hi) {
  Matrix<T> m(rows, cols);
  for (int i = 0; i < rows * cols; ++i)
    m.data()[i] = static_cast<T>(rng.uniform_int(lo, hi));
  return m;
}

// Median ns per call of `fn` over a few timed groups, each long enough to
// dwarf the clock reads.
template <typename Fn>
double time_per_call_ns(Fn&& fn, double group_s = 2e-4, int groups = 3) {
  fn();  // warm: first-touch allocations, dispatch resolution
  std::vector<double> per_call;
  for (int g = 0; g < groups; ++g) {
    long calls = 0;
    const double t0 = now_s();
    double t1 = t0;
    do {
      fn();
      ++calls;
      t1 = now_s();
    } while (t1 - t0 < group_s);
    per_call.push_back((t1 - t0) * 1e9 / static_cast<double>(calls));
  }
  return median(per_call);
}

}  // namespace

GemmReplay replay_gemms(const GemmCensus& census) {
  GemmReplay out;
  Rng rng(0x9e3779b9ULL);
  double i8_macs = 0, i8_ns = 0, f32_macs = 0, f32_ns = 0;
  for (const auto& [key, calls] : census.calls()) {
    const auto [op, m, k, n] = key;
    double ns = 0.0, bytes = 0.0;
    switch (op) {
      case GemmOp::kI8PackedBias: {
        const MatI8 a = random_matrix<std::int8_t>(m, k, rng, -127, 127);
        const PackedI8 bp =
            pack_b_i8(random_matrix<std::int8_t>(k, n, rng, -127, 127));
        const std::vector<std::int32_t> bias(static_cast<std::size_t>(n), 7);
        MatI32 c(m, n);
        ns = time_per_call_ns(
            [&] { kernels::gemm_i8_packed_bias_into(a, bp, bias, c); });
        bytes = static_cast<double>(m) * k + static_cast<double>(k) * n +
                4.0 * n + 4.0 * m * n;
        break;
      }
      case GemmOp::kNtI8: {
        const MatI8 a = random_matrix<std::int8_t>(m, k, rng, -127, 127);
        const MatI8 b = random_matrix<std::int8_t>(n, k, rng, -127, 127);
        MatI32 c(m, n);
        ns = time_per_call_ns([&] { kernels::gemm_nt_i8_into(a, b, c); });
        bytes = static_cast<double>(m) * k + static_cast<double>(n) * k +
                4.0 * m * n;
        break;
      }
      case GemmOp::kI8: {
        const MatI8 a = random_matrix<std::int8_t>(m, k, rng, 0, 127);
        const MatI8 b = random_matrix<std::int8_t>(k, n, rng, -127, 127);
        MatI32 c(m, n);
        ns = time_per_call_ns([&] { kernels::gemm_i8_into(a, b, c); });
        bytes = static_cast<double>(m) * k + static_cast<double>(k) * n +
                4.0 * m * n;
        break;
      }
      case GemmOp::kF32: {
        MatF a(m, k), b(k, n), c(m, n);
        for (int i = 0; i < m * k; ++i)
          a.data()[i] = static_cast<float>(rng.uniform(-1, 1));
        for (int i = 0; i < k * n; ++i)
          b.data()[i] = static_cast<float>(rng.uniform(-1, 1));
        ns = time_per_call_ns([&] { kernels::gemm_f32_into(a, b, c); });
        bytes = 4.0 * (static_cast<double>(m) * k +
                       static_cast<double>(k) * n + static_cast<double>(m) * n);
        break;
      }
    }
    const double macs = static_cast<double>(m) * k * n;
    GemmRow row{"tensor." + std::string(gemm_op_name(op)) + "." +
                    std::to_string(m) + "x" + std::to_string(k) + "x" +
                    std::to_string(n),
                calls,
                ns,
                ns > 0 ? macs / ns : 0.0,  // MAC/ns = GMAC/s
                bytes};
    if (op == GemmOp::kF32) {
      f32_macs += macs * calls;
      f32_ns += ns * calls;
      out.f32_bytes += bytes * calls;
    } else {
      i8_macs += macs * calls;
      i8_ns += ns * calls;
      out.i8_bytes += bytes * calls;
    }
    out.rows.push_back(std::move(row));
  }
  out.i8_gmac_per_s = i8_ns > 0 ? i8_macs / i8_ns : 0.0;
  out.f32_gmac_per_s = f32_ns > 0 ? f32_macs / f32_ns : 0.0;
  return out;
}

double softmax_row_ns(int width) {
  Rng rng(0x50f7ULL);
  // A typical calibrated score LSB: scale(Q₁)·scale(K₁) of unit-variance
  // activations quantized to INT8.
  const hw::SoftmaxUnit unit(1.0 / (32.0 * 32.0));
  constexpr int kRows = 64;
  const MatI32 scores =
      random_matrix<std::int32_t>(kRows, width, rng, -4000, 4000);
  const std::vector<std::uint8_t> mask(static_cast<std::size_t>(width), 0);
  std::vector<std::int8_t> out(static_cast<std::size_t>(width));
  const double ns = time_per_call_ns(
      [&] {
        for (int r = 0; r < kRows; ++r)
          unit.row(scores.row(r), mask.data(), width, out.data());
      },
      2e-3, 5);
  return ns / kRows;
}

double layernorm_row_ns(int d_model) {
  Rng rng(0x1a7eULL);
  const hw::LayerNormUnit unit =
      hw::LayerNormUnit::build(LayerNormParams::random(d_model, rng), 0.05f);
  constexpr int kRows = 64;
  const MatI16 g =
      random_matrix<std::int16_t>(kRows, d_model, rng, -3000, 3000);
  std::vector<std::int8_t> out(static_cast<std::size_t>(d_model));
  const double ns = time_per_call_ns(
      [&] {
        for (int r = 0; r < kRows; ++r) unit.row(g.row(r), out.data());
      },
      2e-3, 5);
  return ns / kRows;
}

void write_traced_run(const std::string& out_dir, const std::string& workload,
                      std::uint64_t seed, const Tracer& tr,
                      std::int64_t wall_ns, const GemmReplay& gemms) {
  const std::string stem = out_dir + "/" + workload + "-seed" +
                           std::to_string(seed);
  if (!tr.write_chrome_trace(stem + ".trace.json", workload))
    std::fprintf(stderr, "warning: could not write %s.trace.json\n",
                 stem.c_str());
  const std::map<std::string, Tracer::Totals> spans = tr.by_name();
  std::ofstream f(stem + ".layers.json");
  f << "{\"wall_us\": " << static_cast<double>(wall_ns) / 1e3
    << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : spans) {
    f << (first ? "\n" : ",\n") << "\"" << name << "\": {\"calls\": "
      << t.calls << ", \"total_us\": " << static_cast<double>(t.total_ns) / 1e3
      << ", \"self_us\": " << static_cast<double>(t.self_ns) / 1e3 << "}";
    first = false;
  }
  f << "},\n\"gemm\": [";
  first = true;
  for (const GemmRow& g : gemms.rows) {
    f << (first ? "\n" : ",\n") << "{\"name\": \"" << g.name
      << "\", \"calls_per_pass\": " << g.calls << ", \"ns_per_call\": "
      << g.ns_per_call << ", \"gmac_per_s\": " << g.gmac_per_s
      << ", \"bytes\": " << g.bytes_per_call << "}";
    first = false;
  }
  f << "]}\n";
  if (!f)
    std::fprintf(stderr, "warning: could not write %s.layers.json\n",
                 stem.c_str());

  std::fprintf(stderr, "traced layer breakdown (%s, %.1f ms):\n",
               workload.c_str(), static_cast<double>(wall_ns) / 1e6);
  std::fprintf(stderr, "  %-28s %8s %12s %12s %7s\n", "span", "calls",
               "total ms", "self ms", "self %");
  for (const auto& [name, t] : spans)
    std::fprintf(stderr, "  %-28s %8ld %12.3f %12.3f %6.1f%%\n", name.c_str(),
                 t.calls, static_cast<double>(t.total_ns) / 1e6,
                 static_cast<double>(t.self_ns) / 1e6,
                 100.0 * static_cast<double>(t.self_ns) /
                     static_cast<double>(wall_ns));
}

}  // namespace perfbench
