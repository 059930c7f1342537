// Kernel-level probes of the traced run: the GEMM shapes a workload runs,
// replayed through the public kernels::gemm_* entry points, and the
// hardware softmax / LayerNorm row units timed on the workload's widths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"

namespace perfbench {

class Tracer;

/// Which kernel entry point a GEMM goes through.
enum class GemmOp {
  kI8PackedBias,  ///< quantized linear layers (x·W + b, packed W)
  kNtI8,          ///< attention scores Q₁·K₁ᵀ
  kI8,            ///< attention Probs·V₁
  kF32,           ///< host output projection (logits)
};

const char* gemm_op_name(GemmOp op);

/// Calls per pass of every (op, m, k, n) a workload runs. Built from the
/// model structure (which linear layers and attention products a ResBlock
/// runs) and the rows the traced runner actually packed, so the counts are
/// computed, not intercepted inside the library.
class GemmCensus {
 public:
  explicit GemmCensus(const tfacc::ModelConfig& model, int vocab = 0)
      : m_(model), vocab_(vocab) {}

  void add(GemmOp op, int m, int k, int n, long calls = 1);

  /// Full MHA ResBlock over s_q query and s_kv key rows (encoder / paper).
  void mha_full(int s_q, int s_kv);
  /// FFN ResBlock over `rows` rows.
  void ffn(int rows);
  /// One encoder layer stack pass over an s-token source.
  void encoder(int s);
  /// Cross-attention K/V projection of every decoder layer (begin_decode).
  void cross_cache(int s);
  /// One packed decode step: `self_len[r]` / `cross_len[r]` are slot r's
  /// self-cache length after the append and its cross-attention length.
  void decode_step(const std::vector<int>& self_len,
                   const std::vector<int>& cross_len);

  using Key = std::tuple<GemmOp, int, int, int>;
  const std::map<Key, long>& calls() const { return calls_; }
  /// Call-weighted mean width of the attention rows (softmax row length).
  int mean_attention_width() const;

 private:
  tfacc::ModelConfig m_;
  int vocab_;
  std::map<Key, long> calls_;
};

struct GemmRow {
  std::string name;  ///< tensor.<op>.<m>x<k>x<n>
  long calls;             ///< per pass
  double ns_per_call;     ///< replayed, median of repeats
  double gmac_per_s;
  double bytes_per_call;  ///< A + B + C, computed from the tensor sizes
};

struct GemmReplay {
  std::vector<GemmRow> rows;
  /// Call-weighted aggregates over the rows: int8 ops (linear + attention)
  /// and f32 ops. bytes are per pass.
  double i8_gmac_per_s = 0, i8_bytes = 0, f32_gmac_per_s = 0, f32_bytes = 0;
};

/// Replay every shape of `census` through the dispatched kernels.
GemmReplay replay_gemms(const GemmCensus& census);

/// ns per row of the Fig. 6 softmax unit over `width`-wide score rows.
double softmax_row_ns(int width);
/// ns per row of the LayerNorm unit over `d_model`-wide INT16 rows.
double layernorm_row_ns(int d_model);

/// Outputs of a traced run in `out_dir`: <workload>-seed<N>.trace.json
/// (Chrome trace events) and <workload>-seed<N>.layers.json (per-span
/// calls / total / self time and one row per GEMM shape), plus the span
/// table on stderr. `wall_ns` is the traced runner's wall time.
void write_traced_run(const std::string& out_dir, const std::string& workload,
                      std::uint64_t seed, const Tracer& tr,
                      std::int64_t wall_ns, const GemmReplay& gemms);

}  // namespace perfbench
