// Microbenchmarks of the dispatched SIMD math kernels (math/kernels.h)
// over the dims the embedding pipeline actually runs: d = 16..256 for
// Dot/AddScaled/WeightedSum, and the BiSAGE weight shape (d rows x 2d
// cols) for MatVec and for the backward's transposed MatTVec; d = 32
// is the model's default. Every kernel is measured twice — scalar
// backend and the dispatched backend (AVX2+FMA where the CPU has it) —
// so the speedup is visible directly.
//
// Default mode runs under google-benchmark. CI's perf gate instead uses:
//   bench_kernels --bench_out=BENCH_kernels.json [--min_ms=20]
// which times each (kernel, dim, backend) cell with a calibrated manual
// loop (best of 5 repetitions) and writes
//   {"workload": "kernels", "active_backend": "...",
//    "results": [{"kernel": "dot", "dim": 128, "backend": "avx2",
//                 "ns_per_op": ...}, ...]}
// plus a speedup table on stdout.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eval/csv.h"
#include "math/kernels.h"
#include "math/rng.h"

namespace {

using namespace gem::math;  // NOLINT(build/namespaces) bench binary

constexpr int kDims[] = {16, 32, 64, 128, 256};
constexpr size_t kWeightedSumInputs = 8;

/// Deterministically filled operand set for one dimension.
struct Operands {
  explicit Operands(int dim) : n(dim) {
    Rng rng(0xBE11C4ULL + static_cast<uint64_t>(dim));
    auto fill = [&rng](kernels::AlignedVec& v, size_t size) {
      v.resize(size);
      for (double& x : v) x = rng.Uniform(-1.0, 1.0);
    };
    fill(a, n);
    fill(b, n);
    fill(out, n);
    fill(matrix, static_cast<size_t>(n) * 2 * n);
    fill(x2, 2 * static_cast<size_t>(n));
    fill(y, n);
    fill(inputs_flat, kWeightedSumInputs * n);
    coeffs.resize(kWeightedSumInputs);
    for (double& c : coeffs) c = rng.Uniform(0.0, 1.0);
    fill(y2, 2 * static_cast<size_t>(n));
    for (size_t k = 0; k < kWeightedSumInputs; ++k) {
      input_ptrs.push_back(inputs_flat.data() + k * n);
    }
  }

  size_t n;
  kernels::AlignedVec a, b, out, matrix, x2, y, y2, inputs_flat;
  std::vector<double> coeffs;
  std::vector<const double*> input_ptrs;
};

Operands& OperandsFor(int dim) {
  static std::vector<Operands>* all = [] {
    auto* v = new std::vector<Operands>();
    for (const int d : kDims) v->emplace_back(d);
    return v;
  }();
  for (Operands& ops : *all) {
    if (static_cast<int>(ops.n) == dim) return ops;
  }
  std::abort();
}

/// One iteration of each measured kernel.
void RunDot(const kernels::Ops& ops, Operands& od) {
  benchmark::DoNotOptimize(ops.dot(od.a.data(), od.b.data(), od.n));
}
void RunAddScaled(const kernels::Ops& ops, Operands& od) {
  ops.add_scaled(od.out.data(), od.b.data(), 1e-9, od.n);
  benchmark::DoNotOptimize(od.out.data());
}
void RunWeightedSum(const kernels::Ops& ops, Operands& od) {
  ops.weighted_sum(od.out.data(), od.input_ptrs.data(), od.coeffs.data(),
                   kWeightedSumInputs, od.n);
  benchmark::DoNotOptimize(od.out.data());
}
void RunMatVec(const kernels::Ops& ops, Operands& od) {
  ops.matvec(od.matrix.data(), static_cast<int>(od.n),
             static_cast<int>(2 * od.n), od.x2.data(), od.y.data());
  benchmark::DoNotOptimize(od.y.data());
}
void RunMatTVec(const kernels::Ops& ops, Operands& od) {
  ops.mattvec(od.matrix.data(), static_cast<int>(od.n),
              static_cast<int>(2 * od.n), od.y.data(), od.y2.data());
  benchmark::DoNotOptimize(od.y2.data());
}

using KernelFn = void (*)(const kernels::Ops&, Operands&);

struct KernelCase {
  const char* name;
  KernelFn fn;
};

constexpr KernelCase kKernelCases[] = {
    {"dot", RunDot},
    {"add_scaled", RunAddScaled},
    {"weighted_sum", RunWeightedSum},
    {"matvec", RunMatVec},
    {"mattvec", RunMatTVec},
};

// --------------------------------------------------------------------------
// google-benchmark mode.
// --------------------------------------------------------------------------

void BM_Kernel(benchmark::State& state, KernelFn fn,
               kernels::Backend backend) {
  Operands& od = OperandsFor(static_cast<int>(state.range(0)));
  const kernels::Ops& ops = kernels::OpsFor(backend);
  for (auto _ : state) fn(ops, od);
}

void RegisterAll() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (const KernelCase& kc : kKernelCases) {
    for (const kernels::Backend backend : backends) {
      std::string name = std::string("BM_") + kc.name + "/" +
                         kernels::BackendName(backend);
      auto* bench = benchmark::RegisterBenchmark(
          name.c_str(), BM_Kernel, kc.fn, backend);
      for (const int dim : kDims) bench->Arg(dim);
    }
  }
}

// --------------------------------------------------------------------------
// Manual timing mode (--bench_out=...), used by the CI perf gate.
// --------------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-5 ns/op with an iteration count calibrated to min_ms per rep.
double MeasureNsPerOp(KernelFn fn, const kernels::Ops& ops, Operands& od,
                      double min_ms) {
  // Calibrate.
  long iters = 512;
  for (;;) {
    const double start = Now();
    for (long i = 0; i < iters; ++i) fn(ops, od);
    const double elapsed_ms = (Now() - start) * 1e3;
    if (elapsed_ms >= min_ms || iters >= (1L << 30)) break;
    iters *= 4;
  }
  double best_ns = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = Now();
    for (long i = 0; i < iters; ++i) fn(ops, od);
    const double ns =
        (Now() - start) * 1e9 / static_cast<double>(iters);
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

int RunManual(const std::string& bench_out, double min_ms) {
  const bool have_avx2 = kernels::Avx2Available();
  std::printf("=== Kernel microbench (ns/op, best of 5) ===\n");
  std::printf("active backend: %s%s\n\n",
              kernels::BackendName(kernels::ActiveBackend()),
              have_avx2 ? "" : " (no AVX2+FMA on this CPU)");
  std::printf("%-14s %5s %12s %12s %9s\n", "kernel", "dim", "scalar",
              have_avx2 ? "avx2" : "-", "speedup");

  struct Row {
    const char* kernel;
    int dim;
    const char* backend;
    double ns;
  };
  std::vector<Row> rows;
  for (const KernelCase& kc : kKernelCases) {
    for (const int dim : kDims) {
      Operands& od = OperandsFor(dim);
      const double scalar_ns = MeasureNsPerOp(
          kc.fn, kernels::OpsFor(kernels::Backend::kScalar), od, min_ms);
      rows.push_back({kc.name, dim, "scalar", scalar_ns});
      if (have_avx2) {
        const double avx2_ns = MeasureNsPerOp(
            kc.fn, kernels::OpsFor(kernels::Backend::kAvx2), od, min_ms);
        rows.push_back({kc.name, dim, "avx2", avx2_ns});
        std::printf("%-14s %5d %12.2f %12.2f %8.2fx\n", kc.name, dim,
                    scalar_ns, avx2_ns, scalar_ns / avx2_ns);
      } else {
        std::printf("%-14s %5d %12.2f %12s %9s\n", kc.name, dim, scalar_ns,
                    "-", "-");
      }
    }
  }

  std::ofstream out(bench_out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", bench_out.c_str());
    return 1;
  }
  out << "{\"workload\": \"kernels\", \"active_backend\": \""
      << kernels::BackendName(kernels::ActiveBackend())
      << "\", \"results\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"kernel\": \"" << rows[i].kernel << "\", \"dim\": "
        << rows[i].dim << ", \"backend\": \"" << rows[i].backend
        << "\", \"ns_per_op\": " << rows[i].ns << "}";
  }
  out << "]}\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench_out = gem::eval::FlagValueFromArgs(argc, argv, "--bench_out=");
  if (!bench_out.empty()) {
    const std::string min_ms_flag =
        gem::eval::FlagValueFromArgs(argc, argv, "--min_ms=");
    double min_ms = 20.0;
    if (!min_ms_flag.empty()) min_ms = std::atof(min_ms_flag.c_str());
    if (min_ms <= 0.0) {
      std::fprintf(stderr, "--min_ms must be > 0\n");
      return 2;
    }
    return RunManual(bench_out, min_ms);
  }
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
