/**
 * @file
 * Microbenchmarks of Betty's building blocks. Every scenario runs one
 * discarded warmup and then five timed repeats; the mean of the timed
 * repeats is printed and recorded as "<scenario>.mean_s" in the
 * --json export (bench_common.h).
 *
 * Two scenario families:
 *
 *  - Components: REG construction, K-way partitioning, neighbor
 *    sampling, micro-batch extraction, and the memory estimator —
 *    the pipeline stages whose overhead the paper's future-work
 *    section proposes to optimize.
 *  - Kernels (docs/KERNELS.md): the fused gather-aggregate, the
 *    cache-blocked GEMM variants, and the bump-arena allocator, each
 *    measured on BOTH dispatch backends. The run ends with an
 *    aligned scalar-vs-avx2 sweep table; the speedup column is the
 *    acceptance figure (>= 2x fused gather-aggregate, >= 1.5x GEMM).
 *    On hardware or builds without AVX2+FMA the avx2 rows fall back
 *    to scalar (kernels/dispatch.h) and the table says so.
 *
 *   bench_micro_kernels [--trace-out=FILE] [--metrics-out=FILE]
 *                       [--json=FILE] [--threads=N]
 */
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kernels/arena.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "util/rng.h"
#include "util/timer.h"

namespace betty {
namespace {

const Dataset&
dataset()
{
    static Dataset ds = benchutil::loadBenchDataset("arxiv_like", 0.2);
    return ds;
}

const MultiLayerBatch&
fullBatch()
{
    static MultiLayerBatch batch = [] {
        NeighborSampler sampler(dataset().graph, {5, 8}, 7);
        std::vector<int64_t> seeds(
            dataset().trainNodes.begin(),
            dataset().trainNodes.begin() + 800);
        return sampler.sample(seeds);
    }();
    return batch;
}

constexpr int kWarmup = 1;
constexpr int kRepeats = 5;

/** One timed workload; setup and teardown run once, untimed. */
struct Scenario
{
    std::string name;
    std::string description;
    std::function<void()> setup;
    std::function<void()> run;
    std::function<void()> teardown = nullptr;
};

/** Mean seconds of @p scenario's timed repeats (warmup discarded). */
double
measure(const Scenario& scenario)
{
    if (scenario.setup)
        scenario.setup();
    double total = 0.0;
    for (int repeat = 0; repeat < kWarmup + kRepeats; ++repeat) {
        Timer timer;
        scenario.run();
        if (repeat >= kWarmup)
            total += timer.seconds();
    }
    if (scenario.teardown)
        scenario.teardown();
    return total / kRepeats;
}

/** Mean seconds per scenario name, for the sweep table. */
std::map<std::string, double> g_means;

double
meanSeconds(const std::string& name)
{
    const auto it = g_means.find(name);
    return it == g_means.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------
// Component scenarios (the paper's pipeline stages).

std::vector<Scenario>
componentScenarios()
{
    std::vector<Scenario> scenarios;

    scenarios.push_back(Scenario{
        "reg_construction",
        "REG build over the innermost block, arxiv_like",
        [] { fullBatch(); },
        [] {
            auto reg = buildReg(fullBatch().blocks.back());
            if (reg.numEdges() < 0)
                fatal("impossible REG");
        }});

    scenarios.push_back(Scenario{
        "kway_partition", "K-way REG partition at K=8",
        [] { fullBatch(); },
        [] {
            const auto reg = buildReg(fullBatch().blocks.back());
            KwayOptions opts;
            opts.k = 8;
            auto parts = kwayPartition(reg, opts);
            if (parts.empty())
                fatal("empty partition");
        }});

    scenarios.push_back(Scenario{
        "betty_partition",
        "full batch-level partitioning pipeline at K=8",
        [] { fullBatch(); },
        [] {
            BettyPartitioner partitioner;
            auto groups = partitioner.partition(fullBatch(), 8);
            if (groups.empty())
                fatal("empty groups");
        }});

    scenarios.push_back(Scenario{
        "neighbor_sampling",
        "multi-layer neighbour sampling, 800 seeds",
        [] { dataset(); },
        [] {
            NeighborSampler sampler(dataset().graph, {5, 8}, 7);
            std::vector<int64_t> seeds(
                dataset().trainNodes.begin(),
                dataset().trainNodes.begin() + 800);
            auto batch = sampler.sample(seeds);
            if (batch.totalEdges() == 0)
                fatal("empty batch");
        }});

    scenarios.push_back(Scenario{
        "micro_batch_extraction",
        "micro-batch extraction from the K=8 partition",
        [] { fullBatch(); },
        [] {
            BettyPartitioner partitioner;
            const auto groups = partitioner.partition(fullBatch(), 8);
            auto micros = extractMicroBatches(fullBatch(), groups);
            if (micros.empty())
                fatal("no micro-batches");
        }});

    scenarios.push_back(Scenario{
        "memory_estimate",
        "closed-form per-batch memory estimate (Table 3)",
        [] { fullBatch(); },
        [] {
            GnnSpec spec;
            spec.inputDim = dataset().featureDim();
            spec.hiddenDim = 64;
            spec.numClasses = dataset().numClasses;
            spec.numLayers = 2;
            spec.aggregator = AggregatorKind::Lstm;
            spec.paramCountGnn = 100000;
            spec.paramCountAgg = 30000;
            auto est = estimateBatchMemory(fullBatch(), spec);
            if (est.peak <= 0)
                fatal("impossible estimate");
        }});

    return scenarios;
}

// ---------------------------------------------------------------
// Kernel scenarios: each workload registered twice, once per
// dispatch backend, over identical inputs.

/** Synthetic CSR block sized like a first-layer REG micro-batch. */
struct GatherWork
{
    int64_t rows = 40000;
    int64_t cols = 64;
    int64_t segments = 8192;
    std::vector<float> x;
    std::vector<int64_t> sources;
    std::vector<int64_t> offsets;
    std::vector<float> out;

    void
    build()
    {
        if (!x.empty())
            return;
        Rng rng(1234);
        x.resize(size_t(rows * cols));
        for (auto& v : x)
            v = float(rng.uniformReal(-1.0, 1.0));
        offsets.push_back(0);
        for (int64_t s = 0; s < segments; ++s) {
            const int64_t degree = 2 + int64_t(rng.uniformInt(13));
            for (int64_t e = 0; e < degree; ++e)
                sources.push_back(int64_t(rng.uniformInt(
                    uint64_t(rows))));
            offsets.push_back(int64_t(sources.size()));
        }
        out.assign(size_t(segments * cols), 0.0f);
    }
};

GatherWork g_gather;

struct GemmWork
{
    int64_t m = 256, k = 64, n = 64;
    std::vector<float> a, b, c;

    void
    build()
    {
        if (!a.empty())
            return;
        Rng rng(99);
        a.resize(size_t(m * k));
        b.resize(size_t(k * n));
        c.resize(size_t(m * n));
        for (auto& v : a)
            v = float(rng.uniformReal(0.1, 1.0)); // no zero-skip
        for (auto& v : b)
            v = float(rng.uniformReal(-1.0, 1.0));
    }
};

GemmWork g_gemm;

/** Register one kernel workload under both backends. */
void
pushKernelPair(std::vector<Scenario>* scenarios,
               const std::string& base,
               const std::string& description,
               std::function<void()> setup, std::function<void()> fn)
{
    for (const kernels::KernelMode mode :
         {kernels::KernelMode::Scalar, kernels::KernelMode::Avx2}) {
        const std::string name =
            base + "_" + kernels::kernelModeName(mode);
        scenarios->push_back(Scenario{
            name, description + " [" + kernels::kernelModeName(mode) +
                      " backend]",
            [setup, mode] {
                setup();
                kernels::setKernelMode(mode);
            },
            fn, [] {
                kernels::setKernelMode(kernels::KernelMode::Scalar);
            }});
    }
}

std::vector<Scenario>
kernelScenarios()
{
    std::vector<Scenario> scenarios;

    pushKernelPair(
        &scenarios, "gather_aggregate",
        "fused gather + mean-aggregate, 8192 segments x 64 features",
        [] { g_gather.build(); },
        [] {
            for (int iter = 0; iter < 10; ++iter)
                kernels::gatherAggregate(
                    g_gather.x.data(), g_gather.rows, g_gather.cols,
                    g_gather.sources.data(), g_gather.offsets.data(),
                    g_gather.segments, kernels::Reduce::Mean,
                    g_gather.out.data());
        });

    pushKernelPair(
        &scenarios, "gemm",
        "cache-blocked GEMM, 256x64 @ 64x64 (the SAGE layer shape)",
        [] { g_gemm.build(); },
        [] {
            for (int iter = 0; iter < 50; ++iter) {
                std::memset(g_gemm.c.data(), 0,
                            g_gemm.c.size() * sizeof(float));
                kernels::gemm(g_gemm.a.data(), g_gemm.b.data(),
                              g_gemm.c.data(), g_gemm.m, g_gemm.k,
                              g_gemm.n);
            }
        });

    pushKernelPair(
        &scenarios, "gemm_transb",
        "GEMM against a transposed weight (backward dX shape)",
        [] { g_gemm.build(); },
        [] {
            // b reinterpreted as n x k: same buffer, transposed walk.
            for (int iter = 0; iter < 50; ++iter) {
                std::memset(g_gemm.c.data(), 0,
                            g_gemm.c.size() * sizeof(float));
                kernels::gemmTransB(g_gemm.a.data(), g_gemm.b.data(),
                                    g_gemm.c.data(), g_gemm.m,
                                    g_gemm.k, g_gemm.n);
            }
        });

    // Allocation discipline: the arena's pointer-bump against the
    // same request stream on the general-purpose heap.
    const auto churn = [](auto alloc, auto finish) {
        for (int batch = 0; batch < 200; ++batch) {
            for (int i = 0; i < 100; ++i) {
                const int64_t bytes = 256 << (i % 9); // 256 B..64 KiB
                void* p = alloc(bytes);
                // Touch one line so the page is really there.
                *static_cast<char*>(p) = char(i);
            }
            finish();
        }
    };
    scenarios.push_back(Scenario{
        "alloc_churn_arena",
        "micro-batch allocation churn through the bump arena",
        nullptr, [churn] {
            kernels::Arena arena;
            churn([&](int64_t b) { return arena.allocate(b); },
                  [&] { arena.reset(); });
        }});
    scenarios.push_back(Scenario{
        "alloc_churn_heap",
        "identical allocation churn through operator new/delete",
        nullptr, [churn] {
            std::vector<void*> live;
            live.reserve(100);
            churn(
                [&](int64_t b) {
                    void* p = ::operator new(size_t(b));
                    live.push_back(p);
                    return p;
                },
                [&] {
                    for (void* p : live)
                        ::operator delete(p);
                    live.clear();
                });
        }});

    return scenarios;
}

void
printSweepTable(benchutil::ObsSession& obs_session)
{
    const bool avx2 = kernels::builtWithAvx2() &&
                      kernels::cpuSupportsAvx2();
    obs_session.result("avx2_available", avx2 ? 1.0 : 0.0);
    TablePrinter table(avx2
                           ? "Kernel sweep: scalar vs avx2 (mean "
                             "seconds per repeat)"
                           : "Kernel sweep: AVX2+FMA UNAVAILABLE — "
                             "avx2 rows fell back to scalar");
    table.setHeader({"kernel", "scalar_s", "avx2_s", "speedup"});
    for (const char* base :
         {"gather_aggregate", "gemm", "gemm_transb"}) {
        const double scalar_s =
            meanSeconds(std::string(base) + "_scalar");
        const double avx2_s = meanSeconds(std::string(base) + "_avx2");
        if (avx2_s > 0.0)
            obs_session.result(std::string(base) + ".speedup",
                               scalar_s / avx2_s);
        table.addRow({base, TablePrinter::num(scalar_s, 6),
                      TablePrinter::num(avx2_s, 6),
                      avx2_s > 0.0
                          ? TablePrinter::num(scalar_s / avx2_s, 2) +
                                "x"
                          : "-"});
    }
    const double arena_s = meanSeconds("alloc_churn_arena");
    const double heap_s = meanSeconds("alloc_churn_heap");
    if (arena_s > 0.0)
        obs_session.result("alloc_churn.speedup", heap_s / arena_s);
    table.addRow({"alloc_churn (arena vs heap)",
                  TablePrinter::num(heap_s, 6),
                  TablePrinter::num(arena_s, 6),
                  arena_s > 0.0
                      ? TablePrinter::num(heap_s / arena_s, 2) + "x"
                      : "-"});
    table.print();
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_micro_kernels [--threads=N] [--trace-out=FILE]\n"
        "                           [--metrics-out=FILE] "
        "[--json=FILE]\n");
    return 2;
}

} // namespace
} // namespace betty

int
main(int argc, char** argv)
{
    using namespace betty;
    benchutil::ObsSession obs_session("bench_micro_kernels", &argc,
                                      argv);
    if (argc > 1)
        return usage();

    std::vector<Scenario> scenarios = componentScenarios();
    for (Scenario& scenario : kernelScenarios())
        scenarios.push_back(std::move(scenario));
    for (const Scenario& scenario : scenarios) {
        const double mean_s = measure(scenario);
        g_means[scenario.name] = mean_s;
        obs_session.result(scenario.name + ".mean_s", mean_s);
        std::printf("bench_micro_kernels: %-26s %9.3g s  %s\n",
                    scenario.name.c_str(), mean_s,
                    scenario.description.c_str());
        std::fflush(stdout);
    }
    std::printf("\n");
    printSweepTable(obs_session);
    return 0;
}
