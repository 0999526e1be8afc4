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
 *  - Kernels (docs/KERNELS.md): the fused gather-aggregate and the
 *    three GEMM variants on the shapes perfbench's workloads run, and
 *    the bump-arena allocator. Every kernel shape is measured on BOTH
 *    dispatch backends, on 1 and on 4 pool lanes (the binary resizes
 *    the global pool itself; --threads sets the lanes of everything
 *    else). The run ends with an aligned sweep table: per kernel and
 *    lane count, the avx2-vs-scalar speedup and, on 4 lanes, the
 *    speedup over 1 lane. On hardware or builds without AVX2 the
 *    avx2 rows fall back to scalar (kernels/dispatch.h) and the table
 *    says so.
 *
 *   bench_micro_kernels [--trace-out=FILE] [--metrics-out=FILE]
 *                       [--json=FILE] [--threads=N]
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kernels/arena.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"
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
// Kernel scenarios: the shapes perfbench's workloads run, each timed
// under both dispatch backends on 1 and on 4 pool lanes, over
// identical inputs.

/** Lane counts every kernel shape is timed at. */
constexpr int32_t kSweepLanes[] = {1, 4};

/** Kernel shapes in registration order: the sweep table's rows. */
std::vector<std::string> g_sweep_shapes;

/** Scenario name of @p base under @p mode on @p lanes pool lanes. */
std::string
sweepScenarioName(const std::string& base, kernels::KernelMode mode,
                  int32_t lanes)
{
    return base + "_" + kernels::kernelModeName(mode) + "_" +
           std::to_string(lanes) + "lane";
}

/**
 * Register one kernel shape under both backends at each lane count.
 * @p setup builds its inputs (once); teardown restores the scalar
 * backend and the pool's @p base_lanes.
 */
void
pushSweepScenarios(std::vector<Scenario>* scenarios,
                   const std::string& base,
                   const std::string& description,
                   const std::function<void()>& setup,
                   const std::function<void()>& run, int32_t base_lanes)
{
    g_sweep_shapes.push_back(base);
    for (const int32_t lanes : kSweepLanes) {
        for (const kernels::KernelMode mode :
             {kernels::KernelMode::Scalar, kernels::KernelMode::Avx2}) {
            scenarios->push_back(Scenario{
                sweepScenarioName(base, mode, lanes),
                description + " [" + kernels::kernelModeName(mode) +
                    " backend, " + std::to_string(lanes) +
                    (lanes == 1 ? " lane]" : " lanes]"),
                [setup, mode, lanes] {
                    setup();
                    kernels::setKernelMode(mode);
                    ThreadPool::setGlobalThreads(lanes);
                },
                run, [base_lanes] {
                    kernels::setKernelMode(kernels::KernelMode::Scalar);
                    ThreadPool::setGlobalThreads(base_lanes);
                }});
        }
    }
}

/**
 * A workload's layer-1 mean aggregation: its catalog dataset, one
 * batch sampled with the workload's fanouts and batch size, and the
 * input features of that batch's first block.
 */
struct AggregateShape
{
    /** Scenario base name; the sweep table's kernel column. */
    const char* name;
    const char* description;
    const char* dataset;
    std::vector<int64_t> fanouts;
    int64_t batchSize;
};

const AggregateShape kAggregateShapes[] = {
    {"aggregate_cora_l1",
     "mean aggregation, cora_wide layer 1 (1433 columns)", "cora_like",
     {10, 10}, 128},
    {"aggregate_reddit_l1",
     "mean aggregation, reddit_4dev_cache layer 1 (602 columns)",
     "reddit_like", {10, 10}, 256},
    {"aggregate_products_l1",
     "mean aggregation, products_tight layer 1 (100 columns)",
     "products_like", {5, 5, 5}, 512},
};

/** One AggregateShape's block and gathered features, built once. */
struct AggregateWork
{
    std::vector<float> x;
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<int64_t> sources;
    std::vector<int64_t> offsets;
    std::vector<float> out;
    /** Calls per timed repeat: about 50M edge-columns per repeat. */
    int iterations = 1;

    void
    build(const AggregateShape& shape)
    {
        if (!x.empty())
            return;
        const Dataset ds = benchutil::loadBenchDataset(shape.dataset, 1.0);
        NeighborSampler sampler(ds.graph, shape.fanouts, 7);
        const size_t count = std::min(ds.trainNodes.size(),
                                      size_t(shape.batchSize));
        const std::vector<int64_t> seeds(ds.trainNodes.begin(),
                                         ds.trainNodes.begin() + count);
        const MultiLayerBatch batch = sampler.sample(seeds);
        // Layer 1 aggregates the input features over the first block.
        const Block& block = batch.blocks.front();
        rows = block.numSrc();
        cols = ds.featureDim();
        x.resize(size_t(rows * cols));
        kernels::gatherRows(ds.features.data(), ds.numNodes(), cols,
                            block.srcNodes().data(), rows, x.data());
        sources = block.edgeSources();
        offsets = block.edgeOffsets();
        out.assign(size_t(block.numDst() * cols), 0.0f);
        const int64_t work = (block.numEdges() + block.numDst()) * cols;
        iterations = int(std::max<int64_t>(1, 50000000 / work));
    }

    void
    run()
    {
        for (int iter = 0; iter < iterations; ++iter)
            kernels::gatherAggregate(x.data(), rows, cols, sources.data(),
                                     offsets.data(),
                                     int64_t(offsets.size()) - 1,
                                     kernels::Reduce::Mean, out.data());
    }
};

AggregateWork g_aggregate[std::size(kAggregateShapes)];

/** A GEMM entry point and shape that a perfbench workload runs. */
struct GemmShape
{
    /** Scenario base name; the sweep table's kernel column. */
    const char* name;
    const char* description;
    void (*kernel)(const float*, const float*, float*, int64_t,
                   int64_t, int64_t);
    int64_t m, k, n;
};

/**
 * Layer shapes measured from perfbench's traced GEMM spans: cora's
 * 2866-wide layer-1 input (self and neighbour features side by side),
 * products' layers 1 and 2, and its 47-class output layer 3 —
 * forward gemm, weight-gradient gemmTransA and input-gradient
 * gemmTransB.
 */
const GemmShape kGemmShapes[] = {
    {"gemm_cora_l1", "gemm 250x2866x64, cora_wide layer 1 forward",
     kernels::gemm, 250, 2866, 64},
    {"gemm_transa_cora_l1",
     "gemmTransA 2866x250x64, cora_wide layer 1 weight gradient",
     kernels::gemmTransA, 2866, 250, 64},
    {"gemm_products_l1",
     "gemm 1000x200x64, products_tight layer 1 forward", kernels::gemm,
     1000, 200, 64},
    {"gemm_transa_products_l1",
     "gemmTransA 200x1000x64, products_tight layer 1 weight gradient",
     kernels::gemmTransA, 200, 1000, 64},
    {"gemm_transb_products_l2",
     "gemmTransB 200x64x128, products_tight layer 2 input gradient",
     kernels::gemmTransB, 200, 64, 128},
    {"gemm_products_l3", "gemm 38x128x47, products_tight layer 3 forward",
     kernels::gemm, 38, 128, 47},
    {"gemm_transa_products_l3",
     "gemmTransA 128x38x47, products_tight layer 3 weight gradient",
     kernels::gemmTransA, 128, 38, 47},
};

/** Dense operands for one GemmShape (no zero-skip), built once. */
struct GemmWork
{
    std::vector<float> a, b, c;
    /** Calls per timed repeat: about 200 MFLOP, whatever the shape. */
    int iterations = 1;

    void
    build(const GemmShape& shape)
    {
        if (!a.empty())
            return;
        Rng rng(99);
        a.resize(size_t(shape.m * shape.k));
        b.resize(size_t(shape.k * shape.n));
        c.resize(size_t(shape.m * shape.n));
        for (auto& v : a)
            v = float(rng.uniformReal(0.1, 1.0));
        for (auto& v : b)
            v = float(rng.uniformReal(-1.0, 1.0));
        const int64_t flops = 2 * shape.m * shape.k * shape.n;
        iterations = int(std::max<int64_t>(1, 200000000 / flops));
    }

    void
    run(const GemmShape& shape)
    {
        for (int iter = 0; iter < iterations; ++iter) {
            std::memset(c.data(), 0, c.size() * sizeof(float));
            shape.kernel(a.data(), b.data(), c.data(), shape.m,
                         shape.k, shape.n);
        }
    }
};

GemmWork g_gemm[std::size(kGemmShapes)];

std::vector<Scenario>
kernelScenarios()
{
    std::vector<Scenario> scenarios;
    const int32_t base_lanes = ThreadPool::globalThreads();

    for (size_t i = 0; i < std::size(kAggregateShapes); ++i)
        pushSweepScenarios(
            &scenarios, kAggregateShapes[i].name,
            kAggregateShapes[i].description,
            [i] { g_aggregate[i].build(kAggregateShapes[i]); },
            [i] { g_aggregate[i].run(); }, base_lanes);
    for (size_t i = 0; i < std::size(kGemmShapes); ++i)
        pushSweepScenarios(
            &scenarios, kGemmShapes[i].name, kGemmShapes[i].description,
            [i] { g_gemm[i].build(kGemmShapes[i]); },
            [i] { g_gemm[i].run(kGemmShapes[i]); }, base_lanes);

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

/** "<num/den>x", or "-" without a denominator. */
std::string
speedup(double num, double den)
{
    return den > 0.0 ? TablePrinter::num(num / den, 2) + "x" : "-";
}

void
printSweepTable(benchutil::ObsSession& obs_session)
{
    const bool avx2 = kernels::builtWithAvx2() &&
                      kernels::cpuSupportsAvx2();
    obs_session.result("avx2_available", avx2 ? 1.0 : 0.0);
    TablePrinter table(avx2
                           ? "Kernel sweep: scalar vs avx2, 1 vs 4 "
                             "lanes (mean seconds per repeat)"
                           : "Kernel sweep: AVX2 UNAVAILABLE — "
                             "avx2 rows fell back to scalar");
    table.setHeader({"kernel", "lanes", "scalar_s", "avx2_s",
                     "avx2 speedup", "lane speedup scalar",
                     "lane speedup avx2"});

    // Per shape: "<name>.speedup" is avx2 over scalar on 1 lane,
    // "<name>.lane_speedup.<backend>" is 1 lane over 4 lanes.
    for (const std::string& base : g_sweep_shapes) {
        auto mean = [&base](kernels::KernelMode mode, int32_t lanes) {
            return meanSeconds(sweepScenarioName(base, mode, lanes));
        };
        const double scalar_1 = mean(kernels::KernelMode::Scalar, 1);
        const double avx2_1 = mean(kernels::KernelMode::Avx2, 1);
        for (const int32_t lanes : kSweepLanes) {
            const double scalar_s =
                mean(kernels::KernelMode::Scalar, lanes);
            const double avx2_s = mean(kernels::KernelMode::Avx2, lanes);
            const bool serial = lanes == 1;
            if (serial && avx2_s > 0.0)
                obs_session.result(base + ".speedup",
                                   scalar_s / avx2_s);
            if (!serial && scalar_s > 0.0 && avx2_s > 0.0) {
                obs_session.result(base + ".lane_speedup.scalar",
                                   scalar_1 / scalar_s);
                obs_session.result(base + ".lane_speedup.avx2",
                                   avx2_1 / avx2_s);
            }
            table.addRow({base, std::to_string(lanes),
                          TablePrinter::num(scalar_s, 6),
                          TablePrinter::num(avx2_s, 6),
                          speedup(scalar_s, avx2_s),
                          serial ? "-" : speedup(scalar_1, scalar_s),
                          serial ? "-" : speedup(avx2_1, avx2_s)});
        }
    }

    const double arena_s = meanSeconds("alloc_churn_arena");
    const double heap_s = meanSeconds("alloc_churn_heap");
    if (arena_s > 0.0)
        obs_session.result("alloc_churn.speedup", heap_s / arena_s);
    table.addRow({"alloc_churn (arena vs heap)", "1",
                  TablePrinter::num(heap_s, 6),
                  TablePrinter::num(arena_s, 6),
                  speedup(heap_s, arena_s), "-", "-"});
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
