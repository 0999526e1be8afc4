/**
 * @file
 * Scenario: a diagnostic tool for choosing a partitioner and K.
 *
 * Given a dataset name, fanouts, a seed count and a list of K values
 * (all optional arguments), prints per-partitioner redundancy, REG
 * cut, balance, and estimated max micro-batch memory — the quantities
 * a user would inspect before committing to a training configuration.
 *
 * Usage:
 *   partition_explorer [dataset] [num_seeds] [k1,k2,...]
 *   partition_explorer products_like 512 2,8,32
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>

#include "core/betty.h"
#include "data/catalog.h"
#include "sampling/neighbor_sampler.h"
#include "util/env_config.h"
#include "util/logging.h"
#include "util/table.h"

int
main(int argc, char** argv)
{
    using namespace betty;

    const std::string name = argc > 1 ? argv[1] : "arxiv_like";
    int64_t num_seeds = 512;
    if (argc > 2 && (!envcfg::parseInt(argv[2], &num_seeds) ||
                     num_seeds < 1))
        fatal("malformed num_seeds '", argv[2],
              "': expected an integer >= 1");
    std::vector<int64_t> ks = {2, 4, 8, 16};
    if (argc > 3) {
        const bool parsed = envcfg::parseIntList(argv[3], &ks);
        const auto [lo, hi] = std::minmax_element(ks.begin(), ks.end());
        if (!parsed || *lo < 1 || *hi > INT32_MAX)
            fatal("malformed K list '", argv[3],
                  "': expected comma-separated integers in [1, 2^31)");
    }

    const Dataset ds = loadCatalogDataset(name, 0.5);
    NeighborSampler sampler(ds.graph, {5, 10}, 7);
    std::vector<int64_t> seeds(
        ds.trainNodes.begin(),
        ds.trainNodes.begin() +
            std::min(ds.trainNodes.size(), size_t(num_seeds)));
    const auto full = sampler.sample(seeds);
    const auto reg = buildReg(full.blocks.back());
    std::printf("%s: batch of %lld outputs -> %lld inputs, REG has "
                "%lld edges\n",
                name.c_str(), (long long)full.outputNodes().size(),
                (long long)full.inputNodes().size(),
                (long long)reg.numEdges());

    GnnSpec spec;
    spec.inputDim = ds.featureDim();
    spec.hiddenDim = 32;
    spec.numClasses = ds.numClasses;
    spec.numLayers = 2;
    spec.paramCountGnn =
        (2 * spec.inputDim + 1) * spec.hiddenDim +
        (2 * spec.hiddenDim + 1) * spec.numClasses;

    RangePartitioner range;
    RandomPartitioner random(3);
    MetisBaselinePartitioner metis(ds.graph);
    BettyPartitioner betty;
    OutputPartitioner* partitioners[] = {&range, &random, &metis,
                                         &betty};

    TablePrinter table("partitioner diagnostics");
    table.setHeader({"K", "partitioner", "redundant_inputs", "reg_cut",
                     "outputs_max/min", "max_mem_MiB"});
    for (int64_t k : ks) {
        for (OutputPartitioner* part : partitioners) {
            const auto groups = part->partition(full, int32_t(k));
            const auto micros = extractMicroBatches(full, groups);

            // REG cut of this grouping.
            std::unordered_map<int64_t, int32_t> where;
            for (size_t g = 0; g < groups.size(); ++g)
                for (int64_t v : groups[g])
                    where[v] = int32_t(g);
            const auto outputs = full.outputNodes();
            std::vector<int32_t> parts(outputs.size());
            for (size_t i = 0; i < outputs.size(); ++i)
                parts[i] = where[outputs[i]];

            size_t biggest = 0, smallest = SIZE_MAX;
            int64_t max_mem = 0;
            for (const auto& micro : micros) {
                biggest =
                    std::max(biggest, micro.outputNodes().size());
                smallest =
                    std::min(smallest, micro.outputNodes().size());
                if (!micro.outputNodes().empty())
                    max_mem = std::max(
                        max_mem,
                        estimateBatchMemory(micro, spec).peak);
            }
            table.addRow(
                {std::to_string(k), part->name(),
                 TablePrinter::count(inputNodeRedundancy(full, micros)),
                 TablePrinter::count(reg.cutCost(parts)),
                 std::to_string(biggest) + "/" +
                     std::to_string(smallest),
                 TablePrinter::num(double(max_mem) / (1 << 20), 1)});
        }
    }
    table.print();
    return 0;
}
