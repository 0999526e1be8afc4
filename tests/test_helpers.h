/**
 * @file
 * Shared test utilities: numerical gradient checking and tiny graph
 * fixtures.
 */
#ifndef BETTY_TESTS_TEST_HELPERS_H
#define BETTY_TESTS_TEST_HELPERS_H

#include <cmath>
#include <functional>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr_graph.h"
#include "sampling/block.h"
#include "tensor/autograd.h"
#include "util/rng.h"

namespace betty::testutil {

/**
 * Compare analytic gradients against central finite differences.
 *
 * @param make_loss Rebuilds the scalar loss from the current parameter
 * values (called many times with perturbed parameters).
 * @param params Parameters to check.
 */
inline void
checkGradients(const std::function<ag::NodePtr()>& make_loss,
               const std::vector<ag::NodePtr>& params,
               float epsilon = 1e-2f, float tolerance = 2e-2f)
{
    // Analytic gradients.
    for (const auto& p : params)
        if (!p->grad.empty())
            p->grad.setZero();
    ag::backward(make_loss());

    for (size_t pi = 0; pi < params.size(); ++pi) {
        auto& p = params[pi];
        ASSERT_FALSE(p->grad.empty())
            << "param " << pi << " received no gradient";
        for (int64_t i = 0; i < p->value.numel(); ++i) {
            const float saved = p->value.data()[i];
            p->value.data()[i] = saved + epsilon;
            const float up = make_loss()->value.at(0, 0);
            p->value.data()[i] = saved - epsilon;
            const float down = make_loss()->value.at(0, 0);
            p->value.data()[i] = saved;
            const float numeric = (up - down) / (2.0f * epsilon);
            const float analytic = p->grad.data()[i];
            EXPECT_NEAR(analytic, numeric,
                        tolerance * std::max(1.0f, std::fabs(numeric)))
                << "param " << pi << " element " << i;
        }
    }
}

/** The Figure 7/8-style toy graph: 10 nodes, a few shared neighbors. */
inline CsrGraph
toyGraph()
{
    // Undirected pairs made directed both ways.
    const std::vector<std::pair<int64_t, int64_t>> pairs = {
        {0, 1}, {1, 2}, {1, 3}, {3, 5}, {5, 1}, {5, 6}, {6, 1},
        {6, 8}, {7, 1}, {7, 8}, {8, 9}, {4, 8}, {2, 4}, {0, 9},
    };
    std::vector<Edge> edges;
    for (auto [u, v] : pairs) {
        edges.push_back({u, v});
        edges.push_back({v, u});
    }
    return CsrGraph(10, edges);
}

/** A hand-built two-layer batch over toyGraph-like ids for block
 * tests: dst {0,1}, layer-1 sources fixed. */
inline MultiLayerBatch
tinyBatch()
{
    MultiLayerBatch batch;
    // Output layer: dst 0 aggregates {2, 3}; dst 1 aggregates {3, 4}.
    Block outer({0, 1}, {{2, 3}, {3, 4}});
    // Inner layer: dsts are outer's sources {0,1,2,3,4}.
    std::vector<int64_t> inner_dst = outer.srcNodes();
    Block inner(std::move(inner_dst),
                {{5}, {5, 6}, {6}, {7}, {2, 7}});
    batch.blocks = {inner, outer};
    return batch;
}

/**
 * Neighbor sampling rebuilt with per-destination source lists and the
 * public Block(dst, src_per_dst) constructor — the original algorithm,
 * kept as the oracle call @p call_index of
 * NeighborSampler(graph, fanouts, seed) must match byte for byte.
 */
inline MultiLayerBatch
referenceSample(const CsrGraph& graph, const std::vector<int64_t>& fanouts,
                uint64_t seed, uint64_t call_index,
                const std::vector<int64_t>& seeds)
{
    // The sampler's per-call seed derivation ("call" in ASCII).
    const uint64_t call_seed =
        Rng::streamKey(seed, 0x63616c6cULL, call_index);
    MultiLayerBatch batch;
    batch.blocks.resize(fanouts.size());
    std::vector<int64_t> layer_seeds = seeds;
    for (size_t layer = fanouts.size(); layer-- > 0;) {
        const int64_t fanout = fanouts[layer];
        std::vector<std::vector<int64_t>> src_per_dst;
        for (int64_t dst : layer_seeds) {
            const auto nbrs = graph.inNeighbors(dst);
            std::vector<int64_t> chosen;
            if (fanout < 0 || int64_t(nbrs.size()) <= fanout) {
                chosen.assign(nbrs.begin(), nbrs.end());
            } else {
                Rng rng = Rng::stream(call_seed, layer, uint64_t(dst));
                for (int64_t p : rng.sampleWithoutReplacement(
                         int64_t(nbrs.size()), fanout))
                    chosen.push_back(nbrs[size_t(p)]);
            }
            src_per_dst.push_back(std::move(chosen));
        }
        batch.blocks[layer] = Block(std::move(layer_seeds), src_per_dst);
        layer_seeds = batch.blocks[layer].srcNodes();
    }
    return batch;
}

/**
 * Micro-batch extraction rebuilt with the public Block(dst,
 * src_per_dst) constructor and one hash map per layer — the original
 * algorithm, kept as the oracle extractMicroBatches must match byte
 * for byte.
 */
inline std::vector<MultiLayerBatch>
referenceMicroBatches(const MultiLayerBatch& full,
                      const std::vector<std::vector<int64_t>>& groups)
{
    const size_t layers = full.blocks.size();
    std::vector<std::unordered_map<int64_t, int64_t>> dst_local(layers);
    for (size_t layer = 0; layer < layers; ++layer) {
        const auto dsts = full.blocks[layer].dstNodes();
        for (size_t i = 0; i < dsts.size(); ++i)
            dst_local[layer].emplace(dsts[i], int64_t(i));
    }
    std::vector<MultiLayerBatch> micros;
    for (const auto& group : groups) {
        MultiLayerBatch micro;
        micro.blocks.resize(layers);
        std::vector<int64_t> seeds = group;
        for (size_t layer = layers; layer-- > 0;) {
            const Block& parent = full.blocks[layer];
            std::vector<std::vector<int64_t>> src_per_dst;
            for (int64_t seed : seeds) {
                std::vector<int64_t> sources;
                for (int64_t s :
                     parent.inEdges(dst_local[layer].at(seed)))
                    sources.push_back(parent.srcNodes()[size_t(s)]);
                src_per_dst.push_back(std::move(sources));
            }
            micro.blocks[layer] = Block(std::move(seeds), src_per_dst);
            seeds = micro.blocks[layer].srcNodes();
        }
        micros.push_back(std::move(micro));
    }
    return micros;
}

/** Expect @p got and @p want to hold the same blocks, array by array. */
inline void
expectSameBatches(const std::vector<MultiLayerBatch>& got,
                  const std::vector<MultiLayerBatch>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t g = 0; g < got.size(); ++g) {
        ASSERT_EQ(got[g].blocks.size(), want[g].blocks.size());
        for (size_t l = 0; l < got[g].blocks.size(); ++l) {
            const Block& a = got[g].blocks[l];
            const Block& b = want[g].blocks[l];
            EXPECT_EQ(a.numDst(), b.numDst())
                << "group " << g << " layer " << l;
            EXPECT_EQ(a.srcNodes(), b.srcNodes())
                << "group " << g << " layer " << l;
            EXPECT_EQ(a.edgeOffsets(), b.edgeOffsets())
                << "group " << g << " layer " << l;
            EXPECT_EQ(a.edgeSources(), b.edgeSources())
                << "group " << g << " layer " << l;
        }
    }
}

} // namespace betty::testutil

#endif // BETTY_TESTS_TEST_HELPERS_H
